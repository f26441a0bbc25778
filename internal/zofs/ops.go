package zofs

import (
	"math"
	"slices"

	"zofs/internal/coffer"
	"zofs/internal/proc"
	"zofs/internal/vfs"
)

// vfs.FileSystem implementation for ZoFS.
//
// Every namespace operation resolves the nearest enclosing coffer by
// backwards path parsing, maps it on demand, opens an MPK window for the
// duration of the access (G1/G2) and publishes metadata updates with
// single atomic 8-byte commits in a recovery-safe order (§5.3).

// execMask drops the execution bits: the paper's notion of "permission"
// ignores them (§2.3), which is what lets 0755 directories and 0644 files
// share a coffer.
func execMask(m coffer.Mode) coffer.Mode { return m &^ 0o111 }

func modeOf(hdr []byte) coffer.Mode { return coffer.Mode(u32at(hdr, inoModeOff)) }

// sameCofferPerm decides whether a file with (mode, uid, gid) may live in a
// coffer with root-page metadata rp (§5: "a file can be stored in its
// parent's coffer only when it has the same permission as its parent").
func (f *FS) sameCofferPerm(rp coffer.RootPage, mode coffer.Mode, uid, gid uint32) bool {
	if f.opts.OneCoffer {
		return true
	}
	return execMask(rp.Mode) == execMask(mode) && rp.UID == uid && rp.GID == gid
}

var _ vfs.FileSystem = (*FS)(nil)

// create is the one way a name comes into being: Create, Mkdir and Symlink
// walk to the parent directory, take the name's bucket lock and find the
// name absent — Create opens an existing file instead, truncating it (creat
// semantics) — then make the child. A child whose permission matches the
// parent coffer's (a symlink always does: it carries its parent's) gets an
// inode page of that coffer, initialised before its dentry goes in. Any
// other becomes the root of a fresh coffer, referenced by a cross-coffer
// dentry (§3.1). It returns a handle on a regular file, nil otherwise.
func (f *FS) create(th *proc.Thread, path string, typ vfs.FileType, mode coffer.Mode, target string) (vfs.Handle, error) {
	dir, base := vfs.SplitPath(path)
	if base == "" {
		return nil, vfs.ErrExist
	}
	if len(base) > MaxNameLen {
		return nil, vfs.ErrNameTooLong
	}
	pos, err := f.walk(th, dir, true, true)
	if err != nil {
		return nil, err
	}
	defer pos.close()
	if pos.typ != vfs.TypeDir {
		return nil, vfs.ErrNotDir
	}
	bk := f.lockDirBucket(th, pos.ino, base)
	defer f.unlockDirBucket(th, bk)
	if de, _, err := f.dirLookup(th, pos.ino, base); err == nil {
		if typ != vfs.TypeRegular {
			return nil, vfs.ErrExist
		}
		return f.openExisting(th, pos, de, path)
	}

	m, ino := pos.m, int64(0)
	uid, gid := th.Proc.UID(), th.Proc.GID()
	if rp, _ := f.kern.Info(pos.m.id); typ == vfs.TypeSymlink || f.sameCofferPerm(rp, mode, uid, gid) {
		// The inode page goes back on any failure after its allocation.
		if ino, err = f.allocPage(th, pos.m, classMeta); err != nil {
			return nil, err
		}
		f.initInode(th, ino, typ, uint32(mode), uid, gid)
		if typ == vfs.TypeSymlink {
			err = f.writeSymlinkTarget(th, ino, target)
		}
		if err == nil {
			err = f.dirInsert(th, pos.m, pos.ino, base, uint8(typ), 0, ino)
		}
		if err != nil {
			f.freeInode(th, pos.m, ino, typ)
			return nil, err
		}
	} else {
		newID, err := f.kern.CofferNew(th, pos.m.id, path, coffer.TypeZoFS, mode, uid, gid, 3)
		if err != nil {
			return nil, errno(err)
		}
		// coffer_new already published the path in the kernel registry.
		// Until the root inode is initialized and the dentry is in place,
		// any exit — error return or MPK fault unwinding through here — must
		// delete the coffer again, or the path resolves forever to an
		// uninitialized root.
		published := false
		defer func() {
			if !published {
				f.deleteCoffer(th, newID)
			}
		}()
		if m, err = f.ensureMapped(th, newID, true); err != nil {
			return nil, err
		}
		ino = m.root
		f.window(th, m, true)
		f.initInode(th, ino, typ, uint32(mode), uid, gid)
		// Back to the parent coffer to publish the cross-coffer dentry.
		f.window(th, pos.m, true)
		if err := f.dirInsert(th, pos.m, pos.ino, base, uint8(typ), uint32(newID), ino); err != nil {
			return nil, err
		}
		published = true
	}
	if typ != vfs.TypeRegular {
		return nil, nil
	}
	return f.newHandle(m, ino, path, vfs.O_RDWR), nil
}

// Create makes (or truncates) a regular file.
func (f *FS) Create(th *proc.Thread, path string, mode coffer.Mode) (vfs.Handle, error) {
	return f.create(th, path, vfs.TypeRegular, mode, "")
}

// openExisting is creat(2) on a name found in a directory under the
// bucket lock: the file it leads to opens read-write, truncated.
func (f *FS) openExisting(th *proc.Thread, pos walkPos, de dentry, path string) (vfs.Handle, error) {
	id, err := f.target(de, path)
	if err != nil {
		return nil, err
	}
	m, ino := pos.m, de.inode
	if id != 0 {
		if m, err = f.ensureMapped(th, id, true); err != nil {
			return nil, err
		}
		ino = m.root
	}
	cl := f.window(th, m, true)
	defer cl.close()
	typ := vfs.FileType(u32at(f.readInodeHeader(th, ino), inoTypeOff))
	return f.openInode(th, m, ino, typ, path, vfs.O_RDWR|vfs.O_TRUNC)
}

// Open opens an existing file (or creates one with O_CREATE).
func (f *FS) Open(th *proc.Thread, path string, flags int) (vfs.Handle, error) {
	write := flags&vfs.O_ACCESS != vfs.O_RDONLY
	pos, err := f.walk(th, path, true, write)
	if err != nil {
		if err == vfs.ErrNotExist && flags&vfs.O_CREATE != 0 {
			return f.Create(th, path, 0o644)
		}
		return nil, err
	}
	defer pos.close()
	if flags&vfs.O_CREATE != 0 && flags&vfs.O_EXCL != 0 {
		return nil, vfs.ErrExist
	}
	return f.openInode(th, pos.m, pos.ino, pos.typ, path, flags)
}

// openInode opens inode ino, a typ in coffer m found at path: a directory
// only read-only, and with O_TRUNC a regular file truncated first.
func (f *FS) openInode(th *proc.Thread, m *mount, ino int64, typ vfs.FileType, path string, flags int) (vfs.Handle, error) {
	if typ == vfs.TypeDir && flags&vfs.O_ACCESS != vfs.O_RDONLY {
		return nil, vfs.ErrIsDir
	}
	if flags&vfs.O_TRUNC != 0 && typ == vfs.TypeRegular {
		if err := f.truncateTo(th, m, ino, 0); err != nil {
			return nil, err
		}
	}
	return f.newHandle(m, ino, path, flags), nil
}

// Mkdir creates a directory, in-coffer when the permission matches the
// parent coffer, otherwise as a new coffer.
func (f *FS) Mkdir(th *proc.Thread, path string, mode coffer.Mode) error {
	_, err := f.create(th, path, vfs.TypeDir, mode, "")
	return err
}

// Unlink removes a file or symlink.
func (f *FS) Unlink(th *proc.Thread, path string) error { return f.remove(th, path, false) }

// Rmdir removes an empty directory.
func (f *FS) Rmdir(th *proc.Thread, path string) error { return f.remove(th, path, true) }

// remove is the one way a name goes, behind Unlink and Rmdir (dir): the
// name is taken out under its bucket lock (unname), and what it led to is
// freed after the lock is dropped, so concurrent mutations in the directory
// proceed.
func (f *FS) remove(th *proc.Thread, path string, dir bool) error {
	parent, base := vfs.SplitPath(path)
	if base == "" {
		if dir {
			return vfs.ErrInvalid // cannot remove "/"
		}
		return vfs.ErrIsDir
	}
	pos, err := f.walk(th, parent, true, true)
	if err != nil {
		return err
	}
	defer pos.close()
	if pos.typ != vfs.TypeDir {
		return vfs.ErrNotDir
	}
	bk := f.lockDirBucket(th, pos.ino, base)
	de, loc, err := f.dirLookup(th, pos.ino, base)
	var root int64
	if err == nil {
		root, err = f.unname(th, pos, path, de, loc, dir)
	}
	f.unlockDirBucket(th, bk)
	if err == nil {
		f.reclaim(th, pos.m, de, root)
	}
	return err
}

// unname kills dentry de, at path and loc in pos, under its bucket lock once
// it names what it leads to (target), is a directory exactly when dir says,
// and an empty one. A coffer root's coffer is deleted first, so a refused
// kernel call never strands a live coffer behind a missing name. It returns
// a directory's inode page, for reclaim.
func (f *FS) unname(th *proc.Thread, pos walkPos, path string, de dentry, loc deLoc, dir bool) (int64, error) {
	id, err := f.target(de, path)
	if err != nil {
		return 0, err
	}
	var root int64
	switch {
	case dir != (vfs.FileType(de.typ) == vfs.TypeDir):
		if dir {
			return 0, vfs.ErrNotDir
		}
		return 0, vfs.ErrIsDir
	case dir:
		if root, err = f.emptyDir(th, pos, id, de.inode); err != nil {
			return 0, err
		}
	}
	if id != 0 {
		if err := f.deleteCoffer(th, id); err != nil {
			return 0, err
		}
	}
	_, base := vfs.SplitPath(path)
	f.dirRemove(th, pos.ino, base, loc)
	return root, nil
}

// reclaim frees what an unnamed dentry de led to (a crash first leaks it to
// recovery, §5.3): an in-coffer inode, at its last close if still open, or a
// coffer root directory's index (its pages went with the coffer).
func (f *FS) reclaim(th *proc.Thread, m *mount, de dentry, root int64) {
	dir := vfs.FileType(de.typ) == vfs.TypeDir
	switch {
	case de.cofferID != 0:
		if dir {
			f.sh.resetDir(root)
		}
	case dir || !f.sh.orphan(de.inode, de.typ):
		f.freeInode(th, m, de.inode, vfs.FileType(de.typ))
	}
}

// emptyDir returns the inode page of directory ino, found in pos and rooting
// coffer id when id is not 0, or ErrNotEmpty. A coffer root is read through
// its own coffer's read window, after which pos's write window is back.
func (f *FS) emptyDir(th *proc.Thread, pos walkPos, id coffer.ID, ino int64) (int64, error) {
	if id != 0 {
		nm, err := f.ensureMapped(th, id, false)
		if err != nil {
			return 0, err
		}
		f.window(th, nm, false)
		ino = nm.root
	}
	err := f.dirEmpty(th, ino)
	if id != 0 {
		f.window(th, pos.m, true)
	}
	return ino, err
}

// deleteCoffer is the one coffer delete: the cached mapping goes, then
// coffer_delete, and once the coffer is gone every directory index on the
// device is distrusted, since its pages may be re-granted.
func (f *FS) deleteCoffer(th *proc.Thread, id coffer.ID) error {
	f.forgetMount(id)
	err := errno(f.kern.CofferDelete(th, id))
	if err == nil {
		f.sh.dc.bump()
	}
	return err
}

// forgetMount drops a cached mapping (after the coffer is deleted).
func (f *FS) forgetMount(id coffer.ID) {
	f.mu.Lock()
	delete(f.mounts, id)
	f.mu.Unlock()
}

// InvalidateAll drops every cached coffer mapping; subsequent operations
// re-issue coffer_map. FSLibs calls this after a protection fault, since
// the kernel may have unmapped coffers behind the library's back (e.g.
// another process initiated recovery — §3.5).
func (f *FS) InvalidateAll() {
	f.mu.Lock()
	clear(f.mounts)
	f.mu.Unlock()
	// The kernel may have recovered (and rewritten) coffers behind our back:
	// distrust every cached directory index.
	f.sh.dc.bump()
}

// Stat returns file metadata; for coffer roots the authoritative
// permission/ownership comes from the kernel-managed root page.
func (f *FS) Stat(th *proc.Thread, path string) (vfs.FileInfo, error) {
	pos, err := f.walk(th, path, true, false)
	if err != nil {
		return vfs.FileInfo{}, err
	}
	defer pos.close()
	f.rlockInode(th, pos.ino)
	fi := f.statInode(th, pos.m, pos.ino)
	f.runlockInode(th, pos.ino)
	if pos.ino == pos.m.root {
		if rp, ok := f.kern.Info(pos.m.id); ok {
			fi.Mode, fi.UID, fi.GID = rp.Mode, rp.UID, rp.GID
		}
	}
	return fi, nil
}

// ReadDir lists a directory into the thread's listing buffer (Scratch.Dir),
// which grows only for a directory bigger than any the thread listed before;
// the result is valid until the thread's next ReadDir.
func (f *FS) ReadDir(th *proc.Thread, path string) ([]vfs.DirEntry, error) {
	pos, err := f.walk(th, path, true, false)
	if err != nil {
		return nil, err
	}
	defer pos.close()
	if pos.typ != vfs.TypeDir {
		return nil, vfs.ErrNotDir
	}
	f.rlockInode(th, pos.ino)
	defer f.runlockInode(th, pos.ino)
	buf, _ := th.Scratch.Dir.(*[]vfs.DirEntry)
	if buf == nil {
		buf = new([]vfs.DirEntry)
		th.Scratch.Dir = buf
	}
	err = f.dirList(th, pos.ino, math.MaxInt, nil, func(ents []cachedDe) {
		out := slices.Grow((*buf)[:0], len(ents))
		for i := range ents {
			d := &ents[i].de
			out = append(out, vfs.DirEntry{
				Name:   d.name,
				Type:   vfs.FileType(d.typ),
				Inode:  d.inode,
				Coffer: coffer.ID(d.cofferID),
			})
		}
		*buf = out
	})
	if err != nil {
		return nil, err
	}
	return *buf, nil
}

// Symlink creates a symbolic link (always in-coffer; links carry their
// parent coffer's permission).
func (f *FS) Symlink(th *proc.Thread, target, link string) error {
	_, err := f.create(th, link, vfs.TypeSymlink, 0o777, target)
	return err
}

// Readlink reads a symlink's target (no following of the final component).
func (f *FS) Readlink(th *proc.Thread, path string) (string, error) {
	pos, err := f.walk(th, path, false, false)
	if err != nil {
		return "", err
	}
	defer pos.close()
	if pos.typ != vfs.TypeSymlink {
		return "", vfs.ErrInvalid
	}
	return string(f.readSymlink(th, pos.ino, th.Scratch.Buf(symMaxLen))), nil
}

// Truncate resizes a file by path.
func (f *FS) Truncate(th *proc.Thread, path string, size int64) error {
	pos, err := f.walk(th, path, true, true)
	if err != nil {
		return err
	}
	defer pos.close()
	if pos.typ != vfs.TypeRegular {
		return vfs.ErrIsDir
	}
	return f.truncateTo(th, pos.m, pos.ino, size)
}

// ---- file handle -------------------------------------------------------------

// file is ZoFS's vfs.Handle: an (instance, coffer, inode) triple. Offsets
// are managed by the FD layer above. A handle may be shared by concurrent
// threads (e.g. FxMark DWOM), so between open and close it holds only
// immutable identity; the mapping is re-resolved per operation via remap.
//
// The struct outlives the open: Close hands it to the instance's free list
// and the next open takes it from there. A closed handle answers every call
// with vfs.ErrBadFD (Close: nil) for as long as it stays on that list; once
// reused it is somebody else's file, so callers drop a handle at Close (the
// vfs.Handle contract).
type file struct {
	fs     *FS
	cid    coffer.ID
	ino    int64
	path   string
	flags  int
	closed bool
	next   *file // free-list link
}

// newHandle registers the open with the cross-process handle table (unlink
// defers reclamation while handles exist).
func (f *FS) newHandle(m *mount, ino int64, path string, flags int) *file {
	f.sh.retain(ino)
	f.hmu.Lock()
	h := f.hfree
	if h != nil {
		f.hfree = h.next
	}
	f.hmu.Unlock()
	if h == nil {
		h = new(file)
	}
	*h = file{fs: f, cid: m.id, ino: ino, path: path, flags: flags}
	return h
}

func (h *file) writable() bool { return h.flags&vfs.O_ACCESS != vfs.O_RDONLY }

// remap resolves the current mapping, refreshing it if it was evicted
// under MPK pressure. Callers use the returned mount for the whole
// operation rather than caching it on the (possibly shared) handle.
func (h *file) remap(th *proc.Thread, write bool) (*mount, error) {
	return h.fs.ensureMapped(th, h.cid, write)
}

// ReadAt implements the data-read path: readers-writer lock read side, so
// concurrent reads overlap (Fig. 7a–c).
func (h *file) ReadAt(th *proc.Thread, p []byte, off int64) (int, error) {
	if h.closed {
		return 0, vfs.ErrBadFD
	}
	m, err := h.remap(th, false)
	if err != nil {
		return 0, err
	}
	cl := h.fs.window(th, m, false)
	defer cl.close()
	h.fs.rlockInode(th, h.ino)
	defer h.fs.runlockInode(th, h.ino)
	return h.fs.readAt(th, m, h.ino, p, off)
}

// WriteAt implements the data-write path under the per-file write lock
// (Fig. 7e–f), with the Figure 8 variant hooks.
func (h *file) WriteAt(th *proc.Thread, p []byte, off int64) (int, error) {
	if h.closed || !h.writable() {
		return 0, vfs.ErrBadFD
	}
	m, err := h.remap(th, true)
	if err != nil {
		return 0, err
	}
	h.fs.maybeEmptySyscall(th)
	h.fs.maybeKernelCall(th)
	cl := h.fs.window(th, m, true)
	defer cl.close()
	ep, lerr := h.fs.lockInode(th, m, h.ino)
	if lerr != nil {
		return 0, lerr
	}
	defer h.fs.unlockInode(th, m, h.ino, ep)
	return h.fs.writeAt(th, m, h.ino, ep, p, off)
}

// Append atomically appends at end of file (the DWAL operation).
func (h *file) Append(th *proc.Thread, p []byte) (int64, error) {
	if h.closed || !h.writable() {
		return 0, vfs.ErrBadFD
	}
	m, err := h.remap(th, true)
	if err != nil {
		return 0, err
	}
	h.fs.maybeEmptySyscall(th)
	h.fs.maybeKernelCall(th)
	cl := h.fs.window(th, m, true)
	defer cl.close()
	ep, lerr := h.fs.lockInode(th, m, h.ino)
	if lerr != nil {
		return 0, lerr
	}
	defer h.fs.unlockInode(th, m, h.ino, ep)
	off := h.fs.inodeSize(th, h.ino)
	_, err = h.fs.writeAt(th, m, h.ino, ep, p, off)
	return off, err
}

// Stat returns the handle's current metadata.
func (h *file) Stat(th *proc.Thread) (vfs.FileInfo, error) {
	if h.closed {
		return vfs.FileInfo{}, vfs.ErrBadFD
	}
	m, err := h.remap(th, false)
	if err != nil {
		return vfs.FileInfo{}, err
	}
	cl := h.fs.window(th, m, false)
	defer cl.close()
	h.fs.rlockInode(th, h.ino)
	defer h.fs.runlockInode(th, h.ino)
	fi := h.fs.statInode(th, m, h.ino)
	if h.ino == m.root {
		if rp, ok := h.fs.kern.Info(m.id); ok {
			fi.Mode, fi.UID, fi.GID = rp.Mode, rp.UID, rp.GID
		}
	}
	return fi, nil
}

// Sync is a no-op on an open handle: ZoFS is synchronous (§5, "a synchronous
// file system").
func (h *file) Sync(*proc.Thread) error {
	if h.closed {
		return vfs.ErrBadFD
	}
	return nil
}

// Close releases the handle, reclaiming an orphaned (unlinked-while-open)
// inode's content on the last close, and leaves the struct for the next open.
func (h *file) Close(th *proc.Thread) error {
	if h.closed {
		return nil
	}
	h.closed = true
	defer h.fs.recycle(h)
	reclaim, typ := h.fs.sh.release(h.ino)
	if !reclaim {
		return nil
	}
	m, err := h.remap(th, true)
	if err != nil {
		return nil // mapping revoked; recovery will reclaim the orphan
	}
	cl := h.fs.window(th, m, true)
	defer cl.close()
	ep, lerr := h.fs.lockInode(th, m, h.ino)
	if lerr != nil {
		return nil // lease unobtainable; recovery reclaims the orphan
	}
	defer h.fs.unlockInode(th, m, h.ino, ep)
	h.fs.freeInode(th, m, h.ino, vfs.FileType(typ))
	return nil
}

// recycle puts a closed handle on the free list.
func (f *FS) recycle(h *file) {
	f.hmu.Lock()
	h.next, f.hfree = f.hfree, h
	f.hmu.Unlock()
}
