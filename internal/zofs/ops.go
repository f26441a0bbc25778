package zofs

import (
	"fmt"
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

// createInCoffer gives directory pos a child of its own coffer under name: it
// takes an inode page, initialises it (a symlink's target included) and
// inserts the dentry, and on any failure after the allocation hands the page
// back. The caller holds the name's bucket lock, has found the name absent
// and has checked its length, so no page is taken for a name that cannot be
// inserted.
func (f *FS) createInCoffer(th *proc.Thread, pos walkPos, name string, typ vfs.FileType, mode coffer.Mode, target string) (int64, error) {
	ino, err := f.allocPage(th, pos.m, classMeta)
	if err != nil {
		return 0, err
	}
	f.initInode(th, ino, typ, uint32(mode), th.Proc.UID(), th.Proc.GID())
	if typ == vfs.TypeSymlink {
		err = f.writeSymlinkTarget(th, ino, target)
	}
	if err == nil {
		err = f.dirInsert(th, pos.m, pos.ino, name, uint8(typ), 0, ino)
	}
	if err != nil {
		f.freePage(th, pos.m, classMeta, ino)
		return 0, err
	}
	return ino, nil
}

// Create makes (or truncates) a regular file. A file whose permission
// differs from its parent coffer's becomes the root file of a fresh coffer,
// referenced by a cross-coffer dentry (§3.1).
func (f *FS) Create(th *proc.Thread, path string, mode coffer.Mode) (vfs.Handle, error) {
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
		// Exists: truncate (creat semantics).
		return f.openExisting(th, pos, de, vfs.O_RDWR|vfs.O_TRUNC, path)
	}

	rp, _ := f.kern.Info(pos.m.id)
	uid, gid := th.Proc.UID(), th.Proc.GID()
	if f.sameCofferPerm(rp, mode, uid, gid) {
		ino, err := f.createInCoffer(th, pos, base, vfs.TypeRegular, mode, "")
		if err != nil {
			return nil, err
		}
		return f.newHandle(pos.m, ino, path, vfs.O_RDWR), nil
	}

	// Different permission: the file gets its own coffer.
	newID, err := f.kern.CofferNew(th, pos.m.id, path, coffer.TypeZoFS, mode, uid, gid, 3)
	if err != nil {
		return nil, errno(err)
	}
	// coffer_new already published the path in the kernel registry. Until
	// the root inode is initialized and the dentry is in place, any exit —
	// error return or MPK fault unwinding through here — must delete the
	// coffer again, or the path resolves forever to an uninitialized root.
	published := false
	defer func() {
		if !published {
			f.kern.CofferDelete(th, newID)
			f.sh.dc.bump() // deleted coffer's pages may be re-granted
		}
	}()
	nm, err := f.ensureMapped(th, newID, true)
	if err != nil {
		return nil, err
	}
	f.window(th, nm, true)
	f.initInode(th, nm.root, vfs.TypeRegular, uint32(mode), uid, gid)
	// Back to the parent coffer to publish the cross-coffer dentry.
	f.window(th, pos.m, true)
	if err := f.dirInsert(th, pos.m, pos.ino, base, uint8(vfs.TypeRegular), uint32(newID), nm.root); err != nil {
		return nil, err
	}
	published = true
	return f.newHandle(nm, nm.root, path, vfs.O_RDWR), nil
}

// openExisting opens a file found in a directory under the parent's lock.
func (f *FS) openExisting(th *proc.Thread, pos walkPos, de dentry, flags int, path string) (vfs.Handle, error) {
	m := pos.m
	ino := de.inode
	if de.cofferID != 0 {
		target := coffer.ID(de.cofferID)
		info, ok := f.kern.Info(target)
		if !ok || info.RootInode != de.inode {
			return nil, fmt.Errorf("%w: cross-coffer dentry %q names coffer %d (known=%v root %d, dentry inode %d)",
				vfs.ErrCorrupted, path, target, ok, info.RootInode, de.inode)
		}
		nm, err := f.ensureMapped(th, target, flags&vfs.O_ACCESS != vfs.O_RDONLY)
		if err != nil {
			return nil, err
		}
		m, ino = nm, nm.root
	}
	cl := f.window(th, m, true)
	hdr := f.readInodeHeader(th, ino)
	typ := vfs.FileType(u32at(hdr, inoTypeOff))
	if typ == vfs.TypeDir && flags&vfs.O_ACCESS != vfs.O_RDONLY {
		cl.close()
		return nil, vfs.ErrIsDir
	}
	if flags&vfs.O_TRUNC != 0 && typ == vfs.TypeRegular {
		ep, lerr := f.lockInode(th, m, ino)
		if lerr != nil {
			cl.close()
			return nil, lerr
		}
		err := f.truncateTo(th, m, ino, 0)
		f.unlockInode(th, m, ino, ep)
		if err != nil {
			cl.close()
			return nil, err
		}
	}
	cl.close()
	return f.newHandle(m, ino, path, flags), nil
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
	if pos.typ == vfs.TypeDir && write {
		return nil, vfs.ErrIsDir
	}
	if flags&vfs.O_TRUNC != 0 && pos.typ == vfs.TypeRegular {
		ep, lerr := f.lockInode(th, pos.m, pos.ino)
		if lerr != nil {
			return nil, lerr
		}
		err := f.truncateTo(th, pos.m, pos.ino, 0)
		f.unlockInode(th, pos.m, pos.ino, ep)
		if err != nil {
			return nil, err
		}
	}
	return f.newHandle(pos.m, pos.ino, path, flags), nil
}

// Mkdir creates a directory, in-coffer when the permission matches the
// parent coffer, otherwise as a new coffer.
func (f *FS) Mkdir(th *proc.Thread, path string, mode coffer.Mode) error {
	dir, base := vfs.SplitPath(path)
	if base == "" {
		return vfs.ErrExist
	}
	if len(base) > MaxNameLen {
		return vfs.ErrNameTooLong
	}
	pos, err := f.walk(th, dir, true, true)
	if err != nil {
		return err
	}
	defer pos.close()
	if pos.typ != vfs.TypeDir {
		return vfs.ErrNotDir
	}
	bk := f.lockDirBucket(th, pos.ino, base)
	defer f.unlockDirBucket(th, bk)
	if _, _, err := f.dirLookup(th, pos.ino, base); err == nil {
		return vfs.ErrExist
	}
	rp, _ := f.kern.Info(pos.m.id)
	uid, gid := th.Proc.UID(), th.Proc.GID()
	if f.sameCofferPerm(rp, mode, uid, gid) {
		_, err := f.createInCoffer(th, pos, base, vfs.TypeDir, mode, "")
		return err
	}
	newID, err := f.kern.CofferNew(th, pos.m.id, path, coffer.TypeZoFS, mode, uid, gid, 3)
	if err != nil {
		return errno(err)
	}
	// Same unwind discipline as Create: the registry entry must not outlive
	// a failed or faulted init.
	published := false
	defer func() {
		if !published {
			f.kern.CofferDelete(th, newID)
			f.sh.dc.bump() // deleted coffer's pages may be re-granted
		}
	}()
	nm, err := f.ensureMapped(th, newID, true)
	if err != nil {
		return err
	}
	f.window(th, nm, true)
	f.initInode(th, nm.root, vfs.TypeDir, uint32(mode), uid, gid)
	f.window(th, pos.m, true)
	if err := f.dirInsert(th, pos.m, pos.ino, base, uint8(vfs.TypeDir), uint32(newID), nm.root); err != nil {
		return err
	}
	published = true
	return nil
}

// Unlink removes a file or symlink: the dentry kill is the atomic commit;
// the content is freed afterwards (a crash in between leaks pages that
// recovery reclaims — §5.3).
func (f *FS) Unlink(th *proc.Thread, path string) error {
	dir, base := vfs.SplitPath(path)
	if base == "" {
		return vfs.ErrIsDir
	}
	pos, err := f.walk(th, dir, true, true)
	if err != nil {
		return err
	}
	defer pos.close()
	if pos.typ != vfs.TypeDir {
		return vfs.ErrNotDir
	}
	bk := f.lockDirBucket(th, pos.ino, base)
	de, loc, err := f.dirLookup(th, pos.ino, base)
	if err != nil {
		f.unlockDirBucket(th, bk)
		return err
	}
	if vfs.FileType(de.typ) == vfs.TypeDir {
		f.unlockDirBucket(th, bk)
		return vfs.ErrIsDir
	}
	if de.cofferID != 0 {
		// The file is a coffer root: killing the coffer frees everything.
		// Delete before unpublishing the name — a failed kernel call must
		// not strand a live coffer behind a missing dentry.
		target := coffer.ID(de.cofferID)
		f.forgetMount(target)
		if err := errno(f.kern.CofferDelete(th, target)); err != nil {
			f.unlockDirBucket(th, bk)
			return err
		}
		f.dirRemove(th, pos.ino, base, loc)
		f.unlockDirBucket(th, bk)
		f.sh.dc.bump() // deleted coffer's pages may be re-granted
		return nil
	}
	f.dirRemove(th, pos.ino, base, loc)
	// The dentry kill committed; content is freed outside the bucket lock
	// so concurrent mutations in the directory proceed. If any process
	// still holds the file open, reclamation waits for the last close.
	f.unlockDirBucket(th, bk)
	if f.sh.orphan(de.inode, de.typ) {
		return nil
	}
	if vfs.FileType(de.typ) == vfs.TypeRegular {
		f.freeFileContent(th, pos.m, de.inode)
	} else {
		f.freePage(th, pos.m, classMeta, de.inode)
	}
	return nil
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

// Rmdir removes an empty directory.
func (f *FS) Rmdir(th *proc.Thread, path string) error {
	dir, base := vfs.SplitPath(path)
	if base == "" {
		return vfs.ErrInvalid // cannot remove "/"
	}
	pos, err := f.walk(th, dir, true, true)
	if err != nil {
		return err
	}
	defer pos.close()
	if pos.typ != vfs.TypeDir {
		return vfs.ErrNotDir
	}
	bk := f.lockDirBucket(th, pos.ino, base)
	de, loc, err := f.dirLookup(th, pos.ino, base)
	if err != nil {
		f.unlockDirBucket(th, bk)
		return err
	}
	if vfs.FileType(de.typ) != vfs.TypeDir {
		f.unlockDirBucket(th, bk)
		return vfs.ErrNotDir
	}
	if de.cofferID != 0 {
		target := coffer.ID(de.cofferID)
		nm, err := f.ensureMapped(th, target, false)
		if err != nil {
			f.unlockDirBucket(th, bk)
			return err
		}
		f.window(th, nm, false)
		empty := f.dirEmpty(th, nm.root)
		f.window(th, pos.m, true)
		if !empty {
			f.unlockDirBucket(th, bk)
			return vfs.ErrNotEmpty
		}
		f.forgetMount(target)
		if err := errno(f.kern.CofferDelete(th, target)); err != nil {
			f.unlockDirBucket(th, bk)
			return err
		}
		f.dirRemove(th, pos.ino, base, loc)
		f.unlockDirBucket(th, bk)
		f.sh.dc.drop(nm.root)
		f.sh.dc.bump() // deleted coffer's pages may be re-granted
		return nil
	}
	if !f.dirEmpty(th, de.inode) {
		f.unlockDirBucket(th, bk)
		return vfs.ErrNotEmpty
	}
	f.dirRemove(th, pos.ino, base, loc)
	f.unlockDirBucket(th, bk)
	f.freeDirContent(th, pos.m, de.inode)
	return nil
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
	f.dirList(th, pos.ino, math.MaxInt, nil, func(ents []cachedDe) {
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
	return *buf, nil
}

// Symlink creates a symbolic link (always in-coffer; links carry their
// parent coffer's permission).
func (f *FS) Symlink(th *proc.Thread, target, link string) error {
	dir, base := vfs.SplitPath(link)
	if base == "" {
		return vfs.ErrExist
	}
	if len(base) > MaxNameLen {
		return vfs.ErrNameTooLong
	}
	pos, err := f.walk(th, dir, true, true)
	if err != nil {
		return err
	}
	defer pos.close()
	if pos.typ != vfs.TypeDir {
		return vfs.ErrNotDir
	}
	bk := f.lockDirBucket(th, pos.ino, base)
	defer f.unlockDirBucket(th, bk)
	if _, _, err := f.dirLookup(th, pos.ino, base); err == nil {
		return vfs.ErrExist
	}
	_, err = f.createInCoffer(th, pos, base, vfs.TypeSymlink, 0o777, target)
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
	ep, lerr := f.lockInode(th, pos.m, pos.ino)
	if lerr != nil {
		return lerr
	}
	defer f.unlockInode(th, pos.m, pos.ino, ep)
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
	if vfs.FileType(typ) == vfs.TypeRegular {
		h.fs.freeFileContent(th, m, h.ino)
	} else {
		h.fs.freePage(th, m, classMeta, h.ino)
	}
	return nil
}

// recycle puts a closed handle on the free list.
func (f *FS) recycle(h *file) {
	f.hmu.Lock()
	h.next, f.hfree = f.hfree, h
	f.hmu.Unlock()
}
