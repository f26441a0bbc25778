package baselines

import (
	"zofs/internal/byteflow"
	"zofs/internal/coffer"
	"zofs/internal/nvm"
	"zofs/internal/perfmodel"
	"zofs/internal/proc"
	"zofs/internal/vfs"
)

var _ vfs.FileSystem = (*Engine)(nil)

// permCheck applies the Unix permission check a kernel FS performs on each
// open/namespace operation.
func permCheck(th *proc.Thread, ino *Inode, write bool) error {
	if !coffer.Access(ino.Mode, ino.UID, ino.GID, th.Proc.UID(), th.Proc.GID(), write) {
		return vfs.ErrPerm
	}
	return nil
}

// Create makes (or truncates) a regular file.
func (e *Engine) Create(th *proc.Thread, path string, mode coffer.Mode) (vfs.Handle, error) {
	e.enter(th, false)
	parent, base, err := e.lookupParent(th, path)
	if err != nil {
		return nil, err
	}
	if err := permCheck(th, parent, true); err != nil {
		return nil, err
	}
	e.access(th, parent, true)
	parent.Lock.Lock(th.Clk)
	defer parent.Lock.Unlock(th.Clk)
	if v, exists := parent.children.Load(base); exists {
		ino := v.(*Inode)
		if ino.Typ == vfs.TypeDir {
			return nil, vfs.ErrIsDir
		}
		e.access(th, ino, true)
		ino.Lock.Lock(th.Clk)
		e.truncateLocked(th, ino, 0)
		ino.Lock.Unlock(th.Clk)
		e.cfg.MetaCommit(e, th, 1)
		return e.open(ino, vfs.O_RDWR), nil
	}
	ino := e.newInode(vfs.TypeRegular, mode, th.Proc.UID(), th.Proc.GID())
	ino.inoPage = e.AllocPage(th) // inode-table block, through the allocator
	parent.children.Store(base, ino)
	// Durable create: dentry + inode (two objects).
	e.cfg.MetaCommit(e, th, 2)
	e.access(th, ino, true)
	return e.open(ino, vfs.O_RDWR), nil
}

// Open opens an existing file.
func (e *Engine) Open(th *proc.Thread, path string, flags int) (vfs.Handle, error) {
	e.enter(th, flags&vfs.O_ACCESS == vfs.O_RDONLY)
	write := flags&vfs.O_ACCESS != vfs.O_RDONLY
	ino, err := e.lookup(th, path)
	if err != nil {
		if err == vfs.ErrNotExist && flags&vfs.O_CREATE != 0 {
			return e.Create(th, path, 0o644)
		}
		return nil, err
	}
	if err := followFinal(path, ino); err != nil {
		return nil, err
	}
	if flags&vfs.O_CREATE != 0 && flags&vfs.O_EXCL != 0 {
		return nil, vfs.ErrExist
	}
	if err := permCheck(th, ino, write); err != nil {
		return nil, err
	}
	if ino.Typ == vfs.TypeDir && write {
		return nil, vfs.ErrIsDir
	}
	e.access(th, ino, write)
	if flags&vfs.O_TRUNC != 0 && ino.Typ == vfs.TypeRegular {
		ino.Lock.Lock(th.Clk)
		e.truncateLocked(th, ino, 0)
		ino.Lock.Unlock(th.Clk)
		e.cfg.MetaCommit(e, th, 1)
	}
	return e.open(ino, flags), nil
}

// Mkdir creates a directory.
func (e *Engine) Mkdir(th *proc.Thread, path string, mode coffer.Mode) error {
	e.enter(th, false)
	parent, base, err := e.lookupParent(th, path)
	if err != nil {
		return err
	}
	if err := permCheck(th, parent, true); err != nil {
		return err
	}
	e.access(th, parent, true)
	parent.Lock.Lock(th.Clk)
	defer parent.Lock.Unlock(th.Clk)
	if _, exists := parent.children.Load(base); exists {
		return vfs.ErrExist
	}
	dir := e.newInode(vfs.TypeDir, mode, th.Proc.UID(), th.Proc.GID())
	dir.inoPage = e.AllocPage(th)
	parent.children.Store(base, dir)
	e.cfg.MetaCommit(e, th, 2)
	return nil
}

// Unlink removes a file or symlink.
func (e *Engine) Unlink(th *proc.Thread, path string) error {
	e.enter(th, false)
	parent, base, err := e.lookupParent(th, path)
	if err != nil {
		return err
	}
	if err := permCheck(th, parent, true); err != nil {
		return err
	}
	e.access(th, parent, true)
	parent.Lock.Lock(th.Clk)
	defer parent.Lock.Unlock(th.Clk)
	v, ok := parent.children.Load(base)
	if !ok {
		return vfs.ErrNotExist
	}
	ino := v.(*Inode)
	if ino.Typ == vfs.TypeDir {
		return vfs.ErrIsDir
	}
	e.access(th, ino, true)
	parent.children.Delete(base)
	e.cfg.MetaCommit(e, th, 2)
	e.unlinked(th, ino)
	return nil
}

// unlinked frees the data and inode pages of a file whose last name is gone
// (unlinked, or replaced by a rename): now, or at the last close when
// handles are still open on it.
func (e *Engine) unlinked(th *proc.Thread, ino *Inode) {
	ino.mu.Lock()
	ino.orphan = ino.opens > 0
	orphan := ino.orphan
	ino.mu.Unlock()
	if !orphan {
		e.freeInode(th, ino)
	}
}

func (e *Engine) freeInode(th *proc.Thread, ino *Inode) {
	e.freeBlocks(th, ino)
	if ino.inoPage != 0 {
		e.FreePage(th, ino.inoPage)
	}
}

// Rmdir removes an empty directory.
func (e *Engine) Rmdir(th *proc.Thread, path string) error {
	e.enter(th, false)
	parent, base, err := e.lookupParent(th, path)
	if err != nil {
		return err
	}
	parent.Lock.Lock(th.Clk)
	defer parent.Lock.Unlock(th.Clk)
	v, ok := parent.children.Load(base)
	if !ok {
		return vfs.ErrNotExist
	}
	ino := v.(*Inode)
	if ino.Typ != vfs.TypeDir {
		return vfs.ErrNotDir
	}
	empty := true
	ino.children.Range(func(_, _ any) bool { empty = false; return false })
	if !empty {
		return vfs.ErrNotEmpty
	}
	parent.children.Delete(base)
	e.cfg.MetaCommit(e, th, 2)
	return nil
}

// Rename moves a file or directory.
func (e *Engine) Rename(th *proc.Thread, oldPath, newPath string) error {
	e.enter(th, false)
	if oldPath == newPath {
		return nil
	}
	sp, sb, err := e.lookupParent(th, oldPath)
	if err != nil {
		return err
	}
	dp, db, err := e.lookupParent(th, newPath)
	if err != nil {
		return err
	}
	lockPair(th, sp, dp)
	defer unlockPair(th, sp, dp)
	v, ok := sp.children.Load(sb)
	if !ok {
		return vfs.ErrNotExist
	}
	ino := v.(*Inode)
	if old, exists := dp.children.Load(db); exists {
		oldIno := old.(*Inode)
		if oldIno.Typ == vfs.TypeDir {
			return vfs.ErrExist
		}
		e.unlinked(th, oldIno)
	}
	dp.children.Store(db, ino)
	sp.children.Delete(sb)
	// Rename journals both directories plus the inode.
	e.cfg.MetaCommit(e, th, 3)
	return nil
}

func lockPair(th *proc.Thread, a, b *Inode) {
	switch {
	case a == b:
		a.Lock.Lock(th.Clk)
	case a.ID < b.ID:
		a.Lock.Lock(th.Clk)
		b.Lock.Lock(th.Clk)
	default:
		b.Lock.Lock(th.Clk)
		a.Lock.Lock(th.Clk)
	}
}

func unlockPair(th *proc.Thread, a, b *Inode) {
	a.Lock.Unlock(th.Clk)
	if b != a {
		b.Lock.Unlock(th.Clk)
	}
}

// Stat returns file metadata.
func (e *Engine) Stat(th *proc.Thread, path string) (vfs.FileInfo, error) {
	e.enter(th, true)
	ino, err := e.lookup(th, path)
	if err != nil {
		return vfs.FileInfo{}, err
	}
	if err := followFinal(path, ino); err != nil {
		return vfs.FileInfo{}, err
	}
	e.access(th, ino, false)
	ino.mu.Lock()
	defer ino.mu.Unlock()
	return vfs.FileInfo{
		Type: ino.Typ, Mode: ino.Mode, UID: ino.UID, GID: ino.GID,
		Size: ino.size, Nlink: ino.Nlink, Mtime: ino.mtime, Inode: ino.ID,
	}, nil
}

// Chmod changes permission bits (kernel call, Table 9's NOVA row).
func (e *Engine) Chmod(th *proc.Thread, path string, mode coffer.Mode) error {
	e.enter(th, false)
	ino, err := e.lookup(th, path)
	if err != nil {
		return err
	}
	if u := th.Proc.UID(); u != 0 && u != ino.UID {
		return vfs.ErrPerm
	}
	ino.mu.Lock()
	ino.Mode = mode
	ino.mu.Unlock()
	e.cfg.MetaCommit(e, th, 1)
	return nil
}

// Chown changes ownership.
func (e *Engine) Chown(th *proc.Thread, path string, uid, gid uint32) error {
	e.enter(th, false)
	ino, err := e.lookup(th, path)
	if err != nil {
		return err
	}
	if u := th.Proc.UID(); u != 0 {
		_ = u
		return vfs.ErrPerm
	}
	ino.mu.Lock()
	ino.UID, ino.GID = uid, gid
	ino.mu.Unlock()
	e.cfg.MetaCommit(e, th, 1)
	return nil
}

// Symlink creates a symbolic link.
func (e *Engine) Symlink(th *proc.Thread, target, link string) error {
	e.enter(th, false)
	parent, base, err := e.lookupParent(th, link)
	if err != nil {
		return err
	}
	parent.Lock.Lock(th.Clk)
	defer parent.Lock.Unlock(th.Clk)
	if _, exists := parent.children.Load(base); exists {
		return vfs.ErrExist
	}
	ino := e.newInode(vfs.TypeSymlink, 0o777, th.Proc.UID(), th.Proc.GID())
	ino.inoPage = e.AllocPage(th)
	ino.target = target
	ino.size = int64(len(target))
	parent.children.Store(base, ino)
	e.cfg.MetaCommit(e, th, 2)
	return nil
}

// Readlink reads a symlink target.
func (e *Engine) Readlink(th *proc.Thread, path string) (string, error) {
	e.enter(th, true)
	ino, err := e.lookup(th, path)
	if err != nil {
		return "", err
	}
	if ino.Typ != vfs.TypeSymlink {
		return "", vfs.ErrInvalid
	}
	ino.mu.Lock()
	defer ino.mu.Unlock()
	return ino.target, nil
}

// ReadDir lists a directory.
func (e *Engine) ReadDir(th *proc.Thread, path string) ([]vfs.DirEntry, error) {
	e.enter(th, true)
	ino, err := e.lookup(th, path)
	if err != nil {
		return nil, err
	}
	if err := followFinal(path, ino); err != nil {
		return nil, err
	}
	if ino.Typ != vfs.TypeDir {
		return nil, vfs.ErrNotDir
	}
	var out []vfs.DirEntry
	ino.children.Range(func(k, v any) bool {
		c := v.(*Inode)
		th.CPU(perfmodel.CPUSmallOp)
		out = append(out, vfs.DirEntry{Name: k.(string), Type: c.Typ, Inode: c.ID})
		return true
	})
	return out, nil
}

// Truncate resizes a file.
func (e *Engine) Truncate(th *proc.Thread, path string, size int64) error {
	e.enter(th, false)
	ino, err := e.lookup(th, path)
	if err != nil {
		return err
	}
	if err := followFinal(path, ino); err != nil {
		return err
	}
	if ino.Typ != vfs.TypeRegular {
		return vfs.ErrIsDir
	}
	e.access(th, ino, true)
	ino.Lock.Lock(th.Clk)
	defer ino.Lock.Unlock(th.Clk)
	e.truncateLocked(th, ino, size)
	e.cfg.MetaCommit(e, th, 1)
	return nil
}

func (e *Engine) truncateLocked(th *proc.Thread, ino *Inode, size int64) {
	ino.mu.Lock()
	defer ino.mu.Unlock()
	e.zeroExposed(th, ino, size)
	newBlocks := (size + pageSize - 1) / pageSize
	for int64(len(ino.blocks)) > newBlocks {
		pg := ino.blocks[len(ino.blocks)-1]
		ino.blocks = ino.blocks[:len(ino.blocks)-1]
		if pg != 0 {
			e.FreePage(th, pg)
		}
	}
	ino.size = size
	ino.mtime = th.Clk.Now()
}

// zeroExposed zeroes the mapped bytes of [size, to) before the file grows to
// to: bytes past EOF are undefined — a shrink leaves the tail of its boundary
// block as it was — and the operation that makes them readable zeroes them.
// The caller holds ino.mu.
func (e *Engine) zeroExposed(th *proc.Thread, ino *Inode, to int64) {
	to = min(to, int64(len(ino.blocks))*pageSize)
	prev := th.Clk.SwapWriteClass(uint8(byteflow.ClassData))
	nvm.ForEachRun(ino.blocks, 0, ino.size, to, func(dev, from, to int64) {
		if dev >= 0 {
			e.dev.Zero(th.Clk, dev, to-from)
		}
	})
	th.Clk.SetWriteClass(prev)
}

func (e *Engine) freeBlocks(th *proc.Thread, ino *Inode) {
	ino.mu.Lock()
	defer ino.mu.Unlock()
	for _, pg := range ino.blocks {
		if pg != 0 {
			e.FreePage(th, pg)
		}
	}
	ino.blocks = nil
	ino.size = 0
}

// ---- handle -------------------------------------------------------------------

type bHandle struct {
	e     *Engine
	ino   *Inode
	flags int
}

// open returns a new handle on ino, counted until its Close.
func (e *Engine) open(ino *Inode, flags int) *bHandle {
	ino.mu.Lock()
	ino.opens++
	ino.mu.Unlock()
	return &bHandle{e: e, ino: ino, flags: flags}
}

func (h *bHandle) writable() bool { return h.flags&vfs.O_ACCESS != vfs.O_RDONLY }

// ReadAt reads under the file's read lock: a charged syscall (for kernel
// FSs) plus media reads.
func (h *bHandle) ReadAt(th *proc.Thread, p []byte, off int64) (int, error) {
	h.e.enter(th, true)
	h.e.access(th, h.ino, false)
	h.ino.Lock.RLock(th.Clk)
	defer h.ino.Lock.RUnlock(th.Clk)
	h.ino.mu.Lock()
	size := h.ino.size
	blocks := append([]int64(nil), h.ino.blocks...)
	h.ino.mu.Unlock()
	if off >= size {
		return 0, nil
	}
	if off+int64(len(p)) > size {
		p = p[:size-off]
	}
	// One media read per physically contiguous extent, as the real kernel
	// file systems copy per extent (and as ZoFS does: the same run rule).
	nvm.ForEachRun(blocks, 0, off, off+int64(len(p)), func(dev, from, to int64) {
		if dev < 0 {
			clear(p[from-off : to-off])
		} else {
			h.e.dev.Read(th.Clk, dev, p[from-off:to-off])
		}
	})
	return len(p), nil
}

// WriteAt writes under the file's write lock, through the personality's
// data-write policy, then commits the metadata (size/mtime/index).
func (h *bHandle) WriteAt(th *proc.Thread, p []byte, off int64) (int, error) {
	if !h.writable() {
		return 0, vfs.ErrBadFD
	}
	h.e.enter(th, false)
	h.e.access(th, h.ino, true)
	h.ino.Lock.Lock(th.Clk)
	defer h.ino.Lock.Unlock(th.Clk)
	wprev := th.Clk.SwapWriteClass(uint8(byteflow.ClassData))
	defer th.Clk.SetWriteClass(wprev)
	h.ino.mu.Lock()
	h.e.zeroExposed(th, h.ino, off)
	h.ino.mu.Unlock()
	n := 0
	for n < len(p) {
		idx := (off + int64(n)) / pageSize
		pOff := (off + int64(n)) % pageSize
		chunk := int(pageSize - pOff)
		if chunk > len(p)-n {
			chunk = len(p) - n
		}
		h.e.cfg.WriteBlock(h.e, th, h.ino, idx, p[n:n+chunk], pOff)
		n += chunk
	}
	h.ino.mu.Lock()
	if end := off + int64(n); end > h.ino.size {
		h.ino.size = end
	}
	h.ino.mtime = th.Clk.Now()
	h.ino.mu.Unlock()
	if h.e.cfg.PostWrite != nil {
		h.e.cfg.PostWrite(h.e, th, h.ino, n)
	}
	return n, nil
}

// Append writes at EOF under the write lock.
func (h *bHandle) Append(th *proc.Thread, p []byte) (int64, error) {
	if !h.writable() {
		return 0, vfs.ErrBadFD
	}
	h.e.enter(th, false)
	h.e.access(th, h.ino, true)
	h.ino.Lock.Lock(th.Clk)
	defer h.ino.Lock.Unlock(th.Clk)
	h.ino.mu.Lock()
	off := h.ino.size
	h.ino.mu.Unlock()
	wprev := th.Clk.SwapWriteClass(uint8(byteflow.ClassData))
	defer th.Clk.SetWriteClass(wprev)
	n := 0
	for n < len(p) {
		idx := (off + int64(n)) / pageSize
		pOff := (off + int64(n)) % pageSize
		chunk := int(pageSize - pOff)
		if chunk > len(p)-n {
			chunk = len(p) - n
		}
		h.e.cfg.WriteBlock(h.e, th, h.ino, idx, p[n:n+chunk], pOff)
		n += chunk
	}
	h.ino.mu.Lock()
	h.ino.size = off + int64(n)
	h.ino.mtime = th.Clk.Now()
	h.ino.mu.Unlock()
	if h.e.cfg.PostWrite != nil {
		h.e.cfg.PostWrite(h.e, th, h.ino, n)
	}
	return off, nil
}

// Stat returns current metadata.
func (h *bHandle) Stat(th *proc.Thread) (vfs.FileInfo, error) {
	h.e.enter(th, true)
	h.ino.mu.Lock()
	defer h.ino.mu.Unlock()
	return vfs.FileInfo{
		Type: h.ino.Typ, Mode: h.ino.Mode, UID: h.ino.UID, GID: h.ino.GID,
		Size: h.ino.size, Nlink: h.ino.Nlink, Mtime: h.ino.mtime, Inode: h.ino.ID,
	}, nil
}

// Sync flushes pending state (kernel FSs here are synchronous; Strata
// digests its log, Ext4-DAX replays its jbd2-commit + mapping writeback).
func (h *bHandle) Sync(th *proc.Thread) error {
	if h.e.cfg.Access != nil {
		h.e.cfg.Access(h.e, th, h.ino, true)
	}
	if h.e.cfg.Sync != nil {
		h.e.cfg.Sync(h.e, th, h.ino)
	}
	return nil
}

// Close releases the handle; the last close of an orphan frees its pages.
func (h *bHandle) Close(th *proc.Thread) error {
	h.ino.mu.Lock()
	h.ino.opens--
	last := h.ino.opens == 0 && h.ino.orphan
	h.ino.mu.Unlock()
	if last {
		h.e.freeInode(th, h.ino)
	}
	return nil
}

// blockFor returns (allocating if needed) the device page for a block.
func (e *Engine) blockFor(th *proc.Thread, ino *Inode, idx int64, zeroNew bool) int64 {
	ino.mu.Lock()
	for int64(len(ino.blocks)) <= idx {
		ino.blocks = append(ino.blocks, 0)
	}
	pg := ino.blocks[idx]
	ino.mu.Unlock()
	if pg != 0 {
		return pg
	}
	pg = e.AllocPage(th)
	if zeroNew {
		e.dev.Zero(th.Clk, pg*pageSize, pageSize)
	}
	ino.mu.Lock()
	// A concurrent unlink may have dropped the block list meanwhile.
	for int64(len(ino.blocks)) <= idx {
		ino.blocks = append(ino.blocks, 0)
	}
	ino.blocks[idx] = pg
	ino.mu.Unlock()
	return pg
}
