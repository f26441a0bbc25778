package logfs

import (
	"strings"

	"zofs/internal/coffer"
	"zofs/internal/proc"
	"zofs/internal/vfs"
)

// vfs.FileSystem implementation. Every mutation appends records; reads go
// through the volatile index to data pages. Files keep their own mode/owner
// in the record (LogFS does not split coffers on permission change — it is
// the "flat hierarchy" µFS alternative sketched in §5).

// blocksFor returns the block-slice length for a size.
func blocksFor(size int64) int { return int((size + pageSize - 1) / pageSize) }

// Create makes (or truncates) a regular file.
func (f *FS) Create(th *proc.Thread, path string, mode coffer.Mode) (vfs.Handle, error) {
	lc, key, rel, err := f.resolve(th, path, true)
	if err != nil {
		return nil, err
	}
	if rel == "" {
		return nil, vfs.ErrIsDir
	}
	lc.mu.Lock()
	defer lc.mu.Unlock()
	cl := openWindow(th, key, true)
	defer cl.close()
	if err := lc.checkParent(rel); err != nil {
		return nil, err
	}
	m := created(th, vfs.TypeRegular, mode)
	if old, ok := lc.index[rel]; ok {
		if old.typ == vfs.TypeDir {
			return nil, vfs.ErrIsDir
		}
		// Truncate in place: a new record with no blocks, same mode and owner.
		m.mode, m.uid, m.gid = old.mode, old.uid, old.gid
	}
	if err := f.commitMeta(th, lc, rel, m); err != nil {
		return nil, err
	}
	return &handle{fs: f, lc: lc, key: key, rel: rel, flags: vfs.O_RDWR}, nil
}

// created is the meta of a new file, owned by the creating process's
// identity as ZoFS's inodes are.
func created(th *proc.Thread, typ vfs.FileType, mode coffer.Mode) *meta {
	return &meta{typ: typ, mode: mode, uid: th.Proc.UID(), gid: th.Proc.GID(), mtime: th.Clk.Now()}
}

// commitMeta appends a record and updates the index. Caller holds lc.mu and
// the window.
func (f *FS) commitMeta(th *proc.Thread, lc *logCoffer, rel string, m *meta) error {
	if err := f.appendRecord(th, lc, encodeRecord(rel, m, false)); err != nil {
		return err
	}
	if old, ok := lc.index[rel]; ok {
		lc.liveData -= int64(len(old.blocks))
		f.releaseBlocks(lc, old.blocks, m.blocks)
	}
	lc.index[rel] = m
	lc.liveData += int64(len(m.blocks))
	return nil
}

// releaseBlocks returns pages dropped by a superseding record to the free
// pool (log-structured: safe because the new record is already committed).
func (f *FS) releaseBlocks(lc *logCoffer, old, kept []int64) {
	still := map[int64]bool{}
	for _, b := range kept {
		if b != 0 {
			still[b] = true
		}
	}
	for _, b := range old {
		if b != 0 && !still[b] {
			lc.freeData = append(lc.freeData, b)
		}
	}
}

// commitDead appends a tombstone.
func (f *FS) commitDead(th *proc.Thread, lc *logCoffer, rel string) error {
	if err := f.appendRecord(th, lc, encodeRecord(rel, nil, true)); err != nil {
		return err
	}
	if old, ok := lc.index[rel]; ok {
		lc.liveData -= int64(len(old.blocks))
		f.releaseBlocks(lc, old.blocks, nil)
		delete(lc.index, rel)
	}
	return nil
}

// Open opens an existing file.
func (f *FS) Open(th *proc.Thread, path string, flags int) (vfs.Handle, error) {
	lc, key, rel, err := f.resolve(th, path, flags&vfs.O_ACCESS != vfs.O_RDONLY || flags&(vfs.O_CREATE|vfs.O_TRUNC) != 0)
	if err != nil {
		return nil, err
	}
	lc.mu.Lock()
	m, ok := lc.index[rel]
	if !ok && rel != "" {
		if se := lc.linkInPrefix(rel); se != nil {
			lc.mu.Unlock()
			return nil, se
		}
		lc.mu.Unlock()
		if flags&vfs.O_CREATE != 0 {
			return f.Create(th, path, 0o644)
		}
		return nil, vfs.ErrNotExist
	}
	lc.mu.Unlock()
	if rel == "" || m.typ == vfs.TypeDir {
		if flags&vfs.O_ACCESS != vfs.O_RDONLY {
			return nil, vfs.ErrIsDir
		}
		return &handle{fs: f, lc: lc, key: key, rel: rel, flags: flags}, nil
	}
	if m.typ == vfs.TypeSymlink {
		return nil, &vfs.SymlinkError{Path: expand(lc.path, rel, m.target)}
	}
	if flags&vfs.O_CREATE != 0 && flags&vfs.O_EXCL != 0 {
		return nil, vfs.ErrExist
	}
	if flags&vfs.O_TRUNC != 0 {
		lc.mu.Lock()
		cl := openWindow(th, key, true)
		nm := &meta{typ: vfs.TypeRegular, mode: m.mode, uid: m.uid, gid: m.gid, mtime: th.Clk.Now()}
		err := f.commitMeta(th, lc, rel, nm)
		cl.close()
		lc.mu.Unlock()
		if err != nil {
			return nil, err
		}
	}
	return &handle{fs: f, lc: lc, key: key, rel: rel, flags: flags}, nil
}

// expand resolves a symlink target against its location.
func expand(cofferPath, rel, target string) string {
	if strings.HasPrefix(target, "/") {
		return vfs.Clean(target)
	}
	dir := parentOf(rel)
	base := cofferPath
	if dir != "" {
		base = vfs.Join(cofferPath, dir)
	}
	return vfs.Clean(base + "/" + target)
}

// Mkdir creates a directory record.
func (f *FS) Mkdir(th *proc.Thread, path string, mode coffer.Mode) error {
	lc, key, rel, err := f.resolve(th, path, true)
	if err != nil {
		return err
	}
	if rel == "" {
		return vfs.ErrExist
	}
	lc.mu.Lock()
	defer lc.mu.Unlock()
	cl := openWindow(th, key, true)
	defer cl.close()
	if err := lc.checkParent(rel); err != nil {
		return err
	}
	if _, ok := lc.index[rel]; ok {
		return vfs.ErrExist
	}
	return f.commitMeta(th, lc, rel, created(th, vfs.TypeDir, mode))
}

// Unlink removes a file or symlink.
func (f *FS) Unlink(th *proc.Thread, path string) error {
	lc, key, rel, err := f.resolve(th, path, true)
	if err != nil {
		return err
	}
	lc.mu.Lock()
	defer lc.mu.Unlock()
	m, ok := lc.index[rel]
	if !ok || rel == "" {
		if rel == "" {
			return vfs.ErrIsDir
		}
		return vfs.ErrNotExist
	}
	if m.typ == vfs.TypeDir {
		return vfs.ErrIsDir
	}
	cl := openWindow(th, key, true)
	defer cl.close()
	if err := f.commitDead(th, lc, rel); err != nil {
		return err
	}
	f.maybeCompact(th, lc)
	return nil
}

// Rmdir removes an empty directory.
func (f *FS) Rmdir(th *proc.Thread, path string) error {
	lc, key, rel, err := f.resolve(th, path, true)
	if err != nil {
		return err
	}
	lc.mu.Lock()
	defer lc.mu.Unlock()
	m, ok := lc.index[rel]
	if !ok || rel == "" {
		return vfs.ErrNotExist
	}
	if m.typ != vfs.TypeDir {
		return vfs.ErrNotDir
	}
	prefix := rel + "/"
	for k := range lc.index {
		if strings.HasPrefix(k, prefix) {
			return vfs.ErrNotEmpty
		}
	}
	cl := openWindow(th, key, true)
	defer cl.close()
	return f.commitDead(th, lc, rel)
}

// Rename rewrites records under the new key (directories rename their whole
// prefix — cheap here: the namespace is the index).
func (f *FS) Rename(th *proc.Thread, oldPath, newPath string) error {
	lc, key, oldRel, err := f.resolve(th, oldPath, true)
	if err != nil {
		return err
	}
	lc2, _, newRel, err := f.resolve(th, newPath, true)
	if err != nil {
		return err
	}
	if lc2 != lc {
		return vfs.ErrCrossDevice // LogFS renames stay within one coffer
	}
	if oldRel == newRel {
		return nil
	}
	lc.mu.Lock()
	defer lc.mu.Unlock()
	m, ok := lc.index[oldRel]
	if !ok || oldRel == "" {
		return vfs.ErrNotExist
	}
	if err := lc.checkParent(newRel); err != nil {
		return err
	}
	cl := openWindow(th, key, true)
	defer cl.close()
	if dst, exists := lc.index[newRel]; exists {
		if dst.typ == vfs.TypeDir {
			return vfs.ErrExist
		}
		if err := f.commitDead(th, lc, newRel); err != nil {
			return err
		}
	}
	if m.typ == vfs.TypeDir {
		// Rewrite every descendant record under the new prefix.
		prefix := oldRel + "/"
		var moves [][2]string
		for k := range lc.index {
			if strings.HasPrefix(k, prefix) {
				moves = append(moves, [2]string{k, newRel + "/" + k[len(prefix):]})
			}
		}
		for _, mv := range moves {
			child := lc.index[mv[0]]
			if err := f.appendRecord(th, lc, encodeRecord(mv[1], child, false)); err != nil {
				return err
			}
			if err := f.appendRecord(th, lc, encodeRecord(mv[0], nil, true)); err != nil {
				return err
			}
			lc.index[mv[1]] = child
			delete(lc.index, mv[0])
		}
	}
	if err := f.appendRecord(th, lc, encodeRecord(newRel, m, false)); err != nil {
		return err
	}
	if err := f.appendRecord(th, lc, encodeRecord(oldRel, nil, true)); err != nil {
		return err
	}
	lc.index[newRel] = m
	delete(lc.index, oldRel)
	return nil
}

// Stat returns metadata; the coffer root reports the kernel's root page.
func (f *FS) Stat(th *proc.Thread, path string) (vfs.FileInfo, error) {
	lc, _, rel, err := f.resolve(th, path, false)
	if err != nil {
		return vfs.FileInfo{}, err
	}
	if rel == "" {
		rp, _ := f.kern.Info(lc.id)
		return vfs.FileInfo{Type: vfs.TypeDir, Mode: rp.Mode, UID: rp.UID, GID: rp.GID, Coffer: lc.id}, nil
	}
	lc.mu.Lock()
	m, ok := lc.index[rel]
	if !ok {
		se := lc.linkInPrefix(rel)
		lc.mu.Unlock()
		if se != nil {
			return vfs.FileInfo{}, se
		}
		return vfs.FileInfo{}, vfs.ErrNotExist
	}
	lc.mu.Unlock()
	if m.typ == vfs.TypeSymlink {
		return vfs.FileInfo{}, &vfs.SymlinkError{Path: expand(lc.path, rel, m.target)}
	}
	return vfs.FileInfo{
		Type: m.typ, Mode: m.mode, UID: m.uid, GID: m.gid,
		Size: m.size, Nlink: 1, Mtime: m.mtime, Coffer: lc.id,
	}, nil
}

// Chmod rewrites the record with new permission bits (no coffer split:
// LogFS keeps per-file modes inside one coffer).
func (f *FS) Chmod(th *proc.Thread, path string, mode coffer.Mode) error {
	return f.setAttr(th, path, func(m *meta) { m.mode = mode })
}

// Chown rewrites ownership.
func (f *FS) Chown(th *proc.Thread, path string, uid, gid uint32) error {
	return f.setAttr(th, path, func(m *meta) { m.uid, m.gid = uid, gid })
}

func (f *FS) setAttr(th *proc.Thread, path string, mut func(*meta)) error {
	lc, key, rel, err := f.resolve(th, path, true)
	if err != nil {
		return err
	}
	lc.mu.Lock()
	defer lc.mu.Unlock()
	m, ok := lc.index[rel]
	if !ok {
		if rel == "" {
			return vfs.ErrPerm // coffer root is kernel-managed
		}
		return vfs.ErrNotExist
	}
	nm := *m
	mut(&nm)
	cl := openWindow(th, key, true)
	defer cl.close()
	return f.commitMeta(th, lc, rel, &nm)
}

// Symlink creates a link record.
func (f *FS) Symlink(th *proc.Thread, target, link string) error {
	lc, key, rel, err := f.resolve(th, link, true)
	if err != nil {
		return err
	}
	lc.mu.Lock()
	defer lc.mu.Unlock()
	cl := openWindow(th, key, true)
	defer cl.close()
	if err := lc.checkParent(rel); err != nil {
		return err
	}
	if _, ok := lc.index[rel]; ok {
		return vfs.ErrExist
	}
	m := created(th, vfs.TypeSymlink, 0o777)
	m.target, m.size = target, int64(len(target))
	return f.commitMeta(th, lc, rel, m)
}

// Readlink reads a link target.
func (f *FS) Readlink(th *proc.Thread, path string) (string, error) {
	lc, _, rel, err := f.resolve(th, path, false)
	if err != nil {
		return "", err
	}
	lc.mu.Lock()
	defer lc.mu.Unlock()
	m, ok := lc.index[rel]
	if !ok {
		return "", vfs.ErrNotExist
	}
	if m.typ != vfs.TypeSymlink {
		return "", vfs.ErrInvalid
	}
	return m.target, nil
}

// ReadDir lists the immediate children of a directory (index prefix scan —
// the flat namespace in action).
func (f *FS) ReadDir(th *proc.Thread, path string) ([]vfs.DirEntry, error) {
	lc, _, rel, err := f.resolve(th, path, false)
	if err != nil {
		return nil, err
	}
	lc.mu.Lock()
	defer lc.mu.Unlock()
	if rel != "" {
		m, ok := lc.index[rel]
		if !ok {
			return nil, vfs.ErrNotExist
		}
		if m.typ != vfs.TypeDir {
			return nil, vfs.ErrNotDir
		}
	}
	prefix := ""
	if rel != "" {
		prefix = rel + "/"
	}
	var out []vfs.DirEntry
	for k, m := range lc.index {
		if !strings.HasPrefix(k, prefix) {
			continue
		}
		rest := k[len(prefix):]
		if strings.ContainsRune(rest, '/') {
			continue // deeper descendant
		}
		out = append(out, vfs.DirEntry{Name: rest, Type: m.typ, Coffer: lc.id})
	}
	return out, nil
}

// Truncate resizes a file via a superseding record.
func (f *FS) Truncate(th *proc.Thread, path string, size int64) error {
	lc, key, rel, err := f.resolve(th, path, true)
	if err != nil {
		return err
	}
	lc.mu.Lock()
	defer lc.mu.Unlock()
	m, ok := lc.index[rel]
	if !ok {
		return vfs.ErrNotExist
	}
	if m.typ != vfs.TypeRegular {
		return vfs.ErrIsDir
	}
	nm := *m
	nm.size = size
	nb := blocksFor(size)
	nm.blocks = make([]int64, nb)
	copy(nm.blocks, m.blocks)
	nm.mtime = th.Clk.Now()
	cl := openWindow(th, key, true)
	defer cl.close()
	// Zero the boundary tail so extension reads zeros (the page is about to
	// be shared between the old content and the new hole).
	if tail := size % pageSize; tail != 0 && nb <= len(m.blocks) && nb > 0 && nm.blocks[nb-1] != 0 {
		th.Zero(nm.blocks[nb-1]*pageSize+tail, pageSize-tail)
	}
	return f.commitMeta(th, lc, rel, &nm)
}
