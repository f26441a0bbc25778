package logfs

import (
	"zofs/internal/coffer"
	"zofs/internal/mpk"
	"zofs/internal/nvm"
	"zofs/internal/proc"
	"zofs/internal/vfs"
)

// handle is LogFS's vfs.Handle. All writes are copy-on-write: affected
// pages are rewritten into fresh pages and a superseding inode record
// commits the change — the log-structured update discipline.
type handle struct {
	fs    *FS
	lc    *logCoffer
	key   mpk.Key // the process's key for lc's coffer
	rel   string
	flags int
}

func (h *handle) writable() bool { return h.flags&vfs.O_ACCESS != vfs.O_RDONLY }

// ReadAt serves reads from the indexed block list.
func (h *handle) ReadAt(th *proc.Thread, p []byte, off int64) (int, error) {
	h.lc.mu.Lock()
	m, ok := h.lc.index[h.rel]
	if !ok {
		h.lc.mu.Unlock()
		return 0, vfs.ErrNotExist
	}
	size := m.size
	blocks := append([]int64(nil), m.blocks...)
	h.lc.mu.Unlock()

	if off >= size {
		return 0, nil
	}
	if off+int64(len(p)) > size {
		p = p[:size-off]
	}
	cl := openWindow(th, h.key, false)
	defer cl.close()
	nvm.ForEachRun(blocks, 0, off, off+int64(len(p)), func(dev, from, to int64) {
		if dev < 0 {
			clear(p[from-off : to-off])
		} else {
			th.Read(dev, p[from-off:to-off])
		}
	})
	return len(p), nil
}

// WriteAt performs the copy-on-write update and commits a superseding
// record.
func (h *handle) WriteAt(th *proc.Thread, p []byte, off int64) (int, error) {
	if !h.writable() {
		return 0, vfs.ErrBadFD
	}
	if off < 0 {
		return 0, vfs.ErrInvalid
	}
	h.lc.mu.Lock()
	defer h.lc.mu.Unlock()
	return h.writeLocked(th, p, off)
}

// writeLocked is WriteAt's body, for callers that hold lc.mu.
func (h *handle) writeLocked(th *proc.Thread, p []byte, off int64) (int, error) {
	m, ok := h.lc.index[h.rel]
	if !ok {
		return 0, vfs.ErrNotExist
	}
	cl := openWindow(th, h.key, true)
	defer cl.close()

	nm := *m
	end := off + int64(len(p))
	if end > nm.size {
		nm.size = end
	}
	nm.blocks = make([]int64, blocksFor(nm.size))
	copy(nm.blocks, m.blocks)
	nm.mtime = th.Clk.Now()

	n := 0
	for n < len(p) {
		idx := (off + int64(n)) / pageSize
		pOff := (off + int64(n)) % pageSize
		chunk := int(pageSize - pOff)
		if chunk > len(p)-n {
			chunk = len(p) - n
		}
		fresh, err := h.fs.newPages(th, h.lc, 1)
		if err != nil {
			return n, err
		}
		pg := fresh[0]
		if chunk < pageSize {
			// Partial page: merge with the old content (or zeros).
			buf := make([]byte, pageSize)
			if old := nm.blocks[idx]; old != 0 {
				th.Read(old*pageSize, buf)
			}
			copy(buf[pOff:], p[n:n+chunk])
			th.WriteNT(pg*pageSize, buf)
		} else {
			th.WriteNT(pg*pageSize, p[n:n+chunk])
		}
		nm.blocks[idx] = pg
		n += chunk
	}
	if err := h.fs.commitMeta(th, h.lc, h.rel, &nm); err != nil {
		return n, err
	}
	h.fs.maybeCompact(th, h.lc)
	return n, nil
}

// Append writes at end of file. lc.mu is held from the size read to the
// commit, so concurrent appends to one file never land on the same offset.
func (h *handle) Append(th *proc.Thread, p []byte) (int64, error) {
	h.lc.mu.Lock()
	defer h.lc.mu.Unlock()
	m, ok := h.lc.index[h.rel]
	if !ok {
		return 0, vfs.ErrNotExist
	}
	if !h.writable() {
		return 0, vfs.ErrBadFD
	}
	off := m.size
	_, err := h.writeLocked(th, p, off)
	return off, err
}

// Stat reports the handle's metadata.
func (h *handle) Stat(th *proc.Thread) (vfs.FileInfo, error) {
	h.lc.mu.Lock()
	defer h.lc.mu.Unlock()
	if h.rel == "" {
		rp, _ := h.fs.kern.Info(h.lc.id)
		return vfs.FileInfo{Type: vfs.TypeDir, Mode: rp.Mode, Coffer: h.lc.id}, nil
	}
	m, ok := h.lc.index[h.rel]
	if !ok {
		return vfs.FileInfo{}, vfs.ErrNotExist
	}
	return vfs.FileInfo{
		Type: m.typ, Mode: m.mode, UID: m.uid, GID: m.gid,
		Size: m.size, Nlink: 1, Mtime: m.mtime, Coffer: h.lc.id,
	}, nil
}

// Sync is a no-op: every commit is already durable (tail-pointer commit).
func (h *handle) Sync(*proc.Thread) error { return nil }

// Close releases the handle.
func (h *handle) Close(*proc.Thread) error { return nil }

// ---- the log cleaner ---------------------------------------------------------

// maybeCompact runs the cleaner when the coffer holds several times the
// live data. Caller holds lc.mu and a write window.
func (f *FS) maybeCompact(th *proc.Thread, lc *logCoffer) {
	live := lc.liveData + int64(len(lc.segs))
	if lc.total < 4*enlargeBatch || lc.total < compactThreshold*(live+1) {
		return
	}
	f.compactLocked(th, lc)
}

// Compact forces a cleaning pass (exported for tests and tools).
func (f *FS) Compact(th *proc.Thread, id coffer.ID) error {
	lc, key, err := f.attach(th, id, true)
	if err != nil {
		return err
	}
	lc.mu.Lock()
	defer lc.mu.Unlock()
	cl := openWindow(th, key, true)
	defer cl.close()
	f.compactLocked(th, lc)
	return nil
}

// compactLocked rewrites all live records into fresh segments and returns
// every page outside the new live set to the kernel (coffer_shrink) — the
// log-structured cleaner, expressed in Treasury's coffer protocol.
func (f *FS) compactLocked(th *proc.Thread, lc *logCoffer) {
	oldSegs := lc.segs
	if f.startLog(th, lc) != nil {
		return // no space to clean into; leave the log as is
	}
	for rel, m := range lc.index {
		if err := f.appendRecord(th, lc, encodeRecord(rel, m, false)); err != nil {
			return
		}
	}
	// Publish the new log head last (atomic switch).
	th.Store64(lc.custom*pageSize+lsSegHead, uint64(lc.segs[0]))

	// Everything not live any more goes back to the kernel.
	keep := map[int64]bool{}
	for _, s := range lc.segs {
		keep[s] = true
	}
	for _, m := range lc.index {
		for _, b := range m.blocks {
			if b != 0 {
				keep[b] = true
			}
		}
	}
	var give []coffer.Extent
	for _, s := range oldSegs {
		if !keep[s] {
			give = append(give, coffer.Extent{Start: s, Count: 1})
		}
	}
	for _, b := range lc.freeData {
		if !keep[b] {
			give = append(give, coffer.Extent{Start: b, Count: 1})
		}
	}
	lc.freeData = nil
	if len(give) > 0 {
		if err := f.kern.CofferShrink(th, lc.id, give); err == nil {
			lc.total -= int64(len(give))
		}
	}
}
