package zofs

import (
	"zofs/internal/byteflow"
	"zofs/internal/nvm"
	"zofs/internal/perfmodel"
	"zofs/internal/proc"
	"zofs/internal/telemetry"
	"zofs/internal/vfs"
)

// Inode management and Ext4-style block mapping (paper §5.1: "The file
// inode contains pointers to data pages, indirect pages, and double
// indirect pages"; inodes consume a full 4KB page).

// initInode writes a fresh inode header into a (kernel-zeroed) metadata
// page. The header write is the only persistence needed: pointers are zero.
func (f *FS) initInode(th *proc.Thread, page int64, typ vfs.FileType, mode uint32, uid, gid uint32) {
	prev := th.Clk.SwapWriteClass(uint8(byteflow.ClassInode))
	defer th.Clk.SetWriteClass(prev)
	hdr := make([]byte, inoHeaderLen)
	putU32(hdr, inoMagicOff, inoMagic)
	putU32(hdr, inoTypeOff, uint32(typ))
	putU32(hdr, inoModeOff, mode)
	putU32(hdr, inoUIDOff, uid)
	putU32(hdr, inoGIDOff, gid)
	putU32(hdr, inoNlinkOff, 1)
	putU64(hdr, inoMtimeOff, uint64(th.Clk.Now()))
	putU64(hdr, inoCtimeOff, uint64(th.Clk.Now()))
	th.WriteNT(page*pageSize, hdr)
}

// writeSymlinkTarget stores a symlink's target in its inode page.
func (f *FS) writeSymlinkTarget(th *proc.Thread, page int64, target string) error {
	prev := th.Clk.SwapWriteClass(uint8(byteflow.ClassInode))
	defer th.Clk.SetWriteClass(prev)
	if len(target) > symMaxLen {
		return vfs.ErrNameTooLong
	}
	buf := th.Scratch.Buf(2 + len(target))
	buf[0] = byte(len(target))
	buf[1] = byte(len(target) >> 8)
	copy(buf[2:], target)
	th.WriteNT(page*pageSize+inoSymLenOff, buf)
	th.Fence()
	// Size mirrors the target length (as POSIX reports for symlinks).
	th.Store64(page*pageSize+inoSizeOff, uint64(len(target)))
	return nil
}

// inodeSize reads the file size (hot word: charged as a cache hit).
func (f *FS) inodeSize(th *proc.Thread, ino int64) int64 {
	return int64(th.Load64Cached(ino*pageSize + inoSizeOff))
}

// setInodeSize persists a new size and mtime (two adjacent words, one
// streaming write).
func (f *FS) setInodeSize(th *proc.Thread, ino int64, size int64) {
	prev := th.Clk.SwapWriteClass(uint8(byteflow.ClassInode))
	defer th.Clk.SetWriteClass(prev)
	var buf [16]byte
	putU64(buf[:], 0, uint64(size))
	putU64(buf[:], 8, uint64(th.Clk.Now()))
	th.WriteNT(ino*pageSize+inoSizeOff, buf[:])
}

// blockSlot resolves the block-map slot holding block idx's page pointer,
// allocating intermediate pointer pages when alloc is set. A zero slot
// with nil error means the path is unallocated (and alloc was false).
func (f *FS) blockSlot(th *proc.Thread, m *mount, ino, idx int64, alloc bool) (int64, error) {
	if idx < 0 || idx >= maxBlocks {
		return 0, vfs.ErrInvalid
	}
	switch {
	case idx < inoDirectCnt:
		return ino*pageSize + inoDirectOff + 8*idx, nil
	case idx < inoDirectCnt+ptrsPerPage:
		ind, err := f.indirectPage(th, m, ino*pageSize+inoIndirectOff, alloc)
		if err != nil || ind == 0 {
			return 0, err
		}
		return ind*pageSize + 8*(idx-inoDirectCnt), nil
	default:
		rel := idx - inoDirectCnt - ptrsPerPage
		d1, err := f.indirectPage(th, m, ino*pageSize+inoDIndirOff, alloc)
		if err != nil || d1 == 0 {
			return 0, err
		}
		d2, err := f.indirectPage(th, m, d1*pageSize+8*(rel/ptrsPerPage), alloc)
		if err != nil || d2 == 0 {
			return 0, err
		}
		return d2*pageSize + 8*(rel%ptrsPerPage), nil
	}
}

// leafSpan returns the block range [first, end) mapped by the pointer array
// that maps block idx — the inode's direct slots, the indirect page, or one
// second-level page of the double-indirect tree. Within it, consecutive
// blocks' slots are adjacent words: blockSlot(i+1) == blockSlot(i)+8.
func leafSpan(idx int64) (first, end int64) {
	switch {
	case idx < inoDirectCnt:
		return 0, inoDirectCnt
	case idx < inoDirectCnt+ptrsPerPage:
		return inoDirectCnt, inoDirectCnt + ptrsPerPage
	default:
		first = idx - (idx-inoDirectCnt-ptrsPerPage)%ptrsPerPage
		return first, first + ptrsPerPage
	}
}

// ptrView borrows the n adjacent block-map slots starting at slot, charged as
// n cache-hit loads (a thread working on one file keeps its block pointers in
// L1). The slots share a page, so the view never crosses a device chunk.
func (f *FS) ptrView(th *proc.Thread, slot, n int64) []byte {
	th.CPU((n - 1) * perfmodel.CPUSmallOp)
	return f.readViewCached(th, slot, 8*n)
}

// appendPtrs appends the non-null page pointers of a slot view to dst.
func appendPtrs(dst []int64, slots []byte) []int64 {
	for i := 0; i+8 <= len(slots); i += 8 {
		if pg := int64(u64at(slots, i)); pg != 0 {
			dst = append(dst, pg)
		}
	}
	return dst
}

// forEachRun is the one walk over a file's block map that moves data. It
// resolves the blocks under file bytes [off, off+n) a pointer array at a time
// — each indirect page is dereferenced once per array, not once per block —
// and hands fn every run (nvm.ForEachRun) of each array: the device offset of
// its first byte, or -1 for a hole, and the file range it maps. A run is built
// only from pointers read out of this inode's map, under the inode lock the
// caller holds, and fn moves its bytes through the thread's checked accessors,
// which test every page of the range against the PKRU.
//
// With alloc set, absent blocks (and pointer pages) are allocated, so fn never
// sees a hole; the part of a fresh page the range does not cover is zeroed
// first (data-class grants are not scrubbed), keeping the invariant that bytes
// of a mapped page outside anything ever written are zero. When allocation
// fails part-way the walk stops; the result is the byte count that was mapped
// and handed to fn, with the error only if that is zero.
func (f *FS) forEachRun(th *proc.Thread, m *mount, ino, off int64, n int, alloc bool, fn func(dev, from, to int64)) (int, error) {
	var (
		pages [ptrsPerPage]int64
		err   error
		end   = off + int64(n)
		pos   = off
	)
	for pos < end && err == nil {
		idx := pos / pageSize
		_, leafEnd := leafSpan(idx)
		cnt := min((end+pageSize-1)/pageSize, leafEnd) - idx
		var slot int64
		if slot, err = f.blockSlot(th, m, ino, idx, alloc); err != nil {
			break
		}
		mapped := pages[:cnt]
		if slot == 0 {
			clear(mapped)
		} else {
			ptrs := f.ptrView(th, slot, cnt)
			for i := range mapped {
				pg := int64(u64at(ptrs, 8*i))
				if pg == 0 && alloc {
					if pg, err = f.allocPage(th, m, classData); err != nil {
						mapped = mapped[:i]
						break
					}
					f.storePtr(th, slot+8*int64(i), pg)
					f.zeroUncovered(th, pg, idx+int64(i), off, end)
				}
				mapped[i] = pg
			}
		}
		if to := min(end, (idx+int64(len(mapped)))*pageSize); to > pos {
			nvm.ForEachRun(mapped, idx, pos, to, fn)
			pos = to
		}
	}
	if pos > off {
		err = nil
	}
	return int(pos - off), err
}

// storePtr persists one block-map pointer (inode-class bytes, whatever the
// caller is writing).
func (f *FS) storePtr(th *proc.Thread, slot, pg int64) {
	prev := th.Clk.SwapWriteClass(uint8(byteflow.ClassInode))
	th.Store64(slot, uint64(pg))
	th.Clk.SetWriteClass(prev)
}

// zeroUncovered zeroes what a write of file bytes [off, end) leaves unwritten
// of the fresh page pg mapped at block blk. Only the first and the last block
// of the range can be partly covered; full-page writes — the append fast path
// — pay nothing.
func (f *FS) zeroUncovered(th *proc.Thread, pg, blk, off, end int64) {
	if head := off - blk*pageSize; head > 0 {
		th.Zero(pg*pageSize, head)
	}
	if tail := (blk+1)*pageSize - end; tail > 0 {
		th.Zero(pg*pageSize+pageSize-tail, tail)
	}
}

// indirectPage dereferences (and optionally allocates) a pointer page.
// Pointer pages must arrive zeroed, so they come from the metadata class.
func (f *FS) indirectPage(th *proc.Thread, m *mount, slot int64, alloc bool) (int64, error) {
	pg := int64(th.Load64Cached(slot))
	if pg == 0 && alloc {
		var err error
		if pg, err = f.allocPage(th, m, classMeta); err != nil {
			return 0, err
		}
		f.storePtr(th, slot, pg)
	}
	return pg, nil
}

// isInline reports whether the file's data lives in the inode page.
func (f *FS) isInline(th *proc.Thread, ino int64) bool {
	return f.opts.InlineData && th.Load64Cached(ino*pageSize+inoInlineFlag) == 1
}

// readAt reads file data straight from the mapped device into the caller's
// buffer; the caller holds at least a read lock on ino.
func (f *FS) readAt(th *proc.Thread, m *mount, ino int64, p []byte, off int64) (int, error) {
	if off < 0 {
		return 0, vfs.ErrInvalid
	}
	size := f.inodeSize(th, ino)
	if off >= size {
		return 0, nil
	}
	if off+int64(len(p)) > size {
		p = p[:size-off]
	}
	if f.isInline(th, ino) {
		th.Read(ino*pageSize+inoInlineOff+off, p)
		return len(p), nil
	}
	return f.forEachRun(th, m, ino, off, len(p), false, func(dev, from, to int64) {
		if dev < 0 {
			clear(p[from-off : to-off]) // hole: reads as zeros
		} else {
			th.Read(dev, p[from-off:to-off])
		}
	})
}

// writeAt writes file data in place with non-temporal stores (§5.3: ZoFS
// does not implement atomic data updates); the caller holds the write lock
// at the given lease epoch, which fences the metadata publish: a holder
// whose lease was stolen mid-op (checkLease) gets vfs.ErrStaleLease
// instead of committing over the stealer. Newly allocated, partially
// covered pages are zeroed first (data-class grants are not scrubbed).
func (f *FS) writeAt(th *proc.Thread, m *mount, ino int64, epoch uint8, p []byte, off int64) (int, error) {
	prev := th.Clk.SwapWriteClass(uint8(byteflow.ClassData))
	defer th.Clk.SetWriteClass(prev)
	if off < 0 {
		return 0, vfs.ErrInvalid
	}
	size := f.inodeSize(th, ino)
	if f.opts.InlineData {
		inline := f.isInline(th, ino)
		if (inline || size == 0) && off+int64(len(p)) <= inlineCap {
			// The whole write fits in the inode page: one store, no
			// allocation, no block pointer.
			f.rec().Inc(telemetry.CtrZoFSInlineWrites)
			if err := f.checkLease(th, ino, epoch); err != nil {
				return 0, err
			}
			th.WriteNT(ino*pageSize+inoInlineOff+off, p)
			if !inline {
				th.Store64(ino*pageSize+inoInlineFlag, 1)
			}
			if end := off + int64(len(p)); end > size {
				f.setInodeSize(th, ino, end)
			} else {
				th.Store64(ino*pageSize+inoMtimeOff, uint64(th.Clk.Now()))
			}
			return len(p), nil
		}
		if inline {
			if err := f.deInline(th, m, ino, size); err != nil {
				return 0, err
			}
		}
	}
	f.rec().Inc(telemetry.CtrZoFSExtentWrites)
	// A write that runs out of space part-way is a short write: n is what was
	// mapped and stored, and it is committed below, so no block is left
	// beyond the size where neither truncate nor unlink would find it.
	n, err := f.forEachRun(th, m, ino, off, len(p), true, func(dev, from, to int64) {
		th.WriteNT(dev, p[from-off:to-off])
	})
	if err != nil {
		return 0, err
	}
	// Epoch fence before the commit-point publish: if the lease was stolen
	// while the data stores ran, the size/mtime must not be published —
	// the stealer owns the inode's metadata now. The data stores above may
	// have landed (ZoFS data writes are not atomic), but they are invisible
	// beyond the committed size and are the stealer's to overwrite.
	if err := f.checkLease(th, ino, epoch); err != nil {
		return 0, err
	}
	if end := off + int64(n); end > size {
		f.setInodeSize(th, ino, end)
	} else {
		th.Clk.SetWriteClass(uint8(byteflow.ClassInode))
		th.Store64(ino*pageSize+inoMtimeOff, uint64(th.Clk.Now()))
		th.Clk.SetWriteClass(uint8(byteflow.ClassData))
	}
	return n, nil
}

// deInline migrates inline content to a real data page (the file outgrew
// the inode's tail).
func (f *FS) deInline(th *proc.Thread, m *mount, ino, size int64) error {
	prev := th.Clk.SwapWriteClass(uint8(byteflow.ClassData))
	defer th.Clk.SetWriteClass(prev)
	f.rec().Inc(telemetry.CtrZoFSDeInline)
	buf := make([]byte, size)
	th.Read(ino*pageSize+inoInlineOff, buf)
	// Map block 0 whole, so the walk zeroes nothing itself: the page is
	// scrubbed here whether or not it is fresh.
	_, err := f.forEachRun(th, m, ino, 0, pageSize, true, func(dev, _, _ int64) {
		th.Zero(dev, pageSize)
		th.WriteNT(dev, buf)
	})
	if err != nil {
		return err
	}
	th.Store64(ino*pageSize+inoInlineFlag, 0)
	return nil
}

// truncateTo shrinks or extends a file; the caller holds the write lock.
// Shrinking commits the new size first, then frees the trimmed pages —
// a crash in between only leaks pages, which recovery reclaims (§5.3).
func (f *FS) truncateTo(th *proc.Thread, m *mount, ino, newSize int64) error {
	prev := th.Clk.SwapWriteClass(uint8(byteflow.ClassData))
	defer th.Clk.SetWriteClass(prev)
	if newSize < 0 {
		return vfs.ErrInvalid
	}
	size := f.inodeSize(th, ino)
	if f.isInline(th, ino) {
		if newSize > inlineCap {
			if err := f.deInline(th, m, ino, size); err != nil {
				return err
			}
			f.setInodeSize(th, ino, newSize)
			return nil
		}
		f.setInodeSize(th, ino, newSize)
		if newSize < size {
			th.Zero(ino*pageSize+inoInlineOff+newSize, inlineCap-newSize)
		}
		return nil
	}
	f.setInodeSize(th, ino, newSize)
	if newSize >= size {
		return nil
	}
	// Zero the tail of the boundary page so a later extension reads zeros,
	// not resurrected bytes (POSIX truncate semantics). A boundary past the
	// end of the block map has no page to scrub.
	firstDead := (newSize + pageSize - 1) / pageSize
	_, _ = f.forEachRun(th, m, ino, newSize, int(firstDead*pageSize-newSize), false, func(dev, from, to int64) {
		if dev >= 0 {
			th.Zero(dev, to-from)
		}
	})
	// Free the dead blocks a pointer array at a time, from the end of the
	// file down: read the array's dead slots once, clear them with one
	// streaming store, and only then hand the pages to the free list — a
	// pointer is persistently gone before its page can be granted again, as
	// when this was done slot by slot. A crash leaves size == newSize with
	// some arrays' dead slots still set; recovery drops pointers past the
	// size. Pushing in descending block order makes the recycled pages pop in
	// ascending order again, so the next file written reuses them as runs.
	// Emptied pointer pages stay in place until unlink (filePages).
	var dead [ptrsPerPage]int64
	for hi := min((size+pageSize-1)/pageSize, maxBlocks); hi > firstDead; {
		first, _ := leafSpan(hi - 1)
		lo := max(first, firstDead)
		slot, err := f.blockSlot(th, m, ino, lo, false)
		if err != nil {
			return err
		}
		if slot != 0 {
			if pages := appendPtrs(dead[:0], f.readView(th, slot, 8*(hi-lo))); len(pages) > 0 {
				th.Clk.SetWriteClass(uint8(byteflow.ClassInode))
				th.Zero(slot, 8*(hi-lo))
				th.Clk.SetWriteClass(uint8(byteflow.ClassData))
				for i := len(pages) - 1; i >= 0; i-- {
					f.freePage(th, m, classData, pages[i])
				}
			}
		}
		hi = lo
	}
	return nil
}

// filePages appends to pages every page reachable from a regular file inode
// (data + indirect pages), excluding the inode page itself, in ascending
// block order (a pointer page precedes the blocks it maps). The inode's
// pointer area is read once, as one view ending at the double-indirect word
// and starting at the first direct slot the size covers — for an empty file
// that is the two indirect words alone. Those are read whatever the size:
// truncation leaves indirect pages in place until unlink.
func (f *FS) filePages(th *proc.Thread, ino int64, pages []int64) []int64 {
	size := f.inodeSize(th, ino)
	direct := min((size+pageSize-1)/pageSize, inoDirectCnt)
	from := int64(inoIndirectOff)
	if direct > 0 {
		from = inoDirectOff
	}
	ptrs := f.readView(th, ino*pageSize+from, inoDIndirOff+8-from)
	pages = appendPtrs(pages, ptrs[:8*direct])
	// leaf appends a pointer page and every page its slots name.
	leaf := func(pg int64) {
		if pg != 0 {
			pages = appendPtrs(append(pages, pg), f.readView(th, pg*pageSize, pageSize))
		}
	}
	leaf(int64(u64at(ptrs, int(inoIndirectOff-from))))
	if d1 := int64(u64at(ptrs, int(inoDIndirOff-from))); d1 != 0 {
		pages = append(pages, d1)
		l1 := f.readView(th, d1*pageSize, pageSize)
		for i := 0; i < pageSize; i += 8 {
			leaf(int64(u64at(l1, i)))
		}
	}
	return pages
}

// freeFileContent releases all of a regular file's pages to the caller's
// free lists (after the dentry kill has committed), last block first: the
// free list is a stack, so the pages pop in ascending block order and the
// next file written reuses them as the runs this one was laid out in. The
// list is built in the thread's scratch, which keeps what it grew to.
func (f *FS) freeFileContent(th *proc.Thread, m *mount, ino int64) {
	pages := f.filePages(th, ino, th.Scratch.Pages[:0])
	th.Scratch.Pages = pages
	for i := len(pages) - 1; i >= 0; i-- {
		f.freePage(th, m, classData, pages[i])
	}
	f.freePage(th, m, classMeta, ino)
}

// freeDirContent releases a directory's structure pages and its inode.
// The directory must be empty.
func (f *FS) freeDirContent(th *proc.Thread, m *mount, ino int64) {
	// The directory is gone and its pages may be recycled under another
	// identity; forget its lookup index.
	f.sh.dc.drop(ino)
	for _, pg := range f.dirPages(th, ino) {
		f.freePage(th, m, classMeta, pg)
	}
	f.freePage(th, m, classMeta, ino)
}

// statInode builds a FileInfo from an inode.
func (f *FS) statInode(th *proc.Thread, m *mount, ino int64) vfs.FileInfo {
	hdr := f.readInodeHeader(th, ino)
	return vfs.FileInfo{
		Type:   vfs.FileType(u32at(hdr, inoTypeOff)),
		Mode:   modeOf(hdr),
		UID:    u32at(hdr, inoUIDOff),
		GID:    u32at(hdr, inoGIDOff),
		Size:   int64(u64at(hdr, inoSizeOff)),
		Nlink:  u32at(hdr, inoNlinkOff),
		Mtime:  int64(u64at(hdr, inoMtimeOff)),
		Inode:  ino,
		Coffer: m.id,
	}
}
