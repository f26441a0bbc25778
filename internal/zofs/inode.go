package zofs

import (
	"zofs/internal/byteflow"
	"zofs/internal/perfmodel"
	"zofs/internal/proc"
	"zofs/internal/spans"
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
	buf := make([]byte, 2+len(target))
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

// blockPtr maps file block idx to its data page, optionally allocating the
// page (and any needed indirect pages) on the way.
func (f *FS) blockPtr(th *proc.Thread, m *mount, ino, idx int64, alloc bool) (int64, error) {
	prev := th.Clk.SwapWriteClass(uint8(byteflow.ClassInode))
	defer th.Clk.SetWriteClass(prev)
	slot, err := f.blockSlot(th, m, ino, idx, alloc)
	if err != nil || slot == 0 {
		return 0, err
	}
	pg := int64(th.Load64Cached(slot))
	if pg == 0 && alloc {
		newPg, err := f.allocPage(th, m, classData)
		if err != nil {
			return 0, err
		}
		th.Store64(slot, uint64(newPg))
		pg = newPg
	}
	return pg, nil
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

// blockPtrForWrite resolves (allocating if absent) the data page for block
// idx and reports whether it was freshly allocated, in one map walk.
func (f *FS) blockPtrForWrite(th *proc.Thread, m *mount, ino, idx int64) (pg int64, created bool, err error) {
	prev := th.Clk.SwapWriteClass(uint8(byteflow.ClassInode))
	defer th.Clk.SetWriteClass(prev)
	slot, err := f.blockSlot(th, m, ino, idx, true)
	if err != nil {
		return 0, false, err
	}
	pg = int64(th.Load64Cached(slot))
	if pg != 0 {
		return pg, false, nil
	}
	if pg, err = f.allocPage(th, m, classData); err != nil {
		return 0, false, err
	}
	th.Store64(slot, uint64(pg))
	return pg, true, nil
}

// indirectPage dereferences (and optionally allocates) a pointer page.
// Pointer pages must arrive zeroed, so they come from the metadata class.
func (f *FS) indirectPage(th *proc.Thread, m *mount, slot int64, alloc bool) (int64, error) {
	prev := th.Clk.SwapWriteClass(uint8(byteflow.ClassInode))
	defer th.Clk.SetWriteClass(prev)
	pg := int64(th.Load64Cached(slot))
	if pg == 0 && alloc {
		newPg, err := f.allocPage(th, m, classMeta)
		if err != nil {
			return 0, err
		}
		th.Store64(slot, uint64(newPg))
		pg = newPg
	}
	return pg, nil
}

// isInline reports whether the file's data lives in the inode page.
func (f *FS) isInline(th *proc.Thread, ino int64) bool {
	return f.opts.InlineData && th.Load64Cached(ino*pageSize+inoInlineFlag) == 1
}

// readAt reads file data; the caller holds at least a read lock on ino.
// The default configuration delivers straight from the mapped device into
// the caller's buffer; the NoZeroCopy variant stages every transfer
// through a DRAM bounce buffer and pays the extra memcpy.
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
	if f.opts.NoZeroCopy && len(p) > 0 {
		cost := perfmodel.MemcpyCost(len(p))
		th.CPU(cost)
		f.span(th).Bill(spans.CompMemcpy, cost)
	}
	if f.isInline(th, ino) {
		th.Read(ino*pageSize+inoInlineOff+off, p)
		return len(p), nil
	}
	n := 0
	for n < len(p) {
		idx := (off + int64(n)) / pageSize
		pOff := (off + int64(n)) % pageSize
		chunk := int(pageSize - pOff)
		if chunk > len(p)-n {
			chunk = len(p) - n
		}
		pg, err := f.blockPtr(th, m, ino, idx, false)
		if err != nil {
			return n, err
		}
		if pg == 0 {
			// Hole: reads as zeros.
			clear(p[n : n+chunk])
		} else {
			th.Read(pg*pageSize+pOff, p[n:n+chunk])
		}
		n += chunk
	}
	return n, nil
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
	if f.opts.NoZeroCopy && len(p) > 0 {
		// Copy-path staging of the outgoing bytes (see readAt).
		cost := perfmodel.MemcpyCost(len(p))
		th.CPU(cost)
		f.span(th).Bill(spans.CompMemcpy, cost)
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
	n := 0
	for n < len(p) {
		idx := (off + int64(n)) / pageSize
		pOff := (off + int64(n)) % pageSize
		chunk := int(pageSize - pOff)
		if chunk > len(p)-n {
			chunk = len(p) - n
		}
		pg, created, err := f.blockPtrForWrite(th, m, ino, idx)
		if err != nil {
			return n, err
		}
		if created {
			// Zero only the unwritten parts of the fresh page. The head
			// is inside the final size whenever pOff > 0; the tail must
			// be zeroed to keep the invariant that bytes beyond a page's
			// written extent are zero (a later write below them would
			// expose stale content). Full-page writes — the append
			// fast path — pay nothing.
			if pOff > 0 {
				th.Zero(pg*pageSize, pOff)
			}
			if wEnd := pOff + int64(chunk); wEnd < pageSize {
				th.Zero(pg*pageSize+wEnd, pageSize-wEnd)
			}
		}
		th.WriteNT(pg*pageSize+pOff, p[n:n+chunk])
		n += chunk
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
	pg, err := f.blockPtr(th, m, ino, 0, true)
	if err != nil {
		return err
	}
	th.Zero(pg*pageSize, pageSize)
	th.WriteNT(pg*pageSize, buf)
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
	// not resurrected bytes (POSIX truncate semantics).
	if tail := newSize % pageSize; tail != 0 {
		if pg, err := f.blockPtr(th, m, ino, newSize/pageSize, false); err == nil && pg != 0 {
			th.Zero(pg*pageSize+tail, pageSize-tail)
		}
	}
	firstDead := (newSize + pageSize - 1) / pageSize
	lastIdx := (size + pageSize - 1) / pageSize
	for idx := firstDead; idx < lastIdx; idx++ {
		pg, err := f.blockPtr(th, m, ino, idx, false)
		if err != nil {
			return err
		}
		if pg != 0 {
			f.clearBlockPtr(th, ino, idx)
			f.freePage(th, m, classData, pg)
		}
	}
	return nil
}

// clearBlockPtr zeroes the pointer slot for a block (direct and indirect
// levels; empty indirect pages are left in place and reclaimed by fsck).
func (f *FS) clearBlockPtr(th *proc.Thread, ino, idx int64) {
	prev := th.Clk.SwapWriteClass(uint8(byteflow.ClassInode))
	defer th.Clk.SetWriteClass(prev)
	switch {
	case idx < inoDirectCnt:
		th.Store64(ino*pageSize+inoDirectOff+8*idx, 0)
	case idx < inoDirectCnt+ptrsPerPage:
		ind := int64(th.Load64(ino*pageSize + inoIndirectOff))
		if ind != 0 {
			th.Store64(ind*pageSize+8*(idx-inoDirectCnt), 0)
		}
	default:
		rel := idx - inoDirectCnt - ptrsPerPage
		d1 := int64(th.Load64(ino*pageSize + inoDIndirOff))
		if d1 == 0 {
			return
		}
		d2 := int64(th.Load64(d1*pageSize + 8*(rel/ptrsPerPage)))
		if d2 != 0 {
			th.Store64(d2*pageSize+8*(rel%ptrsPerPage), 0)
		}
	}
}

// filePages collects every page reachable from a regular file inode
// (data + indirect pages), excluding the inode page itself. The inode's
// pointer area is read once, as one view ending at the double-indirect word
// and starting at the first direct slot the size covers — for an empty file
// that is the two indirect words alone. Those are read whatever the size:
// truncation leaves indirect pages in place until unlink.
func (f *FS) filePages(th *proc.Thread, ino int64) []int64 {
	var pages []int64
	size := f.inodeSize(th, ino)
	direct := min((size+pageSize-1)/pageSize, inoDirectCnt)
	from := int64(inoIndirectOff)
	if direct > 0 {
		from = inoDirectOff
	}
	ptrs := f.readView(th, ino*pageSize+from, inoDIndirOff+8-from)
	for i := int64(0); i < direct; i++ {
		if pg := int64(u64at(ptrs, int(i*8))); pg != 0 {
			pages = append(pages, pg)
		}
	}
	// Indirect.
	ind := int64(u64at(ptrs, int(inoIndirectOff-from)))
	if ind != 0 {
		pages = append(pages, ind)
		buf := f.readView(th, ind*pageSize, pageSize)
		for i := 0; i < ptrsPerPage; i++ {
			if pg := int64(u64at(buf, i*8)); pg != 0 {
				pages = append(pages, pg)
			}
		}
	}
	// Double indirect.
	d1 := int64(u64at(ptrs, int(inoDIndirOff-from)))
	if d1 != 0 {
		pages = append(pages, d1)
		l1 := f.readView(th, d1*pageSize, pageSize)
		for i := 0; i < ptrsPerPage; i++ {
			d2 := int64(u64at(l1, i*8))
			if d2 == 0 {
				continue
			}
			pages = append(pages, d2)
			l2 := f.readView(th, d2*pageSize, pageSize)
			for j := 0; j < ptrsPerPage; j++ {
				if pg := int64(u64at(l2, j*8)); pg != 0 {
					pages = append(pages, pg)
				}
			}
		}
	}
	return pages
}

// freeFileContent releases all of a regular file's pages to the caller's
// free lists (after the dentry kill has committed).
func (f *FS) freeFileContent(th *proc.Thread, m *mount, ino int64) {
	for _, pg := range f.filePages(th, ino) {
		f.freePage(th, m, classData, pg)
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
