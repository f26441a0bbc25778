package zofs

import (
	"fmt"

	"zofs/internal/byteflow"
	"zofs/internal/perfmodel"
	"zofs/internal/proc"
	"zofs/internal/vfs"
)

// Directory implementation: adaptive two-level hash tables (paper §5.1).
// The directory inode points to a first-level page of 512 pointers; each
// second-level page holds 16 inline dentries (first half) and 256 hash
// buckets (second half), each bucket heading a chain of dentry pages. New
// dentries prefer the inline area; pages are allocated on demand.

// dentry is the decoded view of an on-NVM directory entry.
type dentry struct {
	state    uint8
	typ      uint8 // vfs.FileType
	hash     uint32
	cofferID uint32
	inode    int64
	name     string
}

// visible reports whether lookups and listings may see the dentry: live
// with a decodable name. A torn commit word decodes to a nameless dentry.
func (d dentry) visible() bool { return d.state == deStateLive && d.name != "" }

// deLoc locates a dentry on NVM.
type deLoc struct {
	page int64 // page number
	off  int64 // byte offset within the page
}

func (l deLoc) addr() int64 { return l.page*pageSize + l.off }

// decodeDentry parses a 128-byte dentry image.
func decodeDentry(b []byte) dentry {
	state, nameLen, typ, hash := unpackCommit(u64at(b, deCommitOff))
	d := dentry{state: state, typ: typ, hash: hash}
	if state == deStateLive && nameLen > 0 && nameLen <= MaxNameLen {
		d.cofferID = u32at(b, deCofferOff)
		d.inode = int64(u64at(b, deInodeOff))
		d.name = string(b[deNameOff : deNameOff+nameLen])
	}
	return d
}

// scanDentries scans a buffer of consecutive dentries, calling fn for each
// live entry; fn returns false to stop. Returns the stop offset or -1.
func scanDentries(buf []byte, baseOff int64, fn func(d dentry, off int64) bool) bool {
	for o := int64(0); o+dentrySize <= int64(len(buf)); o += dentrySize {
		d := decodeDentry(buf[o : o+dentrySize])
		if d.state != deStateLive {
			continue
		}
		if !fn(d, baseOff+o) {
			return false
		}
	}
	return true
}

// dirL1Of reads the directory's first-level page pointer (hot word).
func dirL1Of(th *proc.Thread, dirIno int64) int64 {
	return int64(th.Load64Cached(dirIno*pageSize + inoDirL1Off))
}

// dirL1 returns the directory's first-level page, installing a fresh one
// with a CAS: mutations in different buckets race here (bucket locks do not
// serialize this install).
func (f *FS) dirL1(th *proc.Thread, m *mount, dirIno int64) (int64, error) {
	if l1 := dirL1Of(th, dirIno); l1 != 0 {
		return l1, nil
	}
	pg, err := f.allocPage(th, m, classMeta)
	if err != nil {
		return 0, err
	}
	if th.CAS64(dirIno*pageSize+inoDirL1Off, 0, uint64(pg)) {
		return pg, nil
	}
	f.freePage(th, m, classMeta, pg)
	return dirL1Of(th, dirIno), nil
}

// dirLookup finds a name in a directory. Caller holds at least a read lock.
// A hit costs one hash probe of the directory index plus the cache-charged
// dcacheTrusted check; the on-NVM walk runs only to (re)build the index.
func (f *FS) dirLookup(th *proc.Thread, dirIno int64, name string) (dentry, deLoc, error) {
	th.CPU(perfmodel.CPUHashLookup)
	idx := f.sh.dir(dirIno)
	idx.mu.Lock()
	defer idx.mu.Unlock()
	if err := f.dcacheFresh(th, idx, dirIno); err != nil {
		return dentry{}, deLoc{}, err
	}
	c := idx.get(name)
	if c != nil && !f.dcacheTrusted(th, c) {
		if err := f.dcacheRebuild(th, idx, dirIno); err != nil {
			return dentry{}, deLoc{}, err
		}
		c = idx.get(name)
	}
	if c == nil {
		// Negative answer from completeness: the index holds every live
		// dentry, so absence is authoritative.
		return dentry{}, deLoc{}, vfs.ErrNotExist
	}
	return c.de, c.loc, nil
}

// writeDentry writes a dentry body then atomically publishes its commit
// word (§5.3's ordered update). The body is composed directly in the device
// image through a write view: a dentry lies inside one page, so the view
// cannot fail (see readView).
func (f *FS) writeDentry(th *proc.Thread, loc deLoc, name string, typ uint8, cofferID uint32, inode int64) {
	prev := th.Clk.SwapWriteClass(uint8(byteflow.ClassDentry))
	defer th.Clk.SetWriteClass(prev)
	buf, commit, _ := th.WriteView(loc.addr()+8, dentrySize-8)
	clear(buf)
	putU32(buf, deCofferOff-8, cofferID)
	putU64(buf, deInodeOff-8, uint64(inode))
	copy(buf[deNameOff-8:], name)
	commit.Done()
	th.Fence()
	th.Store64(loc.addr(), dentryCommit(deStateLive, len(name), typ, checkHash(nameHash(name))))
}

// dirInsert adds a dentry. Caller holds the bucket write lock and has
// verified the name does not exist. The insert runs under the index mutex
// and applies its delta, keeping the index exact; free dentry slots come off
// the cached free lists instead of rescanning pages.
func (f *FS) dirInsert(th *proc.Thread, m *mount, dirIno int64, name string, typ uint8, cofferID uint32, inode int64) error {
	prev := th.Clk.SwapWriteClass(uint8(byteflow.ClassDentry))
	defer th.Clk.SetWriteClass(prev)
	if len(name) > MaxNameLen {
		return vfs.ErrNameTooLong
	}
	idx := f.sh.dir(dirIno)
	idx.mu.Lock()
	defer idx.mu.Unlock()
	if idx.authoritative(f.sh.dc.epoch.Load()) {
		return f.dirInsertCached(th, m, idx, dirIno, name, typ, cofferID, inode)
	}
	// Non-authoritative index (never built, or invalidated by a crash epoch
	// or a distrusted entry): mutate via the scan path and leave the index
	// reset; the next lookup rebuilds it.
	idx.reset()
	return f.dirInsertScan(th, m, dirIno, name, typ, cofferID, inode)
}

// dirInsertCached inserts through an authoritative index. Caller holds
// idx.mu and the bucket lock.
func (f *FS) dirInsertCached(th *proc.Thread, m *mount, idx *dirIndex, dirIno int64, name string, typ uint8, cofferID uint32, inode int64) error {
	h := nameHash(name)
	th.CPU(perfmodel.CPUHashLookup)
	commit := func(loc deLoc, bkt int64) {
		f.writeDentry(th, loc, name, typ, cofferID, inode)
		idx.put(cachedDe{
			de:  dentry{state: deStateLive, typ: typ, hash: checkHash(h), cofferID: cofferID, inode: inode, name: name},
			loc: loc,
			bkt: bkt,
		})
	}
	// Inline area first (§5.1), then this bucket's chain slots — both from
	// the cached free lists, with no on-NVM structure walk at all.
	i, b := l1Index(h), l2Bucket(h)
	ik, ck := inlineKey(i), chainKey(i, b)
	for _, k := range [...]int64{ik, ck} {
		if loc, ok := idx.pop(k); ok {
			th.CPU(perfmodel.CPUSmallOp)
			commit(loc, k)
			return nil
		}
	}
	// Both free lists dry: the structure must grow. The L1/L2 pointer
	// lines of a cache-served directory are hot.
	l1, err := f.dirL1(th, m, dirIno)
	if err != nil {
		return err
	}
	l1Slot := l1*pageSize + 8*i
	l2 := int64(th.Load64Cached(l1Slot))
	if l2 == 0 {
		pg, err := f.allocPage(th, m, classMeta)
		if err != nil {
			return err
		}
		th.Store64(l1Slot, uint64(pg))
		l2 = pg
		// A fresh (zeroed) second-level page: the first inline slot takes
		// this dentry, the rest go on the free list.
		commit(deLoc{page: l2, off: 0}, ik)
		for o := int64(dentrySize); o+dentrySize <= l2BucketOff; o += dentrySize {
			idx.push(ik, deLoc{page: l2, off: o})
		}
		return nil
	}
	// Inline area and this bucket's chains are full: fresh chain page at
	// the head, remaining slots registered free.
	bucketAddr := l2*pageSize + l2BucketOff + 8*b
	head := int64(th.Load64(bucketAddr))
	pg, err := f.allocPage(th, m, classMeta)
	if err != nil {
		return err
	}
	th.Store64(pg*pageSize+chainNextOff, uint64(head))
	commit(deLoc{page: pg, off: chainFirstDe}, ck)
	th.Store64(bucketAddr, uint64(pg))
	for o := int64(chainFirstDe + dentrySize); o+dentrySize <= pageSize; o += dentrySize {
		idx.push(ck, deLoc{page: pg, off: o})
	}
	return nil
}

// dirInsertScan inserts without an index: linear free-slot scan of the
// on-NVM structure, allocating L1/L2/chain pages on demand. It is what
// dirInsert falls back to while the directory's index is not authoritative.
func (f *FS) dirInsertScan(th *proc.Thread, m *mount, dirIno int64, name string, typ uint8, cofferID uint32, inode int64) error {
	h := nameHash(name)
	th.CPU(perfmodel.CPUHashLookup)
	l1, err := f.dirL1(th, m, dirIno)
	if err != nil {
		return err
	}
	l1Slot := l1*pageSize + 8*l1Index(h)
	l2 := int64(th.Load64(l1Slot))
	if l2 == 0 {
		pg, err := f.allocPage(th, m, classMeta)
		if err != nil {
			return err
		}
		th.Store64(l1Slot, uint64(pg))
		l2 = pg
	}
	// Try the inline area first (§5.1: "ZoFS tries to put new dentries in
	// the second-level page first"). Hot directories keep this page in the
	// CPU cache, but the free-slot scan still burns CPU.
	inline := f.readViewCached(th, l2*pageSize, l2BucketOff)
	th.CPU(perfmodel.CPUDentryScan * (l2BucketOff / dentrySize))
	for o := int64(0); o < l2BucketOff; o += dentrySize {
		if state, _, _, _ := unpackCommit(u64at(inline, int(o))); state != deStateLive {
			f.writeDentry(th, deLoc{page: l2, off: o}, name, typ, cofferID, inode)
			return nil
		}
	}
	// Walk the bucket chain for a free slot.
	bucketAddr := l2*pageSize + l2BucketOff + 8*l2Bucket(h)
	head := int64(th.Load64(bucketAddr))
	var loop chainLoop
	for pg := head; pg != 0; {
		if loop.closes(pg) {
			return errChainLoop
		}
		page := f.readView(th, pg*pageSize, pageSize)
		th.CPU(perfmodel.CPUDentryScan * ((pageSize - chainFirstDe) / dentrySize))
		next := int64(u64at(page, chainNextOff))
		for o := int64(chainFirstDe); o+dentrySize <= pageSize; o += dentrySize {
			if state, _, _, _ := unpackCommit(u64at(page, int(o))); state != deStateLive {
				f.writeDentry(th, deLoc{page: pg, off: o}, name, typ, cofferID, inode)
				return nil
			}
		}
		pg = next
	}
	// Allocate a fresh chain page at the head: fill it, then publish the
	// bucket pointer atomically.
	pg, err := f.allocPage(th, m, classMeta)
	if err != nil {
		return err
	}
	th.Store64(pg*pageSize+chainNextOff, uint64(head))
	f.writeDentry(th, deLoc{page: pg, off: chainFirstDe}, name, typ, cofferID, inode)
	th.Store64(bucketAddr, uint64(pg))
	return nil
}

// dirRemove kills a dentry with a single atomic commit-word store. The store
// runs under the index mutex and the slot returns to its free list, so the
// index stays complete.
func (f *FS) dirRemove(th *proc.Thread, dirIno int64, name string, loc deLoc) {
	prev := th.Clk.SwapWriteClass(uint8(byteflow.ClassDentry))
	defer th.Clk.SetWriteClass(prev)
	idx := f.sh.dir(dirIno)
	idx.mu.Lock()
	th.Store64(loc.addr(), dentryCommit(deStateFree, 0, 0, 0))
	if idx.authoritative(f.sh.dc.epoch.Load()) {
		if c := idx.get(name); c != nil && c.loc == loc {
			idx.push(c.bkt, loc)
			idx.del(name)
		} else {
			idx.reset()
		}
	}
	idx.mu.Unlock()
}

// dirUpdateCoffer rewrites a dentry's cross-coffer reference in place:
// the coffer-ID field is written, then the inode pointer is re-stored to
// refresh readers (same name). The cached entry absorbs the same delta.
func (f *FS) dirUpdateCoffer(th *proc.Thread, dirIno int64, name string, loc deLoc, cofferID uint32, inode int64) {
	prev := th.Clk.SwapWriteClass(uint8(byteflow.ClassDentry))
	defer th.Clk.SetWriteClass(prev)
	idx := f.sh.dir(dirIno)
	idx.mu.Lock()
	var b [4]byte
	putU32(b[:], 0, cofferID)
	th.WriteNT(loc.addr()+deCofferOff, b[:])
	th.Store64(loc.addr()+deInodeOff, uint64(inode))
	th.Fence()
	if idx.authoritative(f.sh.dc.epoch.Load()) {
		if c := idx.get(name); c != nil && c.loc == loc {
			c.de.cofferID = cofferID
			c.de.inode = inode
		} else {
			idx.reset()
		}
	}
	idx.mu.Unlock()
}

// chainLoop is the one loop rule of every bucket-chain walk: closes is told
// each chain page in walk order and reports the walk's return to a page it
// passed before. It is Brent's cycle check: two words and a compare a page,
// so a healthy chain costs no allocation and no charge. A loop of λ pages
// entered μ pages down the chain is reported before the walk has passed
// 3(μ+λ) pages, some of them more than once; n is then λ.
type chainLoop struct {
	mark   int64
	n, lim int
}

func (c *chainLoop) closes(pg int64) bool {
	if pg == c.mark {
		return true
	}
	if c.n == c.lim {
		c.mark, c.n, c.lim = pg, 0, max(1, 2*c.lim)
	}
	c.n++
	return false
}

// closer finds the chain page whose next pointer closes the loop closes
// reported, on the chain from head: the loop's first page is where a
// pointer λ pages ahead meets one from the head, and the page λ−1 past it
// points back at it.
func (c *chainLoop) closer(head int64, next func(pg int64) int64) int64 {
	ahead := head
	for range c.n {
		ahead = next(ahead)
	}
	for head != ahead {
		head, ahead = next(head), next(ahead)
	}
	for range c.n - 1 {
		head = next(head)
	}
	return head
}

// errChainLoop is what a live walk returns at a looping bucket chain (§6.5:
// a damaged coffer yields errors, not hangs); recovery cuts the loop.
var errChainLoop = fmt.Errorf("%w: directory bucket chain loops", vfs.ErrCorrupted)

// dirWalk is the one full traversal of the two-level hash table (§5.1):
// first-level page, each second-level page's inline area, then each of its
// 256 bucket chains. It is what the index is rebuilt from (dcacheRebuild),
// how a directory's structure pages are collected, and the reference the
// index is tested against; either hook may be nil. Recovery's
// pointer-validating walk is separate on purpose.
//
// page sees every structure page (first-level, second-level, chain). slot
// sees every dentry slot, live or not, with the free-list key of its
// placement, and ends the walk by returning false; without it chain pages
// are read for their next pointer only. Every read is charged as a media
// read. A looping chain ends the walk with errChainLoop, after the hooks
// may have seen some of its pages more than once. Caller holds at least a read lock
// (or idx.mu).
func dirWalk(th *proc.Thread, dirIno int64, page func(pg int64), slot func(d dentry, loc deLoc, bkt int64) bool) error {
	if page == nil {
		page = func(int64) {}
	}
	slots := func(buf []byte, pg, from, bkt int64) bool {
		for o := from; o+dentrySize <= int64(len(buf)); o += dentrySize {
			if !slot(decodeDentry(buf[o:o+dentrySize]), deLoc{page: pg, off: o}, bkt) {
				return false
			}
		}
		return true
	}
	l1 := dirL1Of(th, dirIno)
	if l1 == 0 {
		return nil
	}
	page(l1)
	l1buf, _ := th.ReadView(l1*pageSize, pageSize)
	var next [8]byte
	for i := int64(0); i < dirL1Slots; i++ {
		l2 := int64(u64at(l1buf, int(i*8)))
		if l2 == 0 {
			continue
		}
		page(l2)
		l2buf, _ := th.ReadView(l2*pageSize, pageSize)
		if slot != nil && !slots(l2buf[:l2BucketOff], l2, 0, inlineKey(i)) {
			return nil
		}
		for b := int64(0); b < l2Buckets; b++ {
			var loop chainLoop
			for pg := int64(u64at(l2buf, int(l2BucketOff+b*8))); pg != 0; {
				if loop.closes(pg) {
					return errChainLoop
				}
				page(pg)
				if slot == nil {
					th.Read(pg*pageSize+chainNextOff, next[:])
					pg = int64(u64at(next[:], 0))
					continue
				}
				chain, _ := th.ReadView(pg*pageSize, pageSize)
				nextPg := int64(u64at(chain, chainNextOff))
				if !slots(chain, pg, chainFirstDe, chainKey(i, b)) {
					return nil
				}
				pg = nextPg
			}
		}
	}
	return nil
}

// dirList enumerates a directory: fn receives up to limit of its visible
// dentries, once; it runs under idx.mu, so it only copies out what it needs
// and neither retains the slice nor touches a directory. page, when non-nil,
// also sees every structure page of the directory.
//
// The entries are the authoritative index's, in index order, under idx.mu:
// each one served costs a slot examination (CPUDentryScan) plus the
// dcacheTrusted check, so listing n names reads n hot cache lines instead of
// every page of the hash table. One mismatch distrusts the whole index: it
// is rebuilt and the NVM truth is served. Caller holds at least a read lock.
func (f *FS) dirList(th *proc.Thread, dirIno int64, limit int, page func(pg int64), fn func(ents []cachedDe)) error {
	if page != nil {
		if err := dirWalk(th, dirIno, page, nil); err != nil {
			return err
		}
	}
	th.CPU(perfmodel.CPUSmallOp)
	idx := f.sh.dir(dirIno)
	idx.mu.Lock()
	defer idx.mu.Unlock()
	if err := f.dcacheFresh(th, idx, dirIno); err != nil {
		return err
	}
	n := min(limit, len(idx.ents))
	for i := 0; i < n; i++ {
		th.CPU(perfmodel.CPUDentryScan)
		if !f.dcacheTrusted(th, &idx.ents[i]) {
			if err := f.dcacheRebuild(th, idx, dirIno); err != nil {
				return err
			}
			n = min(limit, len(idx.ents))
			break
		}
	}
	fn(idx.ents[:n])
	return nil
}

// dirEmpty returns ErrNotEmpty unless a directory has no live entries.
func (f *FS) dirEmpty(th *proc.Thread, dirIno int64) error {
	empty := false
	if err := f.dirList(th, dirIno, 1, nil, func(ents []cachedDe) { empty = len(ents) == 0 }); err != nil || empty {
		return err
	}
	return vfs.ErrNotEmpty
}

// dirPages collects every page used by the directory structure itself
// (L1, L2 and chain pages), for truncation/recovery accounting.
func (f *FS) dirPages(th *proc.Thread, dirIno int64) (pages []int64, err error) {
	err = dirWalk(th, dirIno, func(pg int64) { pages = append(pages, pg) }, nil)
	return pages, err
}
