package zofs

import (
	"zofs/internal/coffer"
	"zofs/internal/kernfs"
	"zofs/internal/proc"
	"zofs/internal/vfs"
)

// Recovery (paper §3.5, §5.3): the initiator asks KernFS to fence the
// coffer (BeginRecover), traverses the coffer from its root inode recording
// in-use pages and repairing what it can — skipping corrupted files and
// dentries, clearing stale leases, resetting the allocator pool — then
// reports the in-use set so KernFS reclaims everything else (EndRecover).
// Cross-coffer references are validated after the in-coffer pass.

// Repair is one corruption the traversal fixed, in device coordinates: Off
// is the byte address of the repaired word/record, Target the page number
// the dropped referent pointed at (0 when there was none). The fsck tool
// cross-checks these sites against the flight recorder's lost-line report.
type Repair struct {
	Off    int64
	Target int64
	Kind   string // dangling_ptr | stale_ptr | torn_dentry | dangling_dentry | split_dentry | cross_ref | root_reinit
}

// RecoverStats summarizes one coffer recovery.
type RecoverStats struct {
	ID             coffer.ID
	Path           string
	UserNS         int64 // virtual time spent in user space (traversal)
	KernelNS       int64 // virtual time spent in the kernel (fence + reclaim)
	PagesKept      int64
	PagesReclaimed int64
	LeasesCleared  int
	Repairs        []Repair // one per site the traversal repaired
}

// crossRef records a cross-coffer dentry found during traversal, for the
// post-pass validation.
type crossRef struct {
	parentPath string
	name       string
	target     coffer.ID
	inode      int64
	loc        deLoc
}

// traverse walks one coffer's interior. valid holds the pages the kernel
// says belong to the coffer; any pointer landing outside it is corruption
// and is repaired by dropping the referent.
type traversal struct {
	th      *proc.Thread
	kern    *kernfs.KernFS
	valid   map[int64]bool
	inUse   map[int64]bool
	cross   []crossRef
	repairs []Repair
	leases  int
	maxDeep int
}

func (t *traversal) repair(off, target int64, kind string) {
	t.repairs = append(t.repairs, Repair{Off: off, Target: target, Kind: kind})
}

func (t *traversal) visitInode(ino int64, path string) bool {
	if !t.valid[ino] || t.inUse[ino] {
		return false
	}
	// One streaming read of the whole inode page; pointers are validated
	// in memory and only repairs touch NVM again.
	page := make([]byte, pageSize)
	t.th.Read(ino*pageSize, page)
	if u32at(page, inoMagicOff) != inoMagic {
		return false // unrecognizable inode: skip (content is lost)
	}
	t.inUse[ino] = true
	if u64at(page, inoLeaseOff) != 0 {
		// Clear a stale lease left by a crashed holder.
		t.th.Store64(ino*pageSize+inoLeaseOff, 0)
		t.leases++
	}
	switch vfs.FileType(u32at(page, inoTypeOff)) {
	case vfs.TypeRegular:
		t.visitFile(ino, page, int64(u64at(page, inoSizeOff)))
	case vfs.TypeDir:
		t.visitDir(ino, page, path)
	case vfs.TypeSymlink:
		// The target lives inside the inode page.
	default:
		// Unknown type: keep the inode page, nothing else to chase.
	}
	return true
}

// ptrIn validates a pointer found at offset off within an already-read
// page image, returning the target page or 0 (clearing dangling pointers
// on NVM).
func (t *traversal) ptrIn(page []byte, base int64, off int) int64 {
	pg := int64(u64at(page, off))
	if pg == 0 {
		return 0
	}
	if !t.valid[pg] {
		// Dangling pointer out of the coffer: clear it.
		t.th.Store64(base+int64(off), 0)
		t.repair(base+int64(off), pg, "dangling_ptr")
		return 0
	}
	return pg
}

// stalePtr clears a block pointer published past the crash-time file size:
// the write that allocated it was interrupted before its size commit, so
// the block is invisible and its page is about to be reclaimed. Left in
// place, a future in-place write through the pointer would alias whatever
// the kernel re-grants the page as.
func (t *traversal) stalePtr(page []byte, base int64, off int) {
	pg := int64(u64at(page, off))
	if pg == 0 {
		return
	}
	t.th.Store64(base+int64(off), 0)
	t.repair(base+int64(off), pg, "stale_ptr")
}

// visitFile keeps a regular file's blocks below its size and clears the
// block pointers past it. Pointer pages are kept wherever they lie: a
// truncation leaves emptied ones in place until unlink (filePages), so one
// past EOF is not stale — only the data slots inside it are.
func (t *traversal) visitFile(ino int64, page []byte, size int64) {
	blocks := (size + pageSize - 1) / pageSize
	// block checks the pointer at off in buf, which maps block idx.
	block := func(buf []byte, base int64, off int, idx int64) {
		if idx >= blocks {
			t.stalePtr(buf, base, off)
		} else if pg := t.ptrIn(buf, base, off); pg != 0 {
			t.inUse[pg] = true
		}
	}
	for idx := int64(0); idx < inoDirectCnt; idx++ {
		block(page, ino*pageSize, int(inoDirectOff+8*idx), idx)
	}
	// leaf keeps the pointer page named at off in buf and checks its slots,
	// which map blocks first onward.
	lbuf := make([]byte, pageSize)
	leaf := func(buf []byte, base int64, off int, first int64) {
		pg := t.ptrIn(buf, base, off)
		if pg == 0 {
			return
		}
		t.inUse[pg] = true
		t.th.Read(pg*pageSize, lbuf)
		for i := int64(0); i < ptrsPerPage; i++ {
			block(lbuf, pg*pageSize, int(8*i), first+i)
		}
	}
	leaf(page, ino*pageSize, inoIndirectOff, inoDirectCnt)
	if d1 := t.ptrIn(page, ino*pageSize, inoDIndirOff); d1 != 0 {
		t.inUse[d1] = true
		d1buf := make([]byte, pageSize)
		t.th.Read(d1*pageSize, d1buf)
		for i := int64(0); i < ptrsPerPage; i++ {
			leaf(d1buf, d1*pageSize, int(8*i), inoDirectCnt+(1+i)*ptrsPerPage)
		}
	}
}

func (t *traversal) visitDir(ino int64, page []byte, path string) {
	l1 := t.ptrIn(page, ino*pageSize, inoDirL1Off)
	if l1 == 0 {
		return
	}
	t.inUse[l1] = true
	l1buf := make([]byte, pageSize)
	t.th.Read(l1*pageSize, l1buf)
	for i := 0; i < dirL1Slots; i++ {
		l2 := t.ptrIn(l1buf, l1*pageSize, i*8)
		if l2 == 0 {
			continue
		}
		t.inUse[l2] = true
		l2buf := make([]byte, pageSize)
		t.th.Read(l2*pageSize, l2buf)
		t.visitDentries(l2, l2buf[:l2BucketOff], 0, path)
		for b := 0; b < l2Buckets; b++ {
			pg := t.ptrIn(l2buf, l2*pageSize, l2BucketOff+b*8)
			seen := map[int64]bool{}
			for pg != 0 && !seen[pg] {
				seen[pg] = true
				t.inUse[pg] = true
				chain := make([]byte, pageSize)
				t.th.Read(pg*pageSize, chain)
				t.visitDentries(pg, chain[chainFirstDe:], chainFirstDe, path)
				pg = t.ptrIn(chain, pg*pageSize, chainNextOff)
			}
		}
	}
}

func (t *traversal) visitDentries(page int64, buf []byte, base int64, path string) {
	scanDentries(buf, base, func(d dentry, off int64) bool {
		loc := deLoc{page: page, off: off}
		if d.name == "" || checkHash(nameHash(d.name)) != d.hash {
			// Torn or corrupted dentry: drop it.
			t.th.Store64(loc.addr(), dentryCommit(deStateFree, 0, 0, 0))
			t.repair(loc.addr(), d.inode, "torn_dentry")
			return true
		}
		child := joinPath(path, d.name)
		if d.cofferID != 0 {
			t.cross = append(t.cross, crossRef{
				parentPath: path, name: d.name,
				target: coffer.ID(d.cofferID), inode: d.inode, loc: loc,
			})
			return true
		}
		if !t.visitInode(d.inode, child) && !t.inUse[d.inode] {
			if id, ok := t.kern.LookupPath(nil, child); ok {
				if rp, _ := t.kern.Info(id); rp.RootInode == d.inode {
					// A chmod split cut between its publish and this
					// dentry's update: the child is that coffer's root now.
					var b [4]byte
					putU32(b[:], 0, uint32(id))
					t.th.WriteNT(loc.addr()+deCofferOff, b[:])
					t.th.Fence()
					t.repair(loc.addr(), d.inode, "split_dentry")
					return true
				}
			}
			// The child inode is gone: the dentry dangles.
			t.th.Store64(loc.addr(), dentryCommit(deStateFree, 0, 0, 0))
			t.repair(loc.addr(), d.inode, "dangling_dentry")
		}
		return true
	})
}

func joinPath(dir, name string) string {
	if dir == "/" {
		return "/" + name
	}
	return dir + "/" + name
}

// resetPool clears every allocator slot so post-recovery allocation starts
// fresh (the free-list pages themselves are reclaimed by the kernel).
func resetPool(th *proc.Thread, custom int64) {
	if th.Load64(custom*pageSize+customMagicOff) != customMagic {
		return
	}
	for idx := int64(0); idx < poolSlots; idx++ {
		off := custom*pageSize + poolOff + idx*slotSize
		th.Store64(off+slotTIDOff, 0)
		th.Store64(off+slotLeaseOff, 0)
		th.Store64(off+slotHeadOff, 0)
		th.Store64(off+slotCountOff, 0)
	}
}

// RecoverCoffer runs the online recovery protocol of §3.5 for one coffer,
// with this process as the initiator.
func (f *FS) RecoverCoffer(th *proc.Thread, id coffer.ID) (RecoverStats, error) {
	var st RecoverStats
	if _, err := f.ensureMapped(th, id, true); err != nil {
		return st, err
	}
	kernStart := th.Clk.Now()
	exts, err := f.kern.BeginRecover(th, id, 10*leaseDuration)
	if err != nil {
		return st, errno(err)
	}
	st.KernelNS += th.Clk.Now() - kernStart

	rp, _ := f.kern.Info(id)
	st.ID, st.Path = id, rp.Path
	m, err := f.ensureMapped(th, id, true)
	if err != nil {
		return st, err
	}
	cl := f.window(th, m, true)

	userStart := th.Clk.Now()
	valid := map[int64]bool{}
	for _, e := range exts {
		for pg := e.Start; pg < e.End(); pg++ {
			valid[pg] = true
		}
	}
	t := &traversal{th: th, kern: f.kern, valid: valid, inUse: map[int64]bool{}}
	t.inUse[m.custom] = true
	resetPool(th, m.custom)
	// Drop every thread's slot handle (its NVM slot was just cleared) and
	// batch cache (its pages are being reclaimed by the kernel).
	m.slots.Range(func(k, _ any) bool {
		m.slots.Delete(k)
		return true
	})
	// Repair stores rewrite dentries outside the directory-cache hooks, and
	// the reclaim may recycle directory pages: invalidate every index.
	f.sh.dc.bump()
	rootOK := t.visitInode(m.root, rp.Path)
	t.inUse[m.root] = true // keep the root inode page even if unrecognizable
	if !rootOK {
		// The root file inode itself was destroyed: its content is lost,
		// but the coffer must stay usable — re-initialize it as an empty
		// directory with the coffer's permission.
		f.initInode(th, m.root, vfs.TypeDir, uint32(rp.Mode), rp.UID, rp.GID)
		t.repair(m.root*pageSize, m.root, "root_reinit")
	}

	// Validate cross-coffer references (G3 batch pass).
	for _, cr := range t.cross {
		info, ok := f.kern.Info(cr.target)
		if !ok || info.Path != joinPath(cr.parentPath, cr.name) || info.RootInode != cr.inode {
			t.th.Store64(cr.loc.addr(), dentryCommit(deStateFree, 0, 0, 0))
			t.repair(cr.loc.addr(), cr.inode, "cross_ref")
		}
	}
	cl.close()
	st.UserNS = th.Clk.Now() - userStart
	st.LeasesCleared = t.leases
	st.Repairs = t.repairs

	inUse := make([]int64, 0, len(t.inUse))
	for pg := range t.inUse {
		inUse = append(inUse, pg)
	}
	kernStart = th.Clk.Now()
	if err := f.kern.EndRecover(th, id, inUse); err != nil {
		return st, errno(err)
	}
	st.KernelNS += th.Clk.Now() - kernStart
	st.PagesKept = int64(len(t.inUse)) + 1 // + root page
	st.PagesReclaimed = int64(len(valid)) - st.PagesKept
	return st, nil
}

// QuarantineIfDamaged runs coffer recovery and, when the damage proved
// unrepairable — the coffer's root inode itself was destroyed and had to be
// re-initialized empty (root_reinit) — quarantines the coffer offline
// instead of serving an empty husk where data used to be. Every other
// coffer keeps serving: the caller observes vfs.ErrOfflineCoffer on the
// victim and normal service elsewhere (DESIGN.md §13). Returns whether the
// coffer was quarantined.
func (f *FS) QuarantineIfDamaged(th *proc.Thread, id coffer.ID) (RecoverStats, bool, error) {
	st, err := f.RecoverCoffer(th, id)
	if err != nil {
		return st, false, err
	}
	unrepairable := false
	for _, r := range st.Repairs {
		if r.Kind == "root_reinit" {
			unrepairable = true
			break
		}
	}
	if !unrepairable {
		return st, false, nil
	}
	if err := f.kern.QuarantineCoffer(th, id, true); err != nil {
		return st, false, errno(err)
	}
	// The kernel just unmapped the coffer from this process too: drop the
	// stale volatile mount so the next op re-maps and sees the typed error.
	f.mu.Lock()
	delete(f.mounts, id)
	f.mu.Unlock()
	return st, true, nil
}
