package zofs

import (
	"fmt"

	"zofs/internal/coffer"
	"zofs/internal/kernfs"
	"zofs/internal/nvm"
	"zofs/internal/proc"
	"zofs/internal/simclock"
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
	Kind   string // dangling_ptr | stale_ptr | torn_dentry | dangling_dentry | cross_ref | root_reinit
}

// RecoverStats summarizes one coffer recovery.
type RecoverStats struct {
	UserNS         int64 // virtual time spent in user space (traversal)
	KernelNS       int64 // virtual time spent in the kernel (fence + reclaim)
	PagesKept      int64
	PagesReclaimed int64
	DentriesFixed  int // corrupted or dangling dentries dropped
	LeasesCleared  int
	Repairs        []Repair
}

// recReader abstracts charged access for the traversal so the same code
// runs online (through a thread and its MPK window) and offline (directly
// against the device from the fsck tool).
type recReader interface {
	read(off int64, buf []byte)
	load64(off int64) uint64
	store64(off int64, v uint64)
}

type threadReader struct{ th *proc.Thread }

func (r threadReader) read(off int64, buf []byte)  { r.th.Read(off, buf) }
func (r threadReader) load64(off int64) uint64     { return r.th.Load64(off) }
func (r threadReader) store64(off int64, v uint64) { r.th.Store64(off, v) }

type devReader struct {
	dev *nvm.Device
	clk *simclock.Clock
}

func (r devReader) read(off int64, buf []byte)  { r.dev.Read(r.clk, off, buf) }
func (r devReader) load64(off int64) uint64     { return r.dev.Load64(r.clk, off) }
func (r devReader) store64(off int64, v uint64) { r.dev.Store64(r.clk, off, v) }

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
	r       recReader
	valid   map[int64]bool
	inUse   map[int64]bool
	cross   []crossRef
	fixed   int
	repairs []Repair
	leases  int
	maxDeep int
}

func (t *traversal) repair(off, target int64, kind string) {
	t.fixed++
	t.repairs = append(t.repairs, Repair{Off: off, Target: target, Kind: kind})
}

func (t *traversal) visitInode(ino int64, path string) bool {
	if !t.valid[ino] || t.inUse[ino] {
		return false
	}
	// One streaming read of the whole inode page; pointers are validated
	// in memory and only repairs touch NVM again.
	page := make([]byte, pageSize)
	t.r.read(ino*pageSize, page)
	if u32at(page, inoMagicOff) != inoMagic {
		return false // unrecognizable inode: skip (content is lost)
	}
	t.inUse[ino] = true
	if u64at(page, inoLeaseOff) != 0 {
		// Clear a stale lease left by a crashed holder.
		t.r.store64(ino*pageSize+inoLeaseOff, 0)
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
		t.r.store64(base+int64(off), 0)
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
	t.r.store64(base+int64(off), 0)
	t.repair(base+int64(off), pg, "stale_ptr")
}

func (t *traversal) visitFile(ino int64, page []byte, size int64) {
	blocks := (size + pageSize - 1) / pageSize
	for idx := int64(0); idx < inoDirectCnt; idx++ {
		if idx >= blocks {
			t.stalePtr(page, ino*pageSize, int(inoDirectOff+8*idx))
		} else if pg := t.ptrIn(page, ino*pageSize, int(inoDirectOff+8*idx)); pg != 0 {
			t.inUse[pg] = true
		}
	}
	if blocks <= inoDirectCnt {
		t.stalePtr(page, ino*pageSize, inoIndirectOff)
	} else if ind := t.ptrIn(page, ino*pageSize, inoIndirectOff); ind != 0 {
		t.inUse[ind] = true
		ibuf := make([]byte, pageSize)
		t.r.read(ind*pageSize, ibuf)
		for i := int64(0); i < ptrsPerPage; i++ {
			if inoDirectCnt+i >= blocks {
				t.stalePtr(ibuf, ind*pageSize, int(8*i))
			} else if pg := t.ptrIn(ibuf, ind*pageSize, int(8*i)); pg != 0 {
				t.inUse[pg] = true
			}
		}
	}
	if blocks <= inoDirectCnt+ptrsPerPage {
		t.stalePtr(page, ino*pageSize, inoDIndirOff)
	} else if d1 := t.ptrIn(page, ino*pageSize, inoDIndirOff); d1 != 0 {
		t.inUse[d1] = true
		d1buf := make([]byte, pageSize)
		t.r.read(d1*pageSize, d1buf)
		d2buf := make([]byte, pageSize)
		for i := int64(0); i < ptrsPerPage; i++ {
			base := inoDirectCnt + ptrsPerPage + i*ptrsPerPage
			if base >= blocks {
				t.stalePtr(d1buf, d1*pageSize, int(8*i))
				continue
			}
			d2 := t.ptrIn(d1buf, d1*pageSize, int(8*i))
			if d2 == 0 {
				continue
			}
			t.inUse[d2] = true
			t.r.read(d2*pageSize, d2buf)
			for j := int64(0); j < ptrsPerPage; j++ {
				if base+j >= blocks {
					t.stalePtr(d2buf, d2*pageSize, int(8*j))
				} else if pg := t.ptrIn(d2buf, d2*pageSize, int(8*j)); pg != 0 {
					t.inUse[pg] = true
				}
			}
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
	t.r.read(l1*pageSize, l1buf)
	for i := 0; i < dirL1Slots; i++ {
		l2 := t.ptrIn(l1buf, l1*pageSize, i*8)
		if l2 == 0 {
			continue
		}
		t.inUse[l2] = true
		l2buf := make([]byte, pageSize)
		t.r.read(l2*pageSize, l2buf)
		t.visitDentries(l2, l2buf[:l2BucketOff], 0, path)
		for b := 0; b < l2Buckets; b++ {
			pg := t.ptrIn(l2buf, l2*pageSize, l2BucketOff+b*8)
			seen := map[int64]bool{}
			for pg != 0 && !seen[pg] {
				seen[pg] = true
				t.inUse[pg] = true
				chain := make([]byte, pageSize)
				t.r.read(pg*pageSize, chain)
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
			t.r.store64(loc.addr(), dentryCommit(deStateFree, 0, 0, 0))
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
			// The child inode is gone: the dentry dangles.
			t.r.store64(loc.addr(), dentryCommit(deStateFree, 0, 0, 0))
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
func resetPool(r recReader, custom int64) {
	if r.load64(custom*pageSize+customMagicOff) != customMagic {
		return
	}
	for idx := int64(0); idx < poolSlots; idx++ {
		off := custom*pageSize + poolOff + idx*slotSize
		r.store64(off+slotTIDOff, 0)
		r.store64(off+slotLeaseOff, 0)
		r.store64(off+slotHeadOff, 0)
		r.store64(off+slotCountOff, 0)
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
	t := &traversal{r: threadReader{th}, valid: valid, inUse: map[int64]bool{}}
	t.inUse[m.custom] = true
	resetPool(threadReader{th}, m.custom)
	f.resetSlotCaches(m)
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
			t.r.store64(cr.loc.addr(), dentryCommit(deStateFree, 0, 0, 0))
			t.repair(cr.loc.addr(), cr.inode, "cross_ref")
		}
	}
	cl.close()
	st.UserNS = th.Clk.Now() - userStart
	st.DentriesFixed = t.fixed
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
	st.PagesReclaimed = sumExtents(exts) - st.PagesKept
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

// resetSlotCaches drops all volatile per-thread allocator caches for a
// mount — both the slot handles (their NVM slots were just cleared) and the
// batched page caches (their pages are being reclaimed by the kernel).
func (f *FS) resetSlotCaches(m *mount) {
	m.slots.Range(func(k, _ any) bool {
		m.slots.Delete(k)
		return true
	})
}

func sumExtents(exts []coffer.Extent) int64 {
	var n int64
	for _, e := range exts {
		n += e.Count
	}
	return n
}

// FsckAll runs offline recovery over every coffer in the file system, in
// dependency-free order (each coffer is self-contained; cross references
// are validated against the kernel's coffer table). th must be a root
// thread of a mounted process.
func FsckAll(kern *kernfs.KernFS, th *proc.Thread) (map[coffer.ID]RecoverStats, error) {
	f := New(kern, Options{})
	out := map[coffer.ID]RecoverStats{}
	for _, id := range kern.Coffers() {
		st, err := f.RecoverCoffer(th, id)
		if err != nil {
			return out, fmt.Errorf("fsck coffer %d: %w", id, err)
		}
		out[id] = st
	}
	return out, nil
}
