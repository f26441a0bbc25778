package zofs

import (
	"errors"
	"fmt"
	"slices"
	"strings"

	"zofs/internal/coffer"
	"zofs/internal/kernfs"
	"zofs/internal/nvm"
	"zofs/internal/proc"
	"zofs/internal/vfs"
)

// Check is the one way to verify an image (paper §3.5, §5.3; §6.5: a damaged
// coffer yields errors, not crashes). It runs the recovery traversal over the
// given coffers in that order, or over every coffer in ascending ID order,
// then each registered invariant. th must be a root thread of a mounted
// process, and the file system quiescent.
func Check(kern *kernfs.KernFS, th *proc.Thread, ids ...coffer.ID) *Report {
	if len(ids) == 0 {
		ids = kern.Coffers()
	}
	f := New(kern, Options{})
	rep := &Report{}
	for _, id := range ids {
		st, err := f.RecoverCoffer(th, id)
		if err != nil {
			rep.Findings = append(rep.Findings, Finding{InvariantFsck, id, -1, false, fmt.Sprintf("fsck coffer %d: %v", id, err)})
			continue
		}
		rep.Coffers = append(rep.Coffers, st)
	}
	f.nameCoffers(th, rep)
	for _, st := range rep.Coffers {
		for _, r := range st.Repairs {
			rep.Findings = append(rep.Findings, Finding{InvariantFsck, st.ID, r.Off, true, r.Kind})
		}
	}
	for _, inv := range invariants {
		if err := inv.check(f, ids); err != nil {
			fd := Finding{Invariant: inv.name, Off: -1, Detail: err.Error()}
			if at := (*kernfs.Inconsistency)(nil); errors.As(err, &at) {
				fd.Coffer, fd.Off = at.Coffer, at.Off
			}
			rep.Findings = append(rep.Findings, fd)
		}
	}
	return rep
}

// InvariantFsck names the traversal's findings: a repair, or a coffer it
// could not walk.
const InvariantFsck = "fsck"

// invariants is what Check verifies after the traversal, each registered
// once. Each reports the first broken rule it finds.
var invariants = []struct {
	name  string
	check func(f *FS, ids []coffer.ID) error
}{
	{"space_conserved", (*FS).verifySpace},
	{"zeroed_pages_zero", func(f *FS, _ []coffer.ID) error { return f.kern.VerifyZeroed() }},
	{"path_mirror", func(f *FS, _ []coffer.ID) error { return f.kern.VerifyPaths() }},
	{"owners_live", func(f *FS, _ []coffer.ID) error { return f.kern.VerifyOwners() }},
	{"coffers_named", (*FS).verifyNamed},
}

// Report is what Check found.
type Report struct {
	Coffers  []RecoverStats // one per coffer traversed, in Check's order
	Findings []Finding      // the traversal's, then each invariant's
}

// Finding is one thing Check found wrong: the invariant it breaks, the
// coffer and device byte offset it concerns (0 and -1 when it concerns none),
// and whether Check repaired it.
type Finding struct {
	Invariant string
	Coffer    coffer.ID
	Off       int64
	Repaired  bool
	Detail    string
}

func (fd Finding) String() string {
	s := fmt.Sprintf("%s: coffer %d", fd.Invariant, fd.Coffer)
	if fd.Off >= 0 {
		s += fmt.Sprintf(" at %#x", fd.Off)
	}
	if s += ": " + fd.Detail; fd.Repaired {
		s += " (repaired)"
	}
	return s
}

// Err joins the findings Check left unrepaired: nil when there are none.
func (r *Report) Err() error {
	var errs []error
	for _, fd := range r.Findings {
		if !fd.Repaired {
			errs = append(errs, errors.New(fd.String()))
		}
	}
	return errors.Join(errs...)
}

// verifySpace is the space_conserved invariant over the coffers ids (nil:
// every coffer). The kernel's allocation table, extent sets and page census
// must agree (kernfs.VerifySpace); then each ZoFS coffer's root page, every
// page on its persistent free lists and every page in this instance's batch
// caches (none in Check's, once recovery ran) must lie inside the coffer's
// grant, the last two once each. So every SpaceReport row adds up: Used ≥ 0
// and FreeListed+Cached ≤ Pages.
func (f *FS) verifySpace(ids []coffer.ID) error {
	if err := f.kern.VerifySpace(); err != nil {
		return err
	}
	if ids == nil {
		ids = f.kern.Coffers()
	}
	for _, id := range ids {
		rp, ok := f.kern.Info(id)
		if !ok || rp.Type != coffer.TypeZoFS {
			continue
		}
		owned := map[int64]bool{}
		for _, e := range f.kern.ExtentsOf(id) {
			for pg := e.Start; pg < e.End(); pg++ {
				owned[pg] = true
			}
		}
		if !owned[int64(id)] {
			return spaceErr(id, int64(id), "root page", "outside the kernel grant")
		}
		pages := scanFreeLists(f.kern.Device(), rp.Custom)
		listed := len(pages)
		f.mu.Lock()
		m := f.mounts[id]
		f.mu.Unlock()
		if m != nil {
			m.slots.Range(func(_, v any) bool {
				for _, c := range v.(*threadSlots).cache {
					pages = append(pages, c...)
				}
				return true
			})
		}
		seen := map[int64]bool{}
		for i, pg := range pages {
			where := "free list"
			if i >= listed {
				where = "batch cache"
			}
			if !owned[pg] {
				return spaceErr(id, pg, where, "outside the kernel grant")
			}
			if seen[pg] {
				return spaceErr(id, pg, where, "held twice")
			}
			seen[pg] = true
		}
	}
	return nil
}

func spaceErr(id coffer.ID, pg int64, where, problem string) error {
	return &kernfs.Inconsistency{Coffer: id, Off: pg * nvm.PageSize,
		What: fmt.Sprintf("zofs: coffer %d page %d (%s) %s", id, pg, where, problem)}
}

// nameCoffers is Check's naming pass, after the traversals. A published
// coffer that no dentry names, whose directory the traversal walked, gets its
// cross-coffer dentry at its path when the name is free: a coffer_new, or a
// rename's split, cut before that dentry landed. If its root inode had to be
// re-initialised, nothing it held is left for a dentry to name — a coffer_new
// cut before the µFS initialised its root — and it is deleted instead. A
// taken name is left for coffers_named to report. The repair (coffer_ref) is
// booked to the coffer named.
func (f *FS) nameCoffers(th *proc.Thread, rep *Report) {
	walked := func(id coffer.ID) bool {
		return slices.ContainsFunc(rep.Coffers, func(st RecoverStats) bool { return st.ID == id })
	}
	for i := range rep.Coffers {
		st := &rep.Coffers[i]
		rp, ok := f.kern.Info(st.ID)
		if !ok || st.ID == f.kern.RootCoffer() {
			continue
		}
		p, dirIno, de, ok := f.nameOf(rp)
		if !ok || de.name != "" || p == 0 || !walked(p) {
			continue
		}
		if slices.ContainsFunc(st.Repairs, func(r Repair) bool { return r.Kind == "root_reinit" }) {
			if f.deleteCoffer(th, st.ID) != nil {
				continue
			}
		} else {
			m, err := f.ensureMapped(th, p, true)
			if err != nil {
				continue
			}
			var typ [4]byte
			f.kern.Device().ReadNoCharge(rp.RootInode*pageSize+inoTypeOff, typ[:])
			cl := f.window(th, m, true)
			_, base := vfs.SplitPath(rp.Path)
			err = f.dirInsert(th, m, dirIno, base, uint8(u32at(typ[:], 0)), uint32(st.ID), rp.RootInode)
			cl.close()
			if err != nil {
				continue
			}
		}
		st.Repairs = append(st.Repairs, Repair{Off: int64(st.ID) * pageSize, Target: rp.RootInode, Kind: "coffer_ref"})
	}
}

// verifyNamed is the coffers_named invariant over the coffers ids (nil: every
// coffer): each published coffer but the root whose directory lies in one of
// them is named there by a dentry that names it (target). It reads the media
// uncharged.
func (f *FS) verifyNamed(ids []coffer.ID) error {
	for _, id := range f.kern.Coffers() {
		if id == f.kern.RootCoffer() {
			continue
		}
		rp, _ := f.kern.Info(id)
		p, _, de, ok := f.nameOf(rp)
		if p == 0 || ids != nil && !slices.Contains(ids, p) {
			continue
		}
		if named, err := f.target(de, rp.Path); !ok || err != nil || named != id {
			return &kernfs.Inconsistency{Coffer: id, Off: int64(id) * pageSize,
				What: fmt.Sprintf("zofs: coffer %d at %s is not named by its directory (dentry %q names coffer %d inode %d)",
					id, rp.Path, de.name, de.cofferID, de.inode)}
		}
	}
	return nil
}

// nameOf finds where a coffer's dentry belongs, reading the media uncharged:
// p is the coffer that holds the directory its path names (0 when that is
// not a ZoFS coffer), dirIno that directory's inode, and de what the
// directory holds under the coffer's name (zero when nothing). ok is false
// when the directory is not there.
func (f *FS) nameOf(rp coffer.RootPage) (p coffer.ID, dirIno int64, de dentry, ok bool) {
	dir, base := vfs.SplitPath(rp.Path)
	p, prefix, _ := f.kern.ResolveLongest(nil, dir)
	prp, _ := f.kern.Info(p)
	if prp.Type != coffer.TypeZoFS {
		return 0, 0, dentry{}, false
	}
	dirIno = prp.RootInode
	dev := f.kern.Device()
	for _, name := range strings.Split(strings.Trim(dir[len(prefix):], "/"), "/") {
		if name == "" {
			continue
		}
		d := peekDentry(dev, dirIno, name)
		if d.name == "" || d.cofferID != 0 || vfs.FileType(d.typ) != vfs.TypeDir {
			return p, 0, dentry{}, false
		}
		dirIno = d.inode
	}
	return p, dirIno, peekDentry(dev, dirIno, base), true
}

// peekDentry finds name in directory ino, reading the media uncharged: the
// second-level page the name's first-level slot points at, its inline area
// first, then its bucket's chain (§5.1), up to a loop. It returns a zero
// dentry when the name is not there.
func peekDentry(dev *nvm.Device, ino int64, name string) (found dentry) {
	h := nameHash(name)
	buf := make([]byte, pageSize)
	word := func(off int64) int64 {
		dev.ReadNoCharge(off, buf[:8])
		return int64(u64at(buf, 0))
	}
	l1 := word(ino*pageSize + inoDirL1Off)
	if l1 == 0 {
		return
	}
	l2 := word(l1*pageSize + 8*l1Index(h))
	if l2 == 0 {
		return
	}
	match := func(d dentry, _ int64) bool {
		if d.name == name {
			found = d
		}
		return d.name != name
	}
	dev.ReadNoCharge(l2*pageSize, buf)
	if !scanDentries(buf[:l2BucketOff], 0, match) {
		return
	}
	var loop chainLoop
	for pg := int64(u64at(buf, int(l2BucketOff+8*l2Bucket(h)))); pg != 0 && !loop.closes(pg); {
		dev.ReadNoCharge(pg*pageSize, buf)
		if !scanDentries(buf[chainFirstDe:], 0, match) {
			return
		}
		pg = int64(u64at(buf, chainNextOff))
	}
	return
}
