package zofs

import (
	"errors"
	"fmt"

	"zofs/internal/coffer"
	"zofs/internal/kernfs"
	"zofs/internal/nvm"
	"zofs/internal/proc"
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
		for _, r := range st.Repairs {
			rep.Findings = append(rep.Findings, Finding{InvariantFsck, id, r.Off, true, r.Kind})
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
