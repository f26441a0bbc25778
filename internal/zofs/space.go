package zofs

import (
	"encoding/binary"
	"fmt"
	"sort"

	"zofs/internal/byteflow"
	"zofs/internal/coffer"
	"zofs/internal/nvm"
)

// Per-coffer space accounting (zofs-obs df). The kernel's allocation table is
// the authority for each coffer's grant; the µFS side adds where the granted
// pages are inside the coffer: chained on a persistent slot free list, held
// in this instance's volatile batch caches, or in use. The persistent free
// lists are read uncharged straight off the device — SpaceReport is a
// tooling operation, not a modeled syscall.

// SpaceReport returns one space row per coffer, in ascending coffer-ID
// order. Cached counts only this FS instance's volatile batch caches; other
// processes' caches are invisible by design (a crash would reclaim them,
// §5.3) and show up in Used.
func (f *FS) SpaceReport() []byteflow.CofferSpace {
	dev := f.kern.Device()
	var out []byteflow.CofferSpace
	for _, id := range f.kern.Coffers() {
		rp, ok := f.kern.Info(id)
		if !ok {
			continue
		}
		exts := f.kern.ExtentsOf(id)
		var pages int64
		for _, e := range exts {
			pages += e.Count
		}
		cs := byteflow.CofferSpace{
			ID:      uint64(id),
			Path:    rp.Path,
			Pages:   pages,
			Extents: int64(len(exts)),
			Frag:    byteflow.FragScore(int64(len(exts)), pages),
		}
		if rp.Type == coffer.TypeZoFS {
			cs.FreeListed = int64(len(scanFreeLists(dev, rp.Custom)))
			cs.Cached = f.cachedPages(id)
		}
		cs.Used = cs.Pages - cs.FreeListed - cs.Cached
		out = append(out, cs)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// cachedPages sums the volatile batch caches this instance holds for a
// coffer across all thread slots and both allocation classes.
func (f *FS) cachedPages(id coffer.ID) int64 {
	f.mu.Lock()
	m := f.mounts[id]
	f.mu.Unlock()
	if m == nil {
		return 0
	}
	var n int64
	m.slots.Range(func(_, v any) bool {
		ts := v.(*threadSlots)
		n += int64(len(ts.cache[0]) + len(ts.cache[1]))
		return true
	})
	return n
}

// scanFreeLists walks every pool slot's persistent free-list chain on the
// given custom page, reading uncharged. Returns nil when the pool was never
// initialized.
func scanFreeLists(dev *nvm.Device, custom int64) []int64 {
	var w [8]byte
	dev.ReadNoCharge(custom*nvm.PageSize+customMagicOff, w[:])
	if binary.LittleEndian.Uint64(w[:]) != customMagic {
		return nil
	}
	var out []int64
	for idx := int64(0); idx < poolSlots; idx++ {
		off := custom*nvm.PageSize + poolOff + idx*slotSize
		dev.ReadNoCharge(off+slotHeadOff, w[:])
		for pg := int64(binary.LittleEndian.Uint64(w[:])); pg != 0; {
			out = append(out, pg)
			dev.ReadNoCharge(pg*nvm.PageSize, w[:])
			pg = int64(binary.LittleEndian.Uint64(w[:]))
		}
	}
	return out
}

// WearReport returns the device's page-wear snapshot with every page
// attributed to its owning coffer (Coffer 0 = unowned: superblock,
// allocation table, kernel free pool). Nil when accounting is disabled.
func (f *FS) WearReport() []byteflow.PageWear {
	wear := f.kern.Device().WearSnapshot()
	if wear == nil {
		return nil
	}
	type run struct {
		start, end int64
		id         uint64
	}
	var runs []run
	for _, id := range f.kern.Coffers() {
		for _, e := range f.kern.ExtentsOf(id) {
			runs = append(runs, run{e.Start, e.End(), uint64(id)})
		}
	}
	sort.Slice(runs, func(i, j int) bool { return runs[i].start < runs[j].start })
	for i := range wear {
		pg := wear[i].Page
		k := sort.Search(len(runs), func(j int) bool { return runs[j].end > pg })
		if k < len(runs) && runs[k].start <= pg {
			wear[i].Coffer = runs[k].id
		}
	}
	return wear
}

// VerifySpace cross-checks the space accounting three ways for every
// coffer: the kernel's volatile extent trees against the persistent
// allocation table (kernfs.VerifySpace), then the µFS-side split — the
// persistent free lists and this instance's batch caches must all lie
// inside the kernel's grant, with no page in two places.
func (f *FS) VerifySpace() error {
	if err := f.kern.VerifySpace(); err != nil {
		return err
	}
	dev := f.kern.Device()
	for _, id := range f.kern.Coffers() {
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
		seen := map[int64]bool{}
		for _, pg := range scanFreeLists(dev, rp.Custom) {
			if !owned[pg] {
				return &SpaceError{Coffer: id, Page: pg, Where: "free list", Problem: "outside the kernel grant"}
			}
			if seen[pg] {
				return &SpaceError{Coffer: id, Page: pg, Where: "free list", Problem: "chained twice"}
			}
			seen[pg] = true
		}
		f.mu.Lock()
		m := f.mounts[id]
		f.mu.Unlock()
		if m == nil {
			continue
		}
		var cacheErr *SpaceError
		m.slots.Range(func(_, v any) bool {
			ts := v.(*threadSlots)
			for class := range ts.cache {
				for _, pg := range ts.cache[class] {
					switch {
					case !owned[pg]:
						cacheErr = &SpaceError{Coffer: id, Page: pg, Where: "batch cache", Problem: "outside the kernel grant"}
					case seen[pg]:
						cacheErr = &SpaceError{Coffer: id, Page: pg, Where: "batch cache", Problem: "also on a free list"}
					default:
						seen[pg] = true
						continue
					}
					return false
				}
			}
			return true
		})
		if cacheErr != nil {
			return cacheErr
		}
	}
	return nil
}

// SpaceError reports one space-accounting inconsistency.
type SpaceError struct {
	Coffer  coffer.ID
	Page    int64
	Where   string
	Problem string
}

func (e *SpaceError) Error() string {
	return fmt.Sprintf("zofs: coffer %d page %d on %s %s", e.Coffer, e.Page, e.Where, e.Problem)
}
