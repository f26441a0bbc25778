package zofs

import (
	"encoding/binary"
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
