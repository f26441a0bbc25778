package kernfs

import (
	"fmt"
	"sync"
	"testing"
	"unsafe"

	"zofs/internal/coffer"
	"zofs/internal/slab"
)

// TestRegistryTable: the indexed coffer table against a map, including IDs no
// coffer can have, a cleared slot in a leaf nothing was stored in, and each's
// order.
func TestRegistryTable(t *testing.T) {
	const npages = 5*regLeafSlots + 7
	r := newRegistry(npages)
	ref := map[coffer.ID]*cofferInfo{}
	for _, id := range []coffer.ID{3, regLeafSlots - 1, regLeafSlots, 4*regLeafSlots + 9, npages - 1} {
		ci := &cofferInfo{}
		r.store(id, ci)
		ref[id] = ci
	}
	r.store(2*regLeafSlots+1, nil) // nothing there
	r.store(regLeafSlots, nil)
	delete(ref, regLeafSlots)
	for id := coffer.ID(0); id < npages+regLeafSlots; id++ {
		if got := r.load(id); got != ref[id] {
			t.Fatalf("load(%d) = %p, want %p", id, got, ref[id])
		}
	}
	if r.load(coffer.KernelID) != nil {
		t.Fatal("the kernel's own ID resolved to a coffer")
	}
	var seen []coffer.ID
	r.each(func(id coffer.ID, ci *cofferInfo) {
		if ci != ref[id] {
			t.Errorf("each(%d) = %p, want %p", id, ci, ref[id])
		}
		if len(seen) > 0 && seen[len(seen)-1] >= id {
			t.Errorf("each visited %d after %d", id, seen[len(seen)-1])
		}
		seen = append(seen, id)
	})
	if len(seen) != len(ref) {
		t.Fatalf("each visited %v, table holds %d", seen, len(ref))
	}
}

// TestInfoSnapshotIsOnePublish is for -race: while one thread flips a
// coffer's mode, owner and group together and another renames it back and
// forth, lock-free Info readers must only ever see values that were published
// together — never one publish's mode with another's owner.
func TestInfoSnapshotIsOnePublish(t *testing.T) {
	k, th, id := hostFS(t, 0)
	renamer := mountedThread(t, k, 0, 0)
	const flips = 2000
	// uid 0 keeps the right to change the coffer whatever owner it sets.
	if err := k.SetCofferMeta(th, id, 0o700, 0o700, 0o701); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				rp, ok := k.Info(id)
				if !ok {
					t.Error("the coffer vanished")
					return
				}
				if rp.ID != id || rp.UID != uint32(rp.Mode) || rp.GID != rp.UID+1 || (rp.Path != "/k" && rp.Path != "/k2") {
					t.Errorf("Info mixed two publishes: %+v", rp)
					return
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		from, to := "/k", "/k2"
		for i := 0; i < flips/10; i++ {
			if err := k.RenameCoffer(renamer, from, to); err != nil {
				t.Error(err)
				return
			}
			from, to = to, from
		}
	}()
	for i := 0; i < flips; i++ {
		m := coffer.Mode(0o600 + i%0o100)
		if err := k.SetCofferMeta(th, id, m, uint32(m), uint32(m)+1); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
}

// TestPathMirrorChains: many paths per bucket — more coffers than the mirror
// has buckets is the fxmark-scale case — inserted, looked up, removed from
// the head, the middle and the tail of their chains, and enumerated.
func TestPathMirrorChains(t *testing.T) {
	pt := new(pathTable) // the mirror alone: no device behind it
	const n = 3 * pathBuckets
	path := func(i int) string { return fmt.Sprintf("/c/%05d", i) }
	for i := 0; i < n; i++ {
		pt.set(path(i), coffer.ID(i+1), int64(i)*64)
	}
	for i := 0; i < n; i += 3 {
		pt.unset(path(i))
	}
	pt.unset("/absent")
	live := 0
	for i := 0; i < n; i++ {
		id, ok := pt.find(path(i))
		if want := i%3 != 0; ok != want || (ok && id != coffer.ID(i+1)) {
			t.Fatalf("find(%s) = %d, %v", path(i), id, ok)
		}
		if ok {
			live++
		}
	}
	pt.each(func(p string, id coffer.ID) bool {
		if got, ok := pt.find(p); !ok || got != id {
			t.Errorf("each gave %s -> %d, find says %d, %v", p, id, got, ok)
		}
		live--
		return true
	})
	if live != 0 {
		t.Fatalf("each and find disagree on the live set by %d", live)
	}
	if s := pt.seq.Load(); s%2 != 0 {
		t.Fatalf("seq left odd: %d", s)
	}
}

// TestPathEntFitsItsSizeClass: the entry location takes the 8 bytes the
// allocator's 48-byte size class rounded a mirror entry up to when each was
// an object of its own; carved from a slab, an entry still costs 48 bytes.
func TestPathEntFitsItsSizeClass(t *testing.T) {
	if n := unsafe.Sizeof(pathEnt{}); n > 48 {
		t.Fatalf("pathEnt is %d bytes, past the 48-byte size class", n)
	}
}

// TestMergedCofferRecordStaysDead: records are carved from a slab and never
// handed out again. After a split is merged back and more coffers than a
// slab chunk holds are created, the merged coffer's record still reads dead
// with its own root page, no registry slot holds it, and neither LookupPath
// nor Info finds a coffer at its path.
func TestMergedCofferRecordStaysDead(t *testing.T) {
	k, th, id := hostFS(t, 0)
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	grant, err := k.CofferEnlarge(th, id, 4, false)
	must(err)
	pages := flatten(grant)
	sid, err := k.CofferSplit(th, id, "/k/split", 0o600, 0, 0, pages[:3], pages[0], pages[1])
	must(err)
	old := k.coffers.load(sid)
	was := old.rp
	must(k.CofferMerge(th, id, sid))
	for i := 0; i < 2*slab.Max; i++ {
		_, err := k.CofferNew(th, k.RootCoffer(), fmt.Sprintf("/n%04d", i), coffer.TypeZoFS, 0o700, 0, 0, 3)
		must(err)
	}
	if !old.dead || old.rp != was || old.snap.published() != "/k/split" {
		t.Errorf("the merged record was reused: dead %v, %+v published at %q", old.dead, old.rp, old.snap.published())
	}
	k.coffers.each(func(cid coffer.ID, ci *cofferInfo) {
		if ci == old {
			t.Errorf("registry slot %d holds the merged coffer's record", cid)
		}
	})
	if got, ok := k.LookupPath(nil, "/k/split"); ok {
		t.Errorf("LookupPath finds coffer %d at the merged coffer's path", got)
	}
	if rp, ok := k.Info(sid); ok && rp.Path == "/k/split" {
		t.Errorf("Info(%d) still answers the merged coffer: %+v", sid, rp)
	}
}

// TestRenamedCofferReadsItsEntry: a coffer's published path is the path
// mirror's entry for it. A rename points the record at the new path's entry,
// and an entry a reader kept from before still reads the old path, however
// many entries are carved after.
func TestRenamedCofferReadsItsEntry(t *testing.T) {
	k, th, id := hostFS(t, 0)
	ci := k.coffers.load(id)
	kept := ci.snap.ent.Load()
	if kept != k.paths.entry("/k") {
		t.Fatal("the record does not point at its path's mirror entry")
	}
	if err := k.RenameCoffer(th, "/k", "/k2"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2*slab.Max; i++ {
		if _, err := k.CofferNew(th, k.RootCoffer(), fmt.Sprintf("/n%04d", i), coffer.TypeZoFS, 0o700, 0, 0, 3); err != nil {
			t.Fatal(err)
		}
	}
	if e := ci.snap.ent.Load(); e != k.paths.entry("/k2") || e.path != "/k2" {
		t.Errorf("after the rename the record reads entry %+v", e)
	}
	if rp, ok := k.Info(id); !ok || rp.Path != "/k2" {
		t.Errorf("Info = %+v, %v, want the path /k2", rp, ok)
	}
	if kept.path != "/k" || kept.id != id {
		t.Errorf("the entry kept from before the rename now reads %q (coffer %d)", kept.path, kept.id)
	}
}
