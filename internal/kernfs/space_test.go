package kernfs

import (
	"encoding/binary"
	"fmt"
	"testing"

	"zofs/internal/coffer"
	"zofs/internal/nvm"
	"zofs/internal/simclock"
)

// TestVerifySpaceAfterChurn: the three-way space check (persistent table vs
// volatile sets vs census) must hold through coffer creation, enlargement
// and deletion, and across a remount (which rebuilds the sets by scanning
// the table).
func TestVerifySpaceAfterChurn(t *testing.T) {
	dev, k := newFS(t)
	th := mountedThread(t, k, 0, 0)
	var ids []coffer.ID
	for i := 0; i < 3; i++ {
		id, err := k.CofferNew(th, k.RootCoffer(), fmt.Sprintf("/c%d", i), coffer.TypeZoFS, 0o755, 0, 0, 4)
		if err != nil {
			t.Fatalf("CofferNew %d: %v", i, err)
		}
		ids = append(ids, id)
	}
	if _, err := k.CofferMap(th, ids[1], true); err != nil {
		t.Fatalf("CofferMap: %v", err)
	}
	if _, err := k.CofferEnlarge(th, ids[1], 16, true); err != nil {
		t.Fatalf("CofferEnlarge: %v", err)
	}
	if err := k.VerifySpace(); err != nil {
		t.Fatalf("after churn: %v", err)
	}
	if err := k.CofferDelete(th, ids[2]); err != nil {
		t.Fatalf("CofferDelete: %v", err)
	}
	if err := k.VerifySpace(); err != nil {
		t.Fatalf("after delete: %v", err)
	}

	k2, err := Mount(dev)
	if err != nil {
		t.Fatalf("remount: %v", err)
	}
	if err := k2.VerifySpace(); err != nil {
		t.Fatalf("after remount: %v", err)
	}
}

// TestSpaceCensusBruteForce: every device page must be accounted for exactly
// once — free pool, or owned by exactly one coffer (the kernel's own
// metadata is coffer.KernelID) — and the public counters must agree with a
// page-by-page census of the extent sets.
func TestSpaceCensusBruteForce(t *testing.T) {
	_, k := newFS(t)
	th := mountedThread(t, k, 0, 0)
	if _, err := k.CofferNew(th, k.RootCoffer(), "/a", coffer.TypeZoFS, 0o755, 0, 0, 8); err != nil {
		t.Fatal(err)
	}

	owner := map[int64]coffer.ID{}
	claim := func(id coffer.ID, exts []coffer.Extent) {
		for _, e := range exts {
			for pg := e.Start; pg < e.End(); pg++ {
				if prev, dup := owner[pg]; dup {
					t.Fatalf("page %d claimed by both coffer %d and coffer %d", pg, prev, id)
				}
				owner[pg] = id
			}
		}
	}
	var free int64
	for _, e := range k.FreeExtents() {
		free += e.Count
		claim(0, []coffer.Extent{e})
	}
	if free != k.FreePages() {
		t.Fatalf("free extents sum to %d pages, FreePages says %d", free, k.FreePages())
	}
	for _, id := range k.Coffers() {
		claim(id, k.ExtentsOf(id))
	}
	claim(coffer.KernelID, k.ExtentsOf(coffer.KernelID))
	if got, want := int64(len(owner)), k.Device().Pages(); got != want {
		t.Fatalf("census covers %d pages, device has %d", got, want)
	}
}

// TestVerifySpaceDetectsTableCorruption: the persistent table is the
// authority; a slot retagged behind the volatile sets' back must fail the
// check (this is what the crash model checker's space_conserved invariant
// leans on).
func TestVerifySpaceDetectsTableCorruption(t *testing.T) {
	dev, k := newFS(t)
	exts := k.FreeExtents()
	if len(exts) == 0 {
		t.Fatal("no free pages on a fresh device")
	}
	pg := exts[0].Start
	var b [allocSlotSize]byte
	binary.LittleEndian.PutUint32(b[:], 9999) // bogus owner
	binary.LittleEndian.PutUint32(b[4:], 1)
	dev.WriteNT(simclock.NewClock(), k.space.slotOff(pg), b[:])
	if err := k.VerifySpace(); err == nil {
		t.Fatal("VerifySpace accepted a corrupted allocation-table slot")
	}
}

// TestVerifySpaceChecksZeroedFlag: a free slot must carry slotZeroed exactly
// when its shard mirrors it as zeroed, the mirror must lie inside the free
// set, and VerifyZeroed must catch a flagged page that holds a byte.
func TestVerifySpaceChecksZeroedFlag(t *testing.T) {
	dev, k := newFS(t)
	pg := k.FreeExtents()[0].Start
	sh := &k.space.shards[k.space.shardOf(pg)]
	rewrite := func(flags uint32) {
		var b [allocSlotSize]byte
		binary.LittleEndian.PutUint32(b[4:], 1|flags)
		dev.WriteNT(nil, k.space.slotOff(pg), b[:])
	}
	rewrite(0)
	if err := k.VerifySpace(); err == nil {
		t.Fatal("VerifySpace accepted a zeroed page whose slot lost the flag")
	}
	rewrite(slotZeroed)
	sh.zeroed.Remove(pg, 1)
	if err := k.VerifySpace(); err == nil {
		t.Fatal("VerifySpace accepted a flagged slot its shard does not mirror")
	}
	sh.zeroed.Add(pg, 1)
	sh.set.Remove(pg, 1)
	if err := k.VerifySpace(); err == nil {
		t.Fatal("VerifySpace accepted a zeroed page outside the free set")
	}
	sh.set.Add(pg, 1)
	if err := k.VerifySpace(); err != nil {
		t.Fatal(err)
	}
	dev.WriteNT(nil, pg*nvm.PageSize+100, []byte{1})
	if err := k.VerifyZeroed(); err == nil {
		t.Fatal("VerifyZeroed accepted a flagged page that holds a byte")
	}
}

// TestMountFreesUnpublishedOwners: a coffer whose path entry is gone but
// whose pages the table still gives it — a crash inside unpublish, between
// the two — fails VerifyOwners, and the next Mount frees its pages.
func TestMountFreesUnpublishedOwners(t *testing.T) {
	dev, k := newFS(t)
	th := mountedThread(t, k, 0, 0)
	id, _ := cofferWithPages(t, k, th, k.RootCoffer(), "/z", 8)
	if err := k.paths.remove(nil, "/z"); err != nil {
		t.Fatal(err)
	}
	k.coffers.store(id, nil)
	want := k.FreePages() + k.space.pagesOf(id)
	if err := k.VerifyOwners(); err == nil {
		t.Fatal("VerifyOwners accepted pages owned by an unpublished coffer")
	}
	k2, err := Mount(dev)
	if err != nil {
		t.Fatal(err)
	}
	for _, verify := range []func() error{k2.VerifySpace, k2.VerifyPaths, k2.VerifyOwners} {
		if err := verify(); err != nil {
			t.Fatal(err)
		}
	}
	if got := k2.FreePages(); got != want {
		t.Fatalf("%d pages free after the remount, want %d", got, want)
	}
}
