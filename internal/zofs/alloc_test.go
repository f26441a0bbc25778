package zofs

import (
	"slices"
	"testing"
)

// TestAllocDrainsOnMediaFreeList: nothing in this program chains free pages
// through NVM, but a pool slot's head word is read from media, so a device
// image that carries a chain must have it drained — in chain order, head
// word left 0, metadata pages handed out with the next pointer scrubbed —
// before the allocator asks the kernel for more.
func TestAllocDrainsOnMediaFreeList(t *testing.T) {
	for _, tc := range []struct {
		name  string
		class int
	}{
		{"data", classData},
		{"meta", classMeta},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, _, f, owner := newTestFS(t, Options{})
			pos, err := f.walk(owner, "/", false, true)
			if err != nil {
				t.Fatal(err)
			}
			defer pos.close()
			m := pos.m
			// Three pages the coffer owns and nothing references: the chain.
			var chain []int64
			for i := 0; i < 3; i++ {
				pg, err := f.allocPage(owner, m, tc.class)
				if err != nil {
					t.Fatal(err)
				}
				chain = append(chain, pg)
			}
			// The slot a thread without one claims next is the first whose
			// lease word is free. Hang the chain off it, as an image written
			// by another implementation would carry it.
			slotOff := int64(-1)
			for idx := int32(0); idx < poolSlots; idx++ {
				if off := slotOffset(m.custom, idx); owner.Load64(off+slotLeaseOff) == 0 {
					slotOff = off
					break
				}
			}
			if slotOff < 0 {
				t.Fatal("no free pool slot")
			}
			owner.Store64(slotOff+slotHeadOff, uint64(chain[0]))
			for i, pg := range chain {
				next := int64(0)
				if i+1 < len(chain) {
					next = chain[i+1]
				}
				owner.Store64(pg*pageSize, uint64(next))
			}

			th := owner.Proc.NewThread()
			defer f.window(th, m, true).close()
			var got []int64
			for range chain {
				pg, err := f.allocPage(th, m, tc.class)
				if err != nil {
					t.Fatal(err)
				}
				got = append(got, pg)
			}
			if !slices.Equal(got, chain) {
				t.Fatalf("drained %v, want the chain in order %v", got, chain)
			}
			if ts := m.threadSlotsFor(th.TID); slotOffset(m.custom, ts.slot[tc.class]) != slotOff {
				t.Fatalf("thread claimed slot %d, not the one carrying the chain", ts.slot[tc.class])
			}
			if head := th.Load64(slotOff + slotHeadOff); head != 0 {
				t.Fatalf("head word = %d after the drain, want 0", head)
			}
			if tc.class == classMeta {
				for _, pg := range got {
					if w := th.Load64(pg * pageSize); w != 0 {
						t.Fatalf("metadata page %d handed out with next pointer %d in it", pg, w)
					}
				}
			}
			// Dry chain, dry cache: the next page is a kernel grant.
			pg, err := f.allocPage(th, m, tc.class)
			if err != nil {
				t.Fatal(err)
			}
			if slices.Contains(chain, pg) {
				t.Fatalf("page %d granted twice", pg)
			}
		})
	}
}

// TestGrantsRampToTheCap: a thread's coffer_enlarge asks for as many pages as
// the coffer has granted it in the class so far, up to the class's cap —
// data 1, 1, 2, 4, … and metadata 4, 4, 8, …, then the cap each time. The
// ramp sums to the cap, so past it a coffer holds the tail a fixed batch
// would leave; below it, a coffer holding one 16 KiB file owns a few pages,
// not two batches.
func TestGrantsRampToTheCap(t *testing.T) {
	for _, tc := range []struct {
		name       string
		class      int
		first, cap int64
	}{
		{"meta", classMeta, metaFirstGrant, 32},
		{"data", classData, 1, 512},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, _, f, owner := newTestFS(t, Options{})
			pos, err := f.walk(owner, "/", false, true)
			if err != nil {
				t.Fatal(err)
			}
			defer pos.close()
			m := pos.m
			th := owner.Proc.NewThread()
			defer f.window(th, m, true).close()
			ts := m.threadSlotsFor(th.TID)
			var grants []int64
			for i := int64(0); i < 3*tc.cap && ts.granted[tc.class] < 3*tc.cap; i++ {
				before := ts.granted[tc.class]
				if _, err := f.allocPage(th, m, tc.class); err != nil {
					t.Fatal(err)
				}
				if n := ts.granted[tc.class] - before; n > 0 {
					grants = append(grants, n)
				}
			}
			want := []int64{tc.first}
			for n := tc.first; n <= tc.cap; n *= 2 {
				want = append(want, n)
			}
			want = append(want, tc.cap)
			if !slices.Equal(grants, want) {
				t.Fatalf("grants %v, want %v", grants, want)
			}
		})
	}
	t.Run("one small file", func(t *testing.T) {
		_, k, f, th := newTestFS(t, Options{})
		h, err := f.Create(th, "/priv", 0o600) // its own coffer
		if err != nil {
			t.Fatal(err)
		}
		mustWrite(t, th, h, make([]byte, 16<<10), 0)
		h.Close(th)
		id, ok := k.LookupPath(nil, "/priv")
		if !ok {
			t.Fatal("no coffer for /priv")
		}
		var owned int64
		for _, e := range k.ExtentsOf(id) {
			owned += e.Count
		}
		if owned > 16 {
			t.Fatalf("a coffer holding one 16 KiB file owns %d pages, want ≤ 16", owned)
		}
	})
}
