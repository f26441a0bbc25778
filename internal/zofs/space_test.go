package zofs

import (
	"fmt"
	"testing"

	"zofs/internal/coffer"
)

// verifyLive runs every invariant Check registers over a live instance, its
// batch caches included, without the recovery traversal Check runs first.
func verifyLive(f *FS) error {
	for _, inv := range invariants {
		if err := inv.check(f, nil); err != nil {
			return fmt.Errorf("%s: %w", inv.name, err)
		}
	}
	return nil
}

// TestSpaceReportReconciles cross-checks the space accounting three ways on
// a live file system: the report's own row arithmetic (used + free-listed +
// cached = granted pages), the kernel's grant (sum of the coffer's extents),
// and every invariant Check registers (persistent allocation table vs
// volatile trees vs page census, plus the µFS free inventory). Deleting the
// files must return pages to the allocator without breaking any of it.
func TestSpaceReportReconciles(t *testing.T) {
	_, k, f, th := newTestFS(t, Options{})
	if err := f.Mkdir(th, "/d", 0o755); err != nil {
		t.Fatal(err)
	}
	const files = 32
	buf := make([]byte, 3*pageSize)
	for i := 0; i < files; i++ {
		h, err := f.Create(th, fmt.Sprintf("/d/f%d", i), 0o644)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := h.WriteAt(th, buf, 0); err != nil {
			t.Fatal(err)
		}
		h.Close(th)
	}

	check := func(when string) map[uint64]int64 {
		t.Helper()
		used := map[uint64]int64{}
		rows := f.SpaceReport()
		if len(rows) == 0 {
			t.Fatalf("%s: empty space report", when)
		}
		for _, cs := range rows {
			if cs.Used+cs.FreeListed+cs.Cached != cs.Pages {
				t.Fatalf("%s: coffer %d rows don't sum: %+v", when, cs.ID, cs)
			}
			if cs.Used < 0 {
				t.Fatalf("%s: coffer %d negative used count: %+v", when, cs.ID, cs)
			}
			var granted int64
			for _, e := range k.ExtentsOf(coffer.ID(cs.ID)) {
				granted += e.Count
			}
			if granted != cs.Pages {
				t.Fatalf("%s: coffer %d report says %d pages, kernel granted %d", when, cs.ID, cs.Pages, granted)
			}
			used[cs.ID] = cs.Used
		}
		if err := verifyLive(f); err != nil {
			t.Fatalf("%s: %v", when, err)
		}
		return used
	}

	before := check("with files")
	root := uint64(k.RootCoffer())
	for i := 0; i < files; i++ {
		if err := f.Unlink(th, fmt.Sprintf("/d/f%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	after := check("after unlink")
	if after[root] >= before[root] {
		t.Fatalf("unlinking %d files did not shrink used pages: %d -> %d", files, before[root], after[root])
	}
}
