package zofs

import (
	"fmt"
	"testing"

	"zofs/internal/coffer"
	"zofs/internal/kernfs"
	"zofs/internal/nvm"
	"zofs/internal/proc"
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

// TestCrashInsideCofferDeleteFreesItsPages cuts the unlink of a file that is
// its own coffer after each persisting store it makes, then remounts and
// runs Check. A cut inside coffer_delete between the path entry's removal and
// the page release leaves the allocation table giving pages to an ID nothing
// publishes: Mount must free them, so no page stays with that ID and Check
// finds nothing left to repair. (Without Mount's release, Check reports such
// an image under owners_live.)
func TestCrashInsideCofferDeleteFreesItsPages(t *testing.T) {
	cut := 0
	for n := int64(1); ; n++ {
		dev := nvm.NewDevice(16 << 20)
		k, f, th := mountTestFS(t, dev, Options{})
		h, err := f.Create(th, "/priv", 0o600)
		if err != nil {
			t.Fatal(err)
		}
		mustWrite(t, th, h, make([]byte, 8*pageSize), 0)
		h.Close(th)
		id, ok := k.LookupPath(nil, "/priv")
		if !ok {
			t.Fatal("premise: /priv is not its own coffer")
		}
		dev.FailAfter(n)
		crashed := func() (crashed bool) {
			defer func() {
				if r := recover(); r != nil {
					if !nvm.IsInjectedCrash(r) {
						panic(r)
					}
					crashed = true
				}
			}()
			if err := f.Unlink(th, "/priv"); err != nil {
				t.Fatal(err)
			}
			return false
		}()
		dev.FailAfter(0)
		if !crashed {
			break
		}
		dev.Crash()
		ResetShared(dev)
		if _, published := k.LookupPath(nil, "/priv"); !published {
			if owner, _ := k.OwnerOf(int64(id)); owner == id {
				cut++
			}
		}

		where := fmt.Sprintf("crash after store %d", n)
		k2, err := kernfs.Mount(dev)
		if err != nil {
			t.Fatalf("%s: remount: %v", where, err)
		}
		th2 := proc.NewProcess(dev, 0, 0).NewThread()
		if err := k2.FSMount(th2); err != nil {
			t.Fatal(err)
		}
		if err := Check(k2, th2).Err(); err != nil {
			t.Fatalf("%s: %v", where, err)
		}
		if _, published := k2.Info(id); !published && len(k2.ExtentsOf(id)) > 0 {
			t.Fatalf("%s: coffer %d is gone, and still owns %v", where, id, k2.ExtentsOf(id))
		}
	}
	if cut == 0 {
		t.Fatal("no crash point fell between the path entry's removal and the page release")
	}
}
