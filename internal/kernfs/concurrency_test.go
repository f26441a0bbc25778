package kernfs

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"zofs/internal/coffer"
	"zofs/internal/lockprof"
	"zofs/internal/proc"
)

// typedErr reports whether err is one of the kernel's exported error
// sentinels — the only failures a concurrent caller may ever observe.
func typedErr(err error) bool {
	for _, want := range []error{
		ErrPerm, ErrNotFound, ErrExists, ErrBusy, ErrNoSpace,
		ErrNoMPKRegions, ErrInvalid, ErrNotMapped, ErrInRecovery,
		ErrCofferReadOnly, ErrCofferOffline,
	} {
		if errors.Is(err, want) {
			return true
		}
	}
	return false
}

// TestConcurrentCofferLifecycle hammers the sharded kernel agent from 64
// threads (64 processes) mixing disjoint per-thread coffers with a small set
// of overlapping coffers that everyone creates, maps, enlarges and deletes
// at once. Every failure must be a typed sentinel (no panics, no untyped
// errors), and after a final sweep the device must conserve free pages
// exactly and pass the three-way space check. Run it with -race: the whole
// point of killing kernfs.big is that these paths now interleave.
//
// The racers keep the kernel's contract for calls by bare ID (see
// CofferDelete): resolve→use of one path is serialized, here by a mutex per
// shared path standing in for the parent directory's bucket lease. Without it
// a stale ID can name the disjoint coffer that reused the page, and a racer
// deletes a coffer its owner is entitled to find intact.
func TestConcurrentCofferLifecycle(t *testing.T) {
	dev, k := newFS(t)
	freeBefore := k.FreePages()

	const nthreads = 64
	const iters = 6
	const nshared = 4

	var wg sync.WaitGroup
	var pathMu [nshared]sync.Mutex
	errCh := make(chan error, nthreads*iters)
	report := func(op string, err error) {
		if err != nil && !typedErr(err) {
			errCh <- fmt.Errorf("%s: untyped error %v", op, err)
		}
	}

	for g := 0; g < nthreads; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			th := proc.NewProcess(dev, 0, 0).NewThread()
			if err := k.FSMount(th); err != nil {
				errCh <- fmt.Errorf("FSMount g%d: %v", g, err)
				return
			}
			for j := 0; j < iters; j++ {
				// Disjoint lifecycle: nobody else touches this coffer, so
				// every step must succeed outright.
				path := fmt.Sprintf("/d-%d-%d", g, j)
				id, err := k.CofferNew(th, k.RootCoffer(), path, coffer.TypeZoFS, 0o755, 0, 0, 4)
				if err != nil {
					errCh <- fmt.Errorf("disjoint CofferNew %s: %v", path, err)
					continue
				}
				if _, err := k.CofferMap(th, id, true); err != nil {
					errCh <- fmt.Errorf("disjoint CofferMap %s: %v", path, err)
				} else if _, err := k.CofferEnlarge(th, id, 8, j%2 == 0); err != nil {
					errCh <- fmt.Errorf("disjoint CofferEnlarge %s: %v", path, err)
				}
				if err := k.CofferDelete(th, id); err != nil {
					errCh <- fmt.Errorf("disjoint CofferDelete %s: %v", path, err)
				}

				// Overlapping lifecycle: all threads race create/map/enlarge/
				// delete on a handful of shared paths. Races lose with typed
				// errors; any other failure is a bug.
				spath := fmt.Sprintf("/s-%d", (g+j)%nshared)
				_, err = k.CofferNew(th, k.RootCoffer(), spath, coffer.TypeZoFS, 0o755, 0, 0, 3)
				report("shared CofferNew", err)
				pathMu[(g+j)%nshared].Lock()
				if sid, ok := k.LookupPath(th.Clk, spath); ok {
					if _, err := k.CofferMap(th, sid, true); err != nil {
						report("shared CofferMap", err)
					} else {
						_, err = k.CofferEnlarge(th, sid, 2, false)
						report("shared CofferEnlarge", err)
					}
					if (g+j)%7 == 0 {
						report("shared CofferDelete", k.CofferDelete(th, sid))
					}
				}
				pathMu[(g+j)%nshared].Unlock()
			}
		}(g)
	}
	wg.Wait()
	close(errCh)
	nerr := 0
	for err := range errCh {
		if nerr++; nerr <= 10 {
			t.Error(err)
		}
	}
	if nerr > 10 {
		t.Errorf("... and %d more", nerr-10)
	}

	// Sweep every surviving coffer and check exact conservation.
	th := mountedThread(t, k, 0, 0)
	for _, id := range k.Coffers() {
		if id == k.RootCoffer() {
			continue
		}
		if err := k.CofferDelete(th, id); err != nil && !errors.Is(err, ErrNotFound) {
			t.Fatalf("sweep CofferDelete %d: %v", id, err)
		}
	}
	if free := k.FreePages(); free != freeBefore {
		t.Fatalf("free pages not conserved: %d before churn, %d after sweep", freeBefore, free)
	}
	if err := k.VerifySpace(); err != nil {
		t.Fatalf("VerifySpace after churn: %v", err)
	}
}

// TestLockHierarchyNoInversions drives every multi-lock kernel path with the
// lock profiler attached and asserts the declared hierarchy — registry →
// coffer → paths → freeshard — produces no order-inversion report. This is
// the regression gate for the kernfs.big decomposition: an inversion here is
// a deadlock candidate at 512 threads.
func TestLockHierarchyNoInversions(t *testing.T) {
	reg := lockprof.Enable(lockprof.Config{})
	defer lockprof.Disable()

	dev, k := newFS(t)
	const nthreads = 8
	var wg sync.WaitGroup
	for g := 0; g < nthreads; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			th := proc.NewProcess(dev, 0, 0).NewThread()
			if err := k.FSMount(th); err != nil {
				t.Error(err)
				return
			}
			for j := 0; j < 4; j++ {
				path := fmt.Sprintf("/h-%d-%d", g, j)
				id, err := k.CofferNew(th, k.RootCoffer(), path, coffer.TypeZoFS, 0o755, 0, 0, 4)
				if err != nil {
					t.Errorf("CofferNew: %v", err)
					return
				}
				if _, err := k.CofferMap(th, id, true); err != nil {
					t.Errorf("CofferMap: %v", err)
					return
				}
				exts, err := k.CofferEnlarge(th, id, 4, true)
				if err != nil {
					t.Errorf("CofferEnlarge: %v", err)
					return
				}
				if err := k.RenameCoffer(th, path, path+"x"); err != nil {
					t.Errorf("RenameCoffer: %v", err)
				}
				if err := k.CofferShrink(th, id, exts[:1]); err != nil {
					t.Errorf("CofferShrink: %v", err)
				}
				if _, err := k.ReportViolation(th, id); err != nil {
					t.Errorf("ReportViolation: %v", err)
				}
				if err := k.CofferDelete(th, id); err != nil {
					t.Errorf("CofferDelete: %v", err)
				}
			}
		}(g)
	}
	wg.Wait()

	rep := reg.Snapshot()
	for _, inv := range rep.Inversions {
		if strings.HasPrefix(inv.A, "kernfs.") || strings.HasPrefix(inv.B, "kernfs.") {
			t.Errorf("lock-order inversion %s vs %s:\n  forward: %+v\n  backward: %+v",
				inv.A, inv.B, inv.Forward, inv.Backward)
		}
	}
}

// TestCrashMidRefillLeakFree: a crash while a grant batch is in flight —
// pages extracted from the free shards but not yet published in the
// allocation table — must lose nothing. Before the crash the in-flight batch
// keeps the three-way check balanced; after remount the table (which never
// saw the batch) is the authority and the pages are free again.
func TestCrashMidRefillLeakFree(t *testing.T) {
	dev, k := newFS(t)
	freeBefore := k.FreePages()

	exts, err := k.space.takeFree(nil, 42, 64, nil)
	if err != nil {
		t.Fatalf("takeFree: %v", err)
	}
	var staged int64
	for _, e := range exts {
		staged += e.Count
	}
	if staged != 64 {
		t.Fatalf("staged %d pages, want 64", staged)
	}
	if free := k.FreePages(); free != freeBefore-64 {
		t.Fatalf("free pages with batch in flight = %d, want %d", free, freeBefore-64)
	}
	if err := k.VerifySpace(); err != nil {
		t.Fatalf("VerifySpace with batch in flight: %v", err)
	}

	// Crash: volatile state (shards, owner trees, in-flight set) evaporates;
	// the persistent table never recorded the staged pages.
	k2, err := Mount(dev)
	if err != nil {
		t.Fatalf("remount: %v", err)
	}
	if free := k2.FreePages(); free != freeBefore {
		t.Fatalf("crash mid-refill leaked: %d free after remount, want %d", free, freeBefore)
	}
	if err := k2.VerifySpace(); err != nil {
		t.Fatalf("VerifySpace after remount: %v", err)
	}
}
