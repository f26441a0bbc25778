package kernfs

import (
	"fmt"
	"sync"
	"testing"

	"zofs/internal/coffer"
	"zofs/internal/perfmodel"
	"zofs/internal/proc"
)

// missCost is what the backwards parse charges for a path that resolves at
// its depth-th prefix counted from the full path (1 = the path itself is a
// coffer root): one hash probe per prefix tried, one component step per
// prefix that missed.
func missCost(depth int64) int64 {
	return depth*perfmodel.CPUHashLookup + (depth-1)*perfmodel.CPUPathComponent
}

// resolveCost resolves path on th and returns the answer with what it cost.
func resolveCost(k *KernFS, th *proc.Thread, path string) (coffer.ID, string, int64) {
	t0 := th.Clk.Now()
	id, prefix, _ := k.ResolveLongest(th.Clk, path)
	return id, prefix, th.Clk.Now() - t0
}

// TestResolveMemoHitMissRule pins the rule prefix ⊑ asked ⊑ memoised path:
// which second resolves are served from the memo (one component compare), and
// that hit or miss the answer is the one a thread without a memo gets.
func TestResolveMemoHitMissRule(t *testing.T) {
	_, k := newFS(t)
	root := mountedThread(t, k, 0, 0)
	a, _ := k.CofferNew(root, k.RootCoffer(), "/a", coffer.TypeZoFS, 0o755, 0, 0, 3)
	if _, err := k.CofferNew(root, a, "/a/b", coffer.TypeZoFS, 0o755, 0, 0, 3); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name, memo, asked string
		hit               bool
	}{
		{"same path", "/a/b/c/d.txt", "/a/b/c/d.txt", true},
		{"parent", "/a/b/c/d.txt", "/a/b/c", true},
		{"the matched prefix itself", "/a/b/c/d.txt", "/a/b", true},
		{"above the matched prefix", "/a/b/c/d.txt", "/a", false},
		{"sibling", "/a/b/c/d.txt", "/a/b/c/e.txt", false},
		{"descendant", "/a/b/c", "/a/b/c/d.txt", false},
		{"string prefix, not a component", "/a/bc/x", "/a/b", false},
		{"string prefix of the last name", "/a/b/cd", "/a/b/c", false},
		{"memoised path is a coffer root", "/a/b", "/a/b", true},
		{"coffer root memo, its parent", "/a/b", "/a", false},
		{"root coffer, asked is /", "/zzz/y", "/", true},
		{"root coffer, parent", "/zzz/y", "/zzz", true},
	} {
		t.Run(c.name, func(t *testing.T) {
			th := root.Proc.NewThread()
			k.ResolveLongest(th.Clk, c.memo)
			id, prefix, cost := resolveCost(k, th, c.asked)
			wantID, wantPrefix, full := resolveCost(k, root.Proc.NewThread(), c.asked)
			if id != wantID || prefix != wantPrefix {
				t.Fatalf("after %q, %q resolved to (%d, %q), a fresh thread gets (%d, %q)",
					c.memo, c.asked, id, prefix, wantID, wantPrefix)
			}
			want := full
			if c.hit {
				want = perfmodel.CPUPathComponent
			}
			if cost != want {
				t.Fatalf("after %q, resolving %q cost %d vns, want %d (hit=%v, full parse %d)",
					c.memo, c.asked, cost, want, c.hit, full)
			}
		})
	}
}

// TestResolveMemoCost pins both prices: a miss is the full backwards parse,
// unchanged by the memo's existence, and a hit is one component compare —
// charged, not free.
func TestResolveMemoCost(t *testing.T) {
	_, k := newFS(t)
	th := mountedThread(t, k, 0, 0)
	if _, _, c := resolveCost(k, th, "/d/e/f"); c != missCost(4) || c != 195 {
		t.Fatalf("cold resolve of a depth-3 path = %d vns, want %d", c, missCost(4))
	}
	if _, _, c := resolveCost(k, th, "/d/e"); c != 25 {
		t.Fatalf("memo hit = %d vns, want %d", c, perfmodel.CPUPathComponent)
	}
	if _, _, c := resolveCost(k, th, "/d/x"); c != missCost(3) || c != 140 {
		t.Fatalf("miss beside a memo = %d vns, want %d", c, missCost(3))
	}
	// Without a clock there is nothing to charge and nothing to ride on.
	if id, _, ok := k.ResolveLongest(nil, "/d/e/f"); !ok || id != k.RootCoffer() {
		t.Fatalf("clock-less resolve = %d,%v", id, ok)
	}
}

// TestResolveMemoInvalidation changes the path table between two resolves of
// one thread — by that thread and by another — in each way the kernel can, and
// requires the second resolve to see the change.
func TestResolveMemoInvalidation(t *testing.T) {
	type env struct {
		k       *KernFS
		th, th2 *proc.Thread
		a       coffer.ID
	}
	setup := func(t *testing.T) env {
		_, k := newFS(t)
		th := mountedThread(t, k, 0, 0)
		a, err := k.CofferNew(th, k.RootCoffer(), "/a", coffer.TypeZoFS, 0o755, 0, 0, 3)
		if err != nil {
			t.Fatal(err)
		}
		return env{k, th, mountedThread(t, k, 0, 0), a}
	}
	expect := func(t *testing.T, e env, path string, id coffer.ID, prefix string) {
		t.Helper()
		if got, p, ok := e.k.ResolveLongest(e.th.Clk, path); !ok || got != id || p != prefix {
			t.Fatalf("ResolveLongest(%q) = (%d, %q, %v), want (%d, %q)", path, got, p, ok, id, prefix)
		}
	}

	t.Run("create at a memoised path", func(t *testing.T) {
		e := setup(t)
		expect(t, e, "/a/x/y", e.a, "/a")
		ax, err := e.k.CofferNew(e.th, e.a, "/a/x", coffer.TypeZoFS, 0o700, 0, 0, 3)
		if err != nil {
			t.Fatal(err)
		}
		expect(t, e, "/a/x/y", ax, "/a/x")
		expect(t, e, "/a/x", ax, "/a/x")
	})
	t.Run("create by another thread between two ops", func(t *testing.T) {
		e := setup(t)
		expect(t, e, "/a/x/y", e.a, "/a")
		ax, err := e.k.CofferNew(e.th2, e.a, "/a/x", coffer.TypeZoFS, 0o700, 0, 0, 3)
		if err != nil {
			t.Fatal(err)
		}
		expect(t, e, "/a/x", ax, "/a/x")
	})
	t.Run("delete", func(t *testing.T) {
		e := setup(t)
		ax, _ := e.k.CofferNew(e.th, e.a, "/a/x", coffer.TypeZoFS, 0o700, 0, 0, 3)
		expect(t, e, "/a/x/y", ax, "/a/x")
		if err := e.k.CofferDelete(e.th2, ax); err != nil {
			t.Fatal(err)
		}
		expect(t, e, "/a/x/y", e.a, "/a")
	})
	t.Run("split and merge", func(t *testing.T) {
		e := setup(t)
		if _, err := e.k.CofferMap(e.th, e.a, true); err != nil {
			t.Fatal(err)
		}
		exts, err := e.k.CofferEnlarge(e.th, e.a, 2, true)
		if err != nil {
			t.Fatal(err)
		}
		pages := flatten(exts)
		expect(t, e, "/a/f", e.a, "/a")
		sp, err := e.k.CofferSplit(e.th, e.a, "/a/f", 0o600, 0, 0, pages, pages[0], pages[1])
		if err != nil {
			t.Fatal(err)
		}
		expect(t, e, "/a/f", sp, "/a/f")
		if err := e.k.SetCofferMeta(e.th, sp, 0o755, 0, 0); err != nil {
			t.Fatal(err)
		}
		if err := e.k.CofferMerge(e.th, e.a, sp); err != nil {
			t.Fatal(err)
		}
		expect(t, e, "/a/f", e.a, "/a")
	})
	t.Run("RenameCoffer", func(t *testing.T) {
		e := setup(t)
		expect(t, e, "/a/f", e.a, "/a")
		if err := e.k.RenameCoffer(e.th2, "/a", "/z"); err != nil {
			t.Fatal(err)
		}
		expect(t, e, "/a/f", e.k.RootCoffer(), "/")
		expect(t, e, "/z/f", e.a, "/z")
	})
	t.Run("RenamePrefix", func(t *testing.T) {
		e := setup(t)
		ab, _ := e.k.CofferNew(e.th, e.a, "/a/d/b", coffer.TypeZoFS, 0o700, 0, 0, 3)
		expect(t, e, "/a/d/b/f", ab, "/a/d/b")
		if err := e.k.RenamePrefix(e.th2, "/a/d", "/a/e"); err != nil {
			t.Fatal(err)
		}
		expect(t, e, "/a/d/b/f", e.a, "/a")
		expect(t, e, "/a/e/b/f", ab, "/a/e/b")
	})
}

// TestResolveMemoRemount is the crash/remount case: a thread that outlives
// its kernel instance carries a memo into the next one. The new table starts
// at the sequence number the old one had — only table identity tells them
// apart — and holds a coffer the old one never saw.
func TestResolveMemoRemount(t *testing.T) {
	dev, k1 := newFS(t)
	th := mountedThread(t, k1, 0, 0)
	if id, p, _ := k1.ResolveLongest(th.Clk, "/x/y"); id != k1.RootCoffer() || p != "/" {
		t.Fatalf("before: (%d, %q)", id, p)
	}
	// Another kernel instance over the same media adds /x ...
	k2, err := Mount(dev)
	if err != nil {
		t.Fatal(err)
	}
	x, err := k2.CofferNew(mountedThread(t, k2, 0, 0), k2.RootCoffer(), "/x", coffer.TypeZoFS, 0o755, 0, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	// ... and the machine comes back up with a table whose seq is again 0.
	k3, err := Mount(dev)
	if err != nil {
		t.Fatal(err)
	}
	if s1, s3 := k1.paths.seq.Load(), k3.paths.seq.Load(); s1 != s3 {
		t.Fatalf("test premise: seq %d vs %d should be equal", s1, s3)
	}
	id, p, cost := resolveCost(k3, th, "/x/y")
	if id != x || p != "/x" {
		t.Fatalf("after remount: (%d, %q), want (%d, \"/x\")", id, p, x)
	}
	if cost != missCost(2) {
		t.Fatalf("after remount the resolve cost %d vns, want a full parse (%d)", cost, missCost(2))
	}
}

// TestResolveMemoConcurrentSplitMerge is for -race: resolvers keep their
// memos warm on paths under a coffer that a writer creates and deletes
// underneath them. Every answer must be one of the two that were ever true,
// and once the writer is done every thread must agree with the table.
func TestResolveMemoConcurrentSplitMerge(t *testing.T) {
	_, k := newFS(t)
	rootTh := mountedThread(t, k, 0, 0)
	r, err := k.CofferNew(rootTh, k.RootCoffer(), "/r", coffer.TypeZoFS, 0o755, 0, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	const resolvers = 8
	var wg sync.WaitGroup
	stop := make(chan struct{})
	errs := make(chan error, resolvers)
	threads := make([]*proc.Thread, resolvers)
	for i := range threads {
		threads[i] = mountedThread(t, k, 0, 0)
		wg.Add(1)
		go func(th *proc.Thread) {
			defer wg.Done()
			for n := 0; ; n++ {
				select {
				case <-stop:
					return
				default:
				}
				path := "/r/s/f"
				if n%2 == 1 {
					path = "/r/s"
				}
				id, p, ok := k.ResolveLongest(th.Clk, path)
				if !ok || (p == "/r") != (id == r) || (p != "/r" && p != "/r/s") {
					errs <- fmt.Errorf("ResolveLongest(%q) = (%d, %q, %v)", path, id, p, ok)
					return
				}
			}
		}(threads[i])
	}
	// The writer's error is reported only after the resolvers have stopped.
	var last coffer.ID
	for i := 0; i <= 200 && err == nil; i++ {
		if last, err = k.CofferNew(rootTh, r, "/r/s", coffer.TypeZoFS, 0o700, 0, 0, 3); err == nil && i < 200 {
			err = k.CofferDelete(rootTh, last)
		}
	}
	close(stop)
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	for _, th := range threads {
		if id, p, ok := k.ResolveLongest(th.Clk, "/r/s/f"); !ok || id != last || p != "/r/s" {
			t.Fatalf("after the writer stopped: (%d, %q, %v), want (%d, \"/r/s\")", id, p, ok, last)
		}
	}
}
