package kernfs

import (
	"fmt"
	"runtime"
	"testing"

	"zofs/internal/coffer"
	"zofs/internal/lockprof"
	"zofs/internal/nvm"
	"zofs/internal/pmemtrace"
	"zofs/internal/proc"
	"zofs/internal/series"
	"zofs/internal/spans"
	"zofs/internal/telemetry"
)

// hostFS mounts a kernel on a device without persistence tracking (what the
// end-to-end benchmark runs on), with one root-owned thread that has coffer
// /k write-mapped and others sibling coffers /o0000… beside it.
func hostFS(tb testing.TB, others int) (*KernFS, *proc.Thread, coffer.ID) {
	tb.Helper()
	dev := nvm.New(nvm.Config{Size: 256 << 20})
	if err := Mkfs(dev, MkfsOptions{RootMode: 0o755}); err != nil {
		tb.Fatal(err)
	}
	k, err := Mount(dev)
	if err != nil {
		tb.Fatal(err)
	}
	th := mountedThread(tb, k, 0, 0)
	for i := 0; i < others; i++ {
		if _, err := k.CofferNew(th, k.RootCoffer(), fmt.Sprintf("/o%04d", i), coffer.TypeZoFS, 0o700, 0, 0, 3); err != nil {
			tb.Fatal(err)
		}
	}
	id, err := k.CofferNew(th, k.RootCoffer(), "/k", coffer.TypeZoFS, 0o700, 0, 0, 3)
	if err != nil {
		tb.Fatal(err)
	}
	if _, err := k.CofferMap(th, id, true); err != nil {
		tb.Fatal(err)
	}
	return k, th, id
}

func newDelete(tb testing.TB, k *KernFS, th *proc.Thread, parent coffer.ID) {
	id, err := k.CofferNew(th, parent, "/k/tmp", coffer.TypeZoFS, 0o600, 0, 0, 3)
	if err != nil {
		tb.Fatal(err)
	}
	if err := k.CofferDelete(th, id); err != nil {
		tb.Fatal(err)
	}
}

// TestAllocBudget pins the kernel agent's own heap allocations per call with
// every collector off. What remains is what a call creates and keeps — a
// coffer's record, a path's entry in the mirror; nothing is allocated to look
// a coffer up, to walk its extents, to build a persistent image, to box a key
// or a value for a table, to publish a root page or to label a lock.
func TestAllocBudget(t *testing.T) {
	if telemetry.Active() != nil || spans.Active() != nil || series.Active() != nil ||
		lockprof.Active() != nil || pmemtrace.Active() != nil {
		t.Fatal("a collector is on: the budget is stated with all of them off")
	}
	k, th, id := hostFS(t, 10)
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	grant, err := k.CofferEnlarge(th, id, 4, false)
	must(err)
	pages := flatten(grant)
	other := mountedThread(t, k, 0, 0) // its memo never sees th's paths
	from, to := "/k", "/k2"

	cases := []struct {
		name string
		max  float64
		f    func()
	}{
		{"LookupPath", 0, func() { k.LookupPath(th.Clk, "/k") }},
		{"ResolveLongest memo hit", 0, func() { k.ResolveLongest(th.Clk, "/k/a/b/c/file") }},
		{"ResolveLongest memo miss", 0, func() {
			k.ResolveLongest(other.Clk, "/k/a/b/c/file")
			k.ResolveLongest(other.Clk, "/o0003/x")
		}},
		// The extent slice handed to the caller.
		{"CofferEnlarge(16)+CofferShrink", 1, func() {
			e, err := k.CofferEnlarge(th, id, 16, false)
			must(err)
			must(k.CofferShrink(th, id, e))
		}},
		{"CofferMap+CofferUnmap", 0, func() {
			_, err := k.CofferMap(th, id, true)
			must(err)
			must(k.CofferUnmap(th, id))
		}},
		// The cofferInfo (root-page snapshot and first path inside it; the
		// mapper table waits for a coffer_map, the lock label for a profiler)
		// and the path mirror's entry. The registry slot is there already.
		{"CofferNew+CofferDelete", 2, func() { newDelete(t, k, th, id) }},
		// As CofferNew.
		{"CofferSplit+CofferMerge", 2, func() {
			sid, err := k.CofferSplit(th, id, "/k/split", 0o600, 0, 0, pages[:3], pages[0], pages[1])
			must(err)
			must(k.CofferMerge(th, id, sid))
		}},
		// The path mirror's entry for the new path and the box the snapshot
		// publishes it in. The renamed path string is the caller's.
		{"RenameCoffer", 2, func() {
			must(k.RenameCoffer(th, from, to))
			from, to = to, from
		}},
	}
	for _, c := range cases {
		got := testing.AllocsPerRun(200, c.f)
		t.Logf("%s: %v allocs/op, budget %v", c.name, got, c.max)
		if got > c.max {
			t.Errorf("%s: over budget", c.name)
		}
	}
}

// TestCofferNewCostIndependentOfTableSize: creating and deleting a coffer
// allocates the same whether 10 or 2,000 other coffers exist — the path mirror
// is edited in place, never copied. Other goroutines of the test binary can
// only add to a window's count, so the smallest of five windows is taken.
func TestCofferNewCostIndependentOfTableSize(t *testing.T) {
	measure := func(others int) (allocs, bytes uint64) {
		k, th, id := hostFS(t, others)
		newDelete(t, k, th, id)
		const runs = 100
		allocs, bytes = 1<<63, 1<<63
		for w := 0; w < 5; w++ {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for i := 0; i < runs; i++ {
				newDelete(t, k, th, id)
			}
			runtime.ReadMemStats(&after)
			allocs = min(allocs, (after.Mallocs-before.Mallocs)/runs)
			bytes = min(bytes, (after.TotalAlloc-before.TotalAlloc)/runs)
		}
		return allocs, bytes
	}
	a10, b10 := measure(10)
	a2k, b2k := measure(2000)
	if a10 != a2k {
		t.Errorf("CofferNew+CofferDelete: %d allocs/op beside 10 coffers, %d beside 2,000", a10, a2k)
	}
	if b2k*100 > b10*105 || b2k*100 < b10*95 {
		t.Errorf("CofferNew+CofferDelete: %d B/op beside 10 coffers, %d beside 2,000", b10, b2k)
	}
}

func BenchmarkCofferNewDelete(b *testing.B) {
	for _, others := range []int{10, 2000} {
		b.Run(fmt.Sprintf("coffers=%d", others), func(b *testing.B) {
			k, th, id := hostFS(b, others)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				newDelete(b, k, th, id)
			}
		})
	}
}
