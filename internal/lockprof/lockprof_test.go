package lockprof_test

import (
	"strconv"
	"strings"
	"sync"
	"testing"

	"zofs/internal/lockprof"
	"zofs/internal/openmetrics"
	"zofs/internal/simclock"
	"zofs/internal/sysfactory"
	"zofs/internal/zofs"
)

// thread builds a clock with an attached profiler state.
func thread(reg *lockprof.Registry, tid int) *simclock.Clock {
	c := simclock.NewClock()
	c.SetLockState(reg.NewThreadState(tid))
	return c
}

func TestWaitAndHoldRecorded(t *testing.T) {
	reg := lockprof.Enable(lockprof.Config{})
	defer lockprof.Disable()

	m := lockprof.NewMutex("test.lock", "a")
	c1, c2 := thread(reg, 1), thread(reg, 2)

	m.Lock(c1)
	c1.Advance(100)
	m.Unlock(c1)

	m.Lock(c2) // c2 at t=0 drains behind c1's release at 100
	if c2.Now() != 100 {
		t.Fatalf("waiter clock = %d, want 100", c2.Now())
	}
	c2.Advance(50)
	m.Unlock(c2)

	rep := reg.Snapshot()
	if rep.Acquires != 2 || rep.Contended != 1 {
		t.Fatalf("acquires/contended = %d/%d, want 2/1", rep.Acquires, rep.Contended)
	}
	if rep.WaitNS != 100 {
		t.Fatalf("wait = %d, want 100", rep.WaitNS)
	}
	if rep.HoldNS != 150 {
		t.Fatalf("hold = %d, want 150 (100 + 50)", rep.HoldNS)
	}
	if len(rep.Locks) != 1 || rep.Locks[0].Lock != "test.lock/a" {
		t.Fatalf("lock rows = %+v", rep.Locks)
	}
	if rep.Locks[0].LastTID != 2 {
		t.Fatalf("last holder tid = %d, want 2", rep.Locks[0].LastTID)
	}
	if reg.HeldNow() != 0 {
		t.Fatalf("held now = %d, want 0", reg.HeldNow())
	}
	// One blocked interval, blaming the first holder.
	bl := reg.Blocked()
	if len(bl) != 1 || bl[0].TID != 2 || bl[0].HolderTID != 1 || bl[0].DurNS != 100 {
		t.Fatalf("blocked intervals = %+v", bl)
	}
}

// TestOrderInversionDetection constructs an A→B / B→A history and asserts
// the inversion is reported with both stacks' lock names.
func TestOrderInversionDetection(t *testing.T) {
	reg := lockprof.Enable(lockprof.Config{})
	defer lockprof.Disable()

	a := lockprof.NewMutex("lockA", "x")
	b := lockprof.NewMutex("lockB", "y")
	c1, c2 := thread(reg, 1), thread(reg, 2)

	a.Lock(c1)
	b.Lock(c1)
	b.Unlock(c1)
	a.Unlock(c1)

	b.Lock(c2)
	a.Lock(c2)
	a.Unlock(c2)
	b.Unlock(c2)

	rep := reg.Snapshot()
	if len(rep.Inversions) != 1 {
		t.Fatalf("inversions = %+v, want exactly 1", rep.Inversions)
	}
	inv := rep.Inversions[0]
	classes := inv.A + "/" + inv.B
	if !(strings.Contains(classes, "lockA") && strings.Contains(classes, "lockB")) {
		t.Fatalf("inversion classes = %q/%q", inv.A, inv.B)
	}
	// Forward evidence: lockA/x held when lockB/y acquired (tid 1).
	if inv.Forward.TID != 1 || len(inv.Forward.Held) != 1 || inv.Forward.Held[0] != "lockA/x" || inv.Forward.Acquired != "lockB/y" {
		t.Fatalf("forward evidence = %+v", inv.Forward)
	}
	if inv.Backward.TID != 2 || len(inv.Backward.Held) != 1 || inv.Backward.Held[0] != "lockB/y" || inv.Backward.Acquired != "lockA/x" {
		t.Fatalf("backward evidence = %+v", inv.Backward)
	}
	// A consistent-order second thread must not add inversions.
	c3 := thread(reg, 3)
	a.Lock(c3)
	b.Lock(c3)
	b.Unlock(c3)
	a.Unlock(c3)
	if got := len(reg.Snapshot().Inversions); got != 1 {
		t.Fatalf("inversions after consistent order = %d, want 1", got)
	}
}

// TestHistogramSaturation512 hammers one lock from 512 concurrent threads
// and asserts the counters stay exactly consistent (histogram counts equal
// acquires, conservation holds, nothing leaks) under the race detector.
func TestHistogramSaturation512(t *testing.T) {
	reg := lockprof.Enable(lockprof.Config{})
	defer lockprof.Disable()

	const threads, rounds = 512, 4
	m := lockprof.NewMutex("test.hot", "")
	var wg sync.WaitGroup
	for i := 0; i < threads; i++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			c := thread(reg, tid)
			for r := 0; r < rounds; r++ {
				m.Lock(c)
				c.Advance(10)
				m.Unlock(c)
			}
		}(i + 1)
	}
	wg.Wait()

	rep := reg.Snapshot()
	if rep.Acquires != threads*rounds {
		t.Fatalf("acquires = %d, want %d", rep.Acquires, threads*rounds)
	}
	if rep.Contended == 0 || rep.WaitNS == 0 {
		t.Fatalf("expected contention under 512 threads, got contended=%d wait=%d", rep.Contended, rep.WaitNS)
	}
	if reg.HeldNow() != 0 {
		t.Fatalf("held now = %d, want 0", reg.HeldNow())
	}
	var lockSum int64
	for _, l := range rep.Locks {
		lockSum += l.WaitNS
	}
	if lockSum != rep.WaitNS {
		t.Fatalf("per-lock waits sum to %d, total %d", lockSum, rep.WaitNS)
	}
	var thSum int64
	for _, th := range rep.Threads {
		thSum += th.WaitNS
	}
	if thSum != rep.WaitNS {
		t.Fatalf("per-thread waits sum to %d, total %d", thSum, rep.WaitNS)
	}
	// The OpenMetrics rendering of a saturated report must validate.
	var om strings.Builder
	if err := rep.WriteOpenMetrics(&om); err != nil {
		t.Fatal(err)
	}
	doc, err := openmetrics.Parse(strings.NewReader(om.String() + "# EOF\n"))
	if err != nil {
		t.Fatal(err)
	}
	if err := lockprof.CheckOpenMetrics(doc); err != nil {
		t.Fatalf("OpenMetrics validation: %v", err)
	}
}

// TestOverflowFolding checks the bounded registry folds instances past the
// cap into per-class ~other rows instead of growing without bound.
func TestOverflowFolding(t *testing.T) {
	reg := lockprof.Enable(lockprof.Config{})
	defer lockprof.Disable()

	c := thread(reg, 1)
	for i := 0; i < 1200; i++ {
		m := lockprof.NewMutex("test.many", strconv.Itoa(i))
		m.Lock(c)
		m.Unlock(c)
	}
	rep := reg.Snapshot()
	if rep.LocksDropped == 0 {
		t.Fatalf("expected folded instances past the cap, dropped = 0")
	}
	var other bool
	var acq int64
	for _, l := range rep.Locks {
		acq += l.Acquires
		if l.Overflow && l.Class == "test.many" {
			other = true
		}
	}
	if !other {
		t.Fatalf("no test.many/~other overflow row in %d rows", len(rep.Locks))
	}
	if acq != 1200 {
		t.Fatalf("acquires across rows = %d, want 1200 (folding must not lose counts)", acq)
	}
}

func TestRealMutexCountsContention(t *testing.T) {
	reg := lockprof.Enable(lockprof.Config{})
	defer lockprof.Disable()

	m := lockprof.NewRealMutex("test.real", "r")
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 200; j++ {
				m.Lock()
				m.Unlock() //nolint:staticcheck // deliberate tiny critical section
			}
		}()
	}
	wg.Wait()
	rep := reg.Snapshot()
	if len(rep.Locks) != 1 || !rep.Locks[0].Real {
		t.Fatalf("lock rows = %+v, want one real row", rep.Locks)
	}
	if rep.Locks[0].Acquires != 1600 {
		t.Fatalf("acquires = %d, want 1600", rep.Locks[0].Acquires)
	}
	if rep.WaitNS != 0 {
		t.Fatalf("real lock leaked %d ns into the virtual wait total", rep.WaitNS)
	}
}

// TestResetAcrossRemount is the crashmc-style assertion: after a ZoFS
// workload, ResetShared plus Registry.Reset must leave no trace of the old
// instance's locks, and a fresh mount repopulates cleanly.
func TestResetAcrossRemount(t *testing.T) {
	reg := lockprof.Enable(lockprof.Config{})
	defer lockprof.Disable()

	run := func() {
		in, err := sysfactory.ZoFS.New(64 << 20)
		if err != nil {
			t.Fatal(err)
		}
		th := in.Proc.NewThread()
		if err := in.FS.Mkdir(th, "/d", 0o755); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 32; i++ {
			h, err := in.FS.Create(th, "/d/f"+strconv.Itoa(i), 0o644)
			if err != nil {
				t.Fatal(err)
			}
			h.Close(th)
		}
		// Simulate the crash edge crash tests use: all volatile shared
		// state (including the shared lock table) dies with the processes.
		zofs.ResetShared(in.Dev)
	}

	run()
	rep := reg.Snapshot()
	if rep.Acquires == 0 {
		t.Fatalf("workload recorded no acquisitions")
	}
	sawZofs := false
	for _, l := range rep.Locks {
		if strings.HasPrefix(l.Lock, "zofs.") || strings.HasPrefix(l.Lock, "kernfs.") {
			sawZofs = true
		}
	}
	if !sawZofs {
		t.Fatalf("no zofs/kernfs locks in report: %+v", rep.Locks)
	}
	if reg.HeldNow() != 0 {
		t.Fatalf("held now = %d after workload, want 0", reg.HeldNow())
	}

	reg.Reset()
	rep = reg.Snapshot()
	if rep.Acquires != 0 || rep.WaitNS != 0 || len(rep.Locks) != 0 || len(rep.Edges) != 0 || len(rep.Threads) != 0 {
		t.Fatalf("state survived Reset: %+v", rep)
	}
	if reg.HeldNow() != 0 {
		t.Fatalf("held now = %d after Reset, want 0", reg.HeldNow())
	}

	// Remount: stale wrapper caches must re-register, not resurrect.
	run()
	rep = reg.Snapshot()
	if rep.Acquires == 0 {
		t.Fatalf("post-remount workload recorded no acquisitions")
	}
	if reg.HeldNow() != 0 {
		t.Fatalf("held now = %d after remount workload, want 0", reg.HeldNow())
	}
}

// TestDisabledIsTransparent checks the disabled path records nothing and a
// registry that is no longer active stops receiving data.
func TestDisabledIsTransparent(t *testing.T) {
	reg := lockprof.Enable(lockprof.Config{})
	c := thread(reg, 1)
	m := lockprof.NewMutex("test.gate", "")
	m.Lock(c)
	m.Unlock(c)
	lockprof.Disable()
	m.Lock(c)
	m.Unlock(c)
	if got := reg.Snapshot().Acquires; got != 1 {
		t.Fatalf("acquires = %d, want 1 (post-Disable acquisition recorded)", got)
	}
}

// TestWriteDOTFoldsAllocatorShards drives contention through three allocator
// shard locks (plus the registry lock held across each wait) and checks the
// DOT rendering collapses the per-shard nodes into one kernfs.freeshard/*
// node annotated with the shard count, with the shard-bound edges and waits
// aggregated onto it.
func TestWriteDOTFoldsAllocatorShards(t *testing.T) {
	reg := lockprof.Enable(lockprof.Config{})
	defer lockprof.Disable()

	registry := lockprof.NewMutex("kernfs.registry", "")
	var shards []*lockprof.Mutex
	for i := 0; i < 3; i++ {
		shards = append(shards, lockprof.NewMutex("kernfs.freeshard", strconv.Itoa(i)))
	}

	// c1 stamps each shard's release at 100, 200, 300 virtual ns; c2 then
	// contends on each while holding the registry lock, producing one
	// registry -> shard edge per shard.
	c1 := thread(reg, 1)
	for _, sh := range shards {
		sh.Lock(c1)
		c1.Advance(100)
		sh.Unlock(c1)
	}
	c2 := thread(reg, 2)
	for _, sh := range shards {
		registry.Lock(c2)
		sh.Lock(c2)
		sh.Unlock(c2)
		registry.Unlock(c2)
	}

	rep := reg.Snapshot()
	if len(rep.Edges) != 3 {
		t.Fatalf("edges = %+v, want 3 registry->shard edges", rep.Edges)
	}
	var dot strings.Builder
	if err := rep.WriteDOT(&dot); err != nil {
		t.Fatalf("WriteDOT: %v", err)
	}
	out := dot.String()
	if !strings.Contains(out, `kernfs.freeshard/* (3 shards)`) {
		t.Fatalf("no folded shard node with count:\n%s", out)
	}
	for i := 0; i < 3; i++ {
		if strings.Contains(out, `"kernfs.freeshard/`+strconv.Itoa(i)+`"`) {
			t.Fatalf("per-shard node %d leaked into DOT:\n%s", i, out)
		}
	}
	if !strings.Contains(out, `"kernfs.registry" -> "kernfs.freeshard/*" [label="3 waits`) {
		t.Fatalf("shard edges were not aggregated:\n%s", out)
	}
	// The folded node carries the summed per-shard wait (3 x 100ns).
	if !strings.Contains(out, "kernfs.freeshard/* (3 shards)\\nwait 0.000 ms") {
		t.Fatalf("folded node label missing aggregated wait:\n%s", out)
	}
}

// TestBlockedIn: the exemplar helper filters the blocked ring by thread and
// interval overlap (inclusive at both ends).
func TestBlockedIn(t *testing.T) {
	reg := lockprof.Enable(lockprof.Config{})
	defer lockprof.Disable()

	m := lockprof.NewMutex("test.lock", "a")
	c1, c2 := thread(reg, 1), thread(reg, 2)
	m.Lock(c1)
	c1.Advance(100)
	m.Unlock(c1)
	m.Lock(c2) // blocked on [0, 100] behind c1
	m.Unlock(c2)

	bl := reg.BlockedIn(2, 50, 150)
	if len(bl) != 1 || bl[0].HolderTID != 1 || bl[0].DurNS != 100 {
		t.Fatalf("overlapping query = %+v, want the one 100ns interval", bl)
	}
	if bl = reg.BlockedIn(2, 100, 200); len(bl) != 1 {
		t.Fatalf("boundary-touching query = %+v, want inclusive overlap", bl)
	}
	if bl = reg.BlockedIn(2, 101, 200); len(bl) != 0 {
		t.Fatalf("disjoint query = %+v, want none", bl)
	}
	if bl = reg.BlockedIn(1, 0, 200); len(bl) != 0 {
		t.Fatalf("wrong-thread query = %+v, want none", bl)
	}
}
