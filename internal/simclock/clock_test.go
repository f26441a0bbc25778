package simclock

import (
	"slices"
	"sync"
	"testing"
	"testing/quick"
)

func TestClockAdvance(t *testing.T) {
	c := NewClock()
	if c.Now() != 0 {
		t.Fatalf("new clock Now() = %d, want 0", c.Now())
	}
	c.Advance(100)
	if c.Now() != 100 {
		t.Fatalf("Now() = %d, want 100", c.Now())
	}
	c.Advance(-50) // negative advances are ignored
	if c.Now() != 100 {
		t.Fatalf("Now() after negative advance = %d, want 100", c.Now())
	}
	c.AdvanceTo(80) // past times are ignored
	if c.Now() != 100 {
		t.Fatalf("Now() after AdvanceTo(80) = %d, want 100", c.Now())
	}
	c.AdvanceTo(250)
	if c.Now() != 250 {
		t.Fatalf("Now() after AdvanceTo(250) = %d, want 250", c.Now())
	}
}

func TestClockAt(t *testing.T) {
	c := NewClockAt(500)
	if c.Now() != 500 {
		t.Fatalf("NewClockAt(500).Now() = %d", c.Now())
	}
}

// probe returns the virtual time the resource next accepts work at: when
// its queued work has drained.
func probe(r *Resource) int64 { return r.Enqueue(NewClock(), 0) }

func TestResourceSerializes(t *testing.T) {
	var r Resource
	a, b := NewClock(), NewClock()

	acceptedA := r.Enqueue(a, 100)
	if acceptedA != 0 || a.Now() != 0 {
		t.Fatalf("first unit: accepted=%d now=%d, want 0/0", acceptedA, a.Now())
	}
	acceptedB := r.Enqueue(b, 100)
	if acceptedB != 100 || b.Now() != 100 {
		t.Fatalf("queued unit: accepted=%d now=%d, want 100/100 (accepted once the first drained)", acceptedB, b.Now())
	}
	if end := probe(&r); end != 200 {
		t.Fatalf("work drains at %d, want 200", end)
	}
}

func TestResourceIdleGap(t *testing.T) {
	var r Resource
	r.Enqueue(NewClock(), 10) // busy until 10
	late := NewClockAt(1000)
	accepted := r.Enqueue(late, 5)
	if accepted != 1000 || late.Now() != 1000 {
		t.Fatalf("idle resource should accept at arrival: accepted=%d now=%d", accepted, late.Now())
	}
}

func TestResourceThroughputCeiling(t *testing.T) {
	// N threads each handing over units of 100ns must see the resource work
	// through exactly 1 unit / 100ns regardless of N.
	var r Resource
	const threads, opsPer = 8, 100
	var wg sync.WaitGroup
	for i := 0; i < threads; i++ {
		wg.Add(1)
		go func(c *Clock) {
			defer wg.Done()
			for j := 0; j < opsPer; j++ {
				r.Enqueue(c, 100)
			}
		}(NewClock())
	}
	wg.Wait()
	if end, want := probe(&r), int64(threads*opsPer*100); end != want {
		t.Fatalf("serialized end time = %d, want %d", end, want)
	}
}

func TestBandwidthCeiling(t *testing.T) {
	// 1 GB/s; 1 MB transfer should hold the channel ~1ms.
	bw := NewBandwidth(1e9)
	a, b := NewClock(), NewClock()
	bw.Transfer(a, 1<<20)
	bw.Transfer(b, 1<<20)
	holdA, holdB := a.Now(), b.Now()
	if holdA < 1_000_000 || holdA > 1_100_000 {
		t.Fatalf("first transfer time %d, want ~1.05ms", holdA)
	}
	if holdB < 2*holdA-1000 || holdB > 2*holdA+1000 {
		t.Fatalf("second transfer should queue: %d vs first %d", holdB, holdA)
	}
	if bw.TotalBytes() != 2<<20 {
		t.Fatalf("TotalBytes = %d", bw.TotalBytes())
	}
}

func TestBandwidthUnqueuedOverlaps(t *testing.T) {
	bw := NewBandwidth(1e9)
	a, b := NewClock(), NewClock()
	bw.TransferUnqueued(a, 1<<20)
	bw.TransferUnqueued(b, 1<<20)
	if a.Now() != b.Now() {
		t.Fatalf("unqueued transfers must not serialize: %d vs %d", a.Now(), b.Now())
	}
}

func TestBandwidthDegradation(t *testing.T) {
	bw := NewBandwidth(1e9)
	c := NewClock()
	bw.Transfer(c, 1000)
	base := c.Now()
	bw.Reset()
	bw.SetDegradation(0.5)
	c2 := NewClock()
	bw.Transfer(c2, 1000)
	if c2.Now() < 2*base-100 || c2.Now() > 2*base+100 {
		t.Fatalf("degraded transfer = %d, want ~2x %d", c2.Now(), base)
	}
	// Invalid factors fall back to 1.
	bw.SetDegradation(0)
	c3 := NewClock()
	bw.Reset()
	bw.Transfer(c3, 1000)
	if c3.Now() != base {
		t.Fatalf("invalid degradation should reset to 1: %d vs %d", c3.Now(), base)
	}
}

func TestResourceReset(t *testing.T) {
	var r Resource
	r.Enqueue(NewClock(), 1000)
	r.Reset()
	if end := probe(&r); end != 0 {
		t.Fatalf("reset resource accepts at %d, want 0", end)
	}
}

// Property: a resource never starts two units at once, never accepts work
// before it arrives, and its caller waits for acceptance only.
func TestResourceNoOverlapProperty(t *testing.T) {
	f := func(holds []uint16) bool {
		var r Resource
		var prevEnd int64 = -1
		c := NewClock()
		for _, h := range holds {
			hold := int64(h % 1000)
			arrival := c.Now()
			accepted := r.Enqueue(c, hold)
			if accepted < arrival || accepted < prevEnd {
				return false
			}
			if c.Now() != accepted {
				return false
			}
			prevEnd = accepted + hold
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: concurrent Enqueue calls keep the resource busy for exactly the
// sum of the holds (no lost or double-counted work).
func TestResourceConservationProperty(t *testing.T) {
	var r Resource
	const threads = 4
	var wg sync.WaitGroup
	var sum int64
	var mu sync.Mutex
	for i := 0; i < threads; i++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			c := NewClock()
			var local int64
			for j := int64(0); j < 50; j++ {
				h := (seed*31 + j*17) % 97
				r.Enqueue(c, h)
				local += h
			}
			mu.Lock()
			sum += local
			mu.Unlock()
		}(int64(i))
	}
	wg.Wait()
	if end := probe(&r); end != sum {
		t.Fatalf("work drains at %d, want sum of holds %d", end, sum)
	}
}

// TestEarliestPicksSmallestClockLowestIndex: Earliest skips elements that
// may not run, picks the smallest clock, breaks ties toward the lowest
// index, and reports -1 when nothing may run.
func TestEarliestPicksSmallestClockLowestIndex(t *testing.T) {
	clks := []*Clock{NewClockAt(30), NewClockAt(10), NewClockAt(20), NewClockAt(10), nil}
	earliest := func(clks []*Clock) int { return Earliest(len(clks), func(i int) *Clock { return clks[i] }) }
	if got := earliest(clks); got != 1 {
		t.Fatalf("Earliest = %d, want 1 (10 ns, lower of the tied indices)", got)
	}
	clks[1] = nil
	if got := earliest(clks); got != 3 {
		t.Fatalf("with 1 barred: Earliest = %d, want 3", got)
	}
	if got := earliest([]*Clock{nil, nil}); got != -1 {
		t.Fatalf("nothing runnable: Earliest = %d, want -1", got)
	}
	// Stepping the earliest repeatedly interleaves by virtual time.
	a, b := NewClock(), NewClockAt(2)
	var order []int
	for range 4 {
		i := earliest([]*Clock{a, b})
		order = append(order, i)
		[]*Clock{a, b}[i].Advance(4)
	}
	if want := []int{0, 1, 0, 1}; !slices.Equal(order, want) {
		t.Fatalf("step order %v, want %v", order, want)
	}
}
