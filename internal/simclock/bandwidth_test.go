package simclock

import (
	"maps"
	"math/rand"
	"sync"
	"testing"
)

// bwByteNS is a rate of one byte per virtual nanosecond (1e9 bytes/second),
// making transfer sizes and hold times numerically equal in the tests.
const bwByteNS = 1e9

// bwPageNS is the virtual time one ledger page covers.
const bwPageNS = bwPageWindows * bwWindowNS

// windows returns every window of b's ledger that carries transfer time.
func windows(b *Bandwidth) map[int64]int64 {
	m := map[int64]int64{}
	for no, pg := range b.pages {
		for i, ns := range pg {
			if ns != 0 {
				m[no<<bwPageShift+int64(i)] = ns
			}
		}
	}
	return m
}

// refBandwidth is the ledger as one map entry per window touched: the
// reference the paged ledger is held to.
type refBandwidth struct {
	peakBps float64
	scale   uint64
	win     map[int64]int64
}

func newRefBandwidth(bps float64) *refBandwidth {
	return &refBandwidth{peakBps: bps, scale: 1024, win: map[int64]int64{}}
}

func (b *refBandwidth) setDegradation(f float64) {
	if f <= 0 || f > 1 {
		f = 1
	}
	b.scale = uint64(f * 1024)
}

func (b *refBandwidth) transfer(c *Clock, n int) {
	if n <= 0 {
		return
	}
	hold := int64(float64(n) / (b.peakBps * float64(b.scale) / 1024) * 1e9)
	t := c.Now()
	for hold > 0 {
		w := t / bwWindowNS
		avail := bwWindowNS - b.win[w]
		if avail <= 0 {
			t = (w + 1) * bwWindowNS
			continue
		}
		take := min(hold, avail, (w+1)*bwWindowNS-t)
		b.win[w] += take
		hold -= take
		t += take
		if hold > 0 && t < (w+1)*bwWindowNS {
			t = (w + 1) * bwWindowNS
		}
	}
	c.AdvanceTo(t)
}

func (b *refBandwidth) transferUnqueued(c *Clock, n int) {
	if n > 0 {
		c.Advance(int64(float64(n) / (b.peakBps * float64(b.scale) / 1024) * 1e9))
	}
}

func (b *refBandwidth) reset() {
	b.win = map[int64]int64{}
	b.scale = 1024
}

// TestBandwidthMatchesMapLedger runs seeded random streams of transfers,
// degradation changes and resets from 1–16 clocks against the paged ledger
// and the reference: clocks far apart and moved back to earlier virtual
// times, transfers across window and page boundaries, and bursts that
// saturate windows. Every clock must end at the same time and every window
// must carry the same ns.
func TestBandwidthMatchesMapLedger(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		r := rand.New(rand.NewSource(seed))
		bps := []float64{bwByteNS, 2.3e9, 0.7e9}[seed%3]
		b, ref := NewBandwidth(bps), newRefBandwidth(bps)
		nclk := 1 + r.Intn(16)
		clks, rclks := make([]*Clock, nclk), make([]*Clock, nclk)
		// start picks a virtual time near a window or page edge, or anywhere
		// in the first pages.
		start := func() int64 {
			switch r.Intn(3) {
			case 0:
				return int64(r.Intn(8))*bwPageNS - int64(r.Intn(3*bwWindowNS)) + bwPageNS
			case 1:
				return int64(r.Intn(4*bwPageWindows))*bwWindowNS - int64(r.Intn(64)) + bwWindowNS
			}
			return r.Int63n(4 * bwPageNS)
		}
		for i := range clks {
			at := start()
			clks[i], rclks[i] = NewClockAt(at), NewClockAt(at)
		}
		for op := 0; op < 3000; op++ {
			i := r.Intn(nclk)
			c, rc := clks[i], rclks[i]
			switch k := r.Intn(100); {
			case k < 3: // back to an earlier virtual time, or far ahead
				at := start()
				c.now, rc.now = at, at
			case k < 5:
				f := []float64{1, 0.5, 0.33, 0, 2}[r.Intn(5)]
				b.SetDegradation(f)
				ref.setDegradation(f)
			case k == 5:
				b.Reset()
				ref.reset()
			case k < 15:
				n := r.Intn(8 * bwWindowNS)
				b.TransferUnqueued(c, n)
				ref.transferUnqueued(rc, n)
			case k < 25: // a burst at one virtual time saturates its windows
				at := c.Now()
				for range 1 + r.Intn(8) {
					c.now, rc.now = at, at
					b.Transfer(c, bwWindowNS)
					ref.transfer(rc, bwWindowNS)
				}
			default:
				n := r.Intn(64)
				if r.Intn(4) == 0 {
					n = r.Intn(3 * bwWindowNS)
				}
				b.Transfer(c, n)
				ref.transfer(rc, n)
			}
			if c.Now() != rc.Now() {
				t.Fatalf("seed %d op %d: clock %d at %d, reference %d", seed, op, i, c.Now(), rc.Now())
			}
		}
		if got := windows(b); !maps.Equal(got, ref.win) {
			t.Fatalf("seed %d: %d windows carry time, reference %d, or other ns", seed, len(got), len(ref.win))
		}
	}
}

// TestBandwidthLedgerFollowsTouchedTime: a clock a million seconds into
// virtual time costs one ledger page, as one at zero does; looking up a
// window of an untouched page materialises nothing; and a transfer into a
// page already touched allocates nothing.
func TestBandwidthLedgerFollowsTouchedTime(t *testing.T) {
	b := NewBandwidth(bwByteNS)
	c := NewClockAt(1e15)
	b.Transfer(c, 2*bwWindowNS)
	if len(b.pages) != 1 {
		t.Fatalf("a transfer at 1e15 ns made %d ledger pages, want 1", len(b.pages))
	}
	if got := testing.AllocsPerRun(100, func() {
		if b.used(1e15/bwWindowNS+5*bwPageWindows) != 0 {
			t.Fatal("an untouched window carries time")
		}
	}); got != 0 || len(b.pages) != 1 {
		t.Fatalf("reading an untouched page: %v allocs, %d pages", got, len(b.pages))
	}
	if got := testing.AllocsPerRun(100, func() {
		c.now = 1e15
		b.Transfer(c, 64)
	}); got != 0 {
		t.Fatalf("Transfer into a touched page: %v allocs, want 0", got)
	}
}

// TestBandwidthSpillAtWindowBoundary pins the ledger's behaviour exactly at
// the bwWindowNS edge: a transfer whose wall time crosses the boundary takes
// the remainder of its window and spills the rest into the next one, and a
// transfer issued exactly on a boundary lands entirely in the new window.
func TestBandwidthSpillAtWindowBoundary(t *testing.T) {
	b := NewBandwidth(bwByteNS)

	c := NewClockAt(bwWindowNS - 1)
	b.Transfer(c, 2) // 1 ns left in window 0, 1 ns into window 1
	if got := c.Now(); got != bwWindowNS+1 {
		t.Fatalf("straddling transfer ended at %d, want %d", got, bwWindowNS+1)
	}
	if b.used(0) != 1 || b.used(1) != 1 {
		t.Fatalf("ledger = {0:%d, 1:%d}, want one ns in each window", b.used(0), b.used(1))
	}

	c2 := NewClockAt(bwWindowNS)
	b.Transfer(c2, 3)
	if got := c2.Now(); got != bwWindowNS+3 {
		t.Fatalf("boundary-start transfer ended at %d, want %d", got, bwWindowNS+3)
	}
	if b.used(0) != 1 {
		t.Fatalf("boundary-start transfer touched window 0: %d ns", b.used(0))
	}
	if b.used(1) != 4 {
		t.Fatalf("window 1 carries %d ns, want 4", b.used(1))
	}

	// Saturate window 2 from its first instant: the transfer consumes the
	// whole window and the clock stops exactly on the next boundary.
	c3 := NewClockAt(2 * bwWindowNS)
	b.Transfer(c3, bwWindowNS)
	if got := c3.Now(); got != 3*bwWindowNS {
		t.Fatalf("full-window transfer ended at %d, want %d", got, 3*bwWindowNS)
	}
	// A second transfer issued at the same virtual time finds window 2 full
	// and queues into window 3 — no capacity is double-booked.
	c4 := NewClockAt(2 * bwWindowNS)
	b.Transfer(c4, 5)
	if got := c4.Now(); got != 3*bwWindowNS+5 {
		t.Fatalf("queued transfer ended at %d, want %d", got, 3*bwWindowNS+5)
	}
	if b.used(2) != bwWindowNS || b.used(3) != 5 {
		t.Fatalf("ledger = {2:%d, 3:%d}, want {%d, 5}", b.used(2), b.used(3), int64(bwWindowNS))
	}
}

// TestBandwidthMultiWindowOverflowChain drives transfers long enough to fill
// several consecutive windows and checks the overflow chains through every
// one of them with nothing lost and nothing double-counted.
func TestBandwidthMultiWindowOverflowChain(t *testing.T) {
	b := NewBandwidth(bwByteNS)

	c := NewClock()
	b.Transfer(c, 3*bwWindowNS) // fills windows 0,1,2 exactly
	if got := c.Now(); got != 3*bwWindowNS {
		t.Fatalf("triple-window transfer ended at %d, want %d", got, 3*bwWindowNS)
	}
	for w := int64(0); w < 3; w++ {
		if b.used(w) != bwWindowNS {
			t.Fatalf("window %d carries %d ns, want full %d", w, b.used(w), int64(bwWindowNS))
		}
	}

	// A transfer issued back at virtual time 0 must chain past all three
	// saturated windows before it finds capacity.
	c2 := NewClock()
	b.Transfer(c2, bwWindowNS/2)
	if got := c2.Now(); got != 3*bwWindowNS+bwWindowNS/2 {
		t.Fatalf("chained transfer ended at %d, want %d", got, 3*bwWindowNS+bwWindowNS/2)
	}
	if b.used(3) != bwWindowNS/2 {
		t.Fatalf("window 3 carries %d ns, want %d", b.used(3), int64(bwWindowNS/2))
	}

	var ledger int64
	for _, ns := range windows(b) {
		ledger += ns
	}
	if want := int64(3*bwWindowNS + bwWindowNS/2); ledger != want {
		t.Fatalf("ledger total = %d ns, want %d (conservation)", ledger, want)
	}
	if got, want := b.TotalBytes(), int64(3*bwWindowNS+bwWindowNS/2); got != want {
		t.Fatalf("TotalBytes = %d, want %d", got, want)
	}
}

// TestBandwidthConcurrentDivergentClocks issues transfers from goroutines
// whose clocks sit at different virtual times within one window (and one far
// ahead). Whatever order the Go scheduler runs them in, the ledger must
// conserve the total charged time, every clock must advance by at least its
// own transfer time, and the far-ahead clock must not block the early ones
// (run under -race to exercise the locking).
func TestBandwidthConcurrentDivergentClocks(t *testing.T) {
	b := NewBandwidth(bwByteNS)
	const transfers = 64
	const perTransfer = 96 // 64*96 = 1.5 windows of demand

	clocks := make([]*Clock, transfers)
	var wg sync.WaitGroup
	for i := 0; i < transfers; i++ {
		// Starts scattered through window 0, plus a few clocks already far
		// ahead in virtual time (their demand lands in their own distant
		// windows, not in the early capacity the others are contending for).
		start := int64(i * 61 % bwWindowNS)
		if i%16 == 15 {
			start = int64(10*bwWindowNS) + int64(i)
		}
		c := NewClockAt(start)
		clocks[i] = c
		wg.Add(1)
		go func() {
			defer wg.Done()
			b.Transfer(c, perTransfer)
		}()
	}
	wg.Wait()

	var ledger int64
	for w, ns := range windows(b) {
		if ns < 0 || ns > bwWindowNS {
			t.Fatalf("window %d carries %d ns, outside [0, %d]", w, ns, int64(bwWindowNS))
		}
		ledger += ns
	}
	if want := int64(transfers * perTransfer); ledger != want {
		t.Fatalf("ledger total = %d ns, want %d (conservation)", ledger, want)
	}
	if got, want := b.TotalBytes(), int64(transfers*perTransfer); got != want {
		t.Fatalf("TotalBytes = %d, want %d", got, want)
	}
	for i, c := range clocks {
		start := int64(i * 61 % bwWindowNS)
		if i%16 == 15 {
			start = int64(10*bwWindowNS) + int64(i)
		}
		adv := c.Now() - start
		if adv < perTransfer {
			t.Fatalf("clock %d advanced %d ns, want >= %d", i, adv, perTransfer)
		}
	}
}
