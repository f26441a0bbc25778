// Package simclock provides the virtual-time substrate used by every
// benchmark and file system in this repository.
//
// All file system code runs as ordinary Go code on ordinary goroutines, but
// performance is accounted in virtual nanoseconds: each simulated thread owns
// a Clock, every modeled action (an NVM access, a syscall, a WRPKRU, a lock
// hold) advances that clock, and shared hardware resources are modeled as
// Resources whose grant time is max(arrival, busyUntil). The virtual-time
// locks (lockprof.Mutex, lockprof.RWMutex) work the same way: an acquirer
// waits past the last holder's release stamp through Clock.WaitUntil, the
// one lock-wait method. This yields throughput ceilings, lock convoys and
// scalability collapses in virtual time at the same places they occur on
// real hardware, while the underlying data-structure work remains real
// (real locks, real CAS, real memory). Multi-thread drivers step their
// threads earliest clock first (Earliest), so every run is a function of
// virtual time alone.
package simclock

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// Clock is the virtual clock of one simulated thread. It is not safe for
// concurrent use; each simulated thread owns exactly one Clock.
type Clock struct {
	now       int64 // virtual nanoseconds since simulation start
	tag       uint64
	wclass    uint8
	bill      any
	lockState any
	pathMemo  any
}

// NewClock returns a clock starting at virtual time zero.
func NewClock() *Clock { return &Clock{} }

// NewClockAt returns a clock starting at the given virtual time.
func NewClockAt(ns int64) *Clock { return &Clock{now: ns} }

// Now returns the current virtual time in nanoseconds.
func (c *Clock) Now() int64 { return c.now }

// Advance moves the clock forward by d virtual nanoseconds. Negative
// advances are ignored so cost formulas may safely round down to zero.
func (c *Clock) Advance(d int64) {
	if d > 0 {
		c.now += d
	}
}

// AdvanceTo moves the clock forward to time t if t is in the future.
func (c *Clock) AdvanceTo(t int64) {
	if t > c.now {
		c.now = t
	}
}

// Earliest returns the index of the earliest of xs: the one whose clock
// reads the smallest Now(), ties going to the lowest index. clock returns
// nil for an element that may not run. It returns -1 when none may.
//
// This is the one interleaving rule of every multi-thread run (FxMark,
// Filebench, the chaos campaign): a driver keeps its simulated threads on
// one goroutine and runs one operation at a time on the thread Earliest
// picks, so the interleaving is a function of virtual time alone and a run
// reproduces byte for byte.
func Earliest[T any](xs []T, clock func(T) *Clock) int {
	best := -1
	var at int64
	for i, x := range xs {
		if c := clock(x); c != nil && (best < 0 || c.now < at) {
			best, at = i, c.now
		}
	}
	return best
}

// SetTag attaches an opaque origin tag to the clock. Since a Clock belongs
// to exactly one simulated thread, the tag lets observers (the persistence
// flight recorder) attribute device events to their issuing thread without
// simclock knowing about processes. Zero means untagged.
func (c *Clock) SetTag(t uint64) { c.tag = t }

// Tag returns the clock's origin tag (zero when untagged).
func (c *Clock) Tag() uint64 { return c.tag }

// SetWriteClass sets the byte-class tag the device attributes this thread's
// writes to (a byteflow.Class value; zero is the untagged residual). Like
// the tag, it rides the clock because the clock is the one per-thread object
// every device access already carries. Nil-receiver safe so tag sites run
// unconditionally on clock-less paths.
func (c *Clock) SetWriteClass(wc uint8) {
	if c != nil {
		c.wclass = wc
	}
}

// WriteClass returns the clock's current byte-class tag (zero when untagged
// or when the clock is nil).
func (c *Clock) WriteClass() uint8 {
	if c == nil {
		return 0
	}
	return c.wclass
}

// SwapWriteClass sets the byte-class tag and returns the previous one, the
// save/restore idiom for nested tag scopes (a data write that allocates a
// page re-tags to alloc and restores on the way out).
func (c *Clock) SwapWriteClass(wc uint8) uint8 {
	if c == nil {
		return 0
	}
	prev := c.wclass
	c.wclass = wc
	return prev
}

// SetBill attaches an opaque cost sink to the clock. Like the tag, it lets
// per-thread observers (the causal span layer) ride along without simclock
// knowing about them: layers that advance the clock can hand the elapsed
// virtual time to the sink for attribution. Nil detaches.
func (c *Clock) SetBill(b any) { c.bill = b }

// Bill returns the clock's attached cost sink (nil when none).
func (c *Clock) Bill() any { return c.bill }

// SetLockState attaches the thread's lock-profiler state (a
// lockprof.ThreadState) to the clock. Like the tag and the bill sink it is
// an opaque rider: simclock stays ignorant of the profiler, the profiler
// gets a per-thread slot on the one object every lock site already holds.
// Nil-receiver safe so attach sites run unconditionally on clock-less paths.
func (c *Clock) SetLockState(s any) {
	if c != nil {
		c.lockState = s
	}
}

// LockState returns the clock's attached lock-profiler state (nil when none
// or when the clock is nil).
func (c *Clock) LockState() any {
	if c == nil {
		return nil
	}
	return c.lockState
}

// SetPathMemo attaches the thread's last path resolution (kernfs's
// resolveMemo) to the clock: the third opaque rider, for the same reason as
// the other two — the clock is the one per-thread object every resolve call
// already carries, and being single-owner it needs no locking.
func (c *Clock) SetPathMemo(m any) { c.pathMemo = m }

// PathMemo returns the attached path-resolution memo (nil when none).
func (c *Clock) PathMemo() any { return c.pathMemo }

// lockWaitBiller is implemented by cost sinks that want virtual lock-wait
// time attributed to them (see WaitUntil).
type lockWaitBiller interface{ BillLockWait(ns int64) }

// billLockWait hands ns of lock-wait time to the attached sink, if any.
func (c *Clock) billLockWait(ns int64) {
	if ns <= 0 || c.bill == nil {
		return
	}
	if b, ok := c.bill.(lockWaitBiller); ok {
		b.BillLockWait(ns)
	}
}

// WaitUntil is the one lock-wait path: a virtual-time lock (lockprof.Mutex,
// lockprof.RWMutex) calls it with a holder's release stamp, and it advances
// the clock past the stamp, bills the elapsed wait to the attached cost sink
// and returns it. It is billLockWait's only caller, so the span layer's
// lock_wait total and the lock profiler's per-lock wait sums measure the same
// quantity and must agree exactly (the equality the fxmark-scale cross-check
// gate asserts).
func (c *Clock) WaitUntil(stamp int64) int64 {
	wait := stamp - c.now
	if wait <= 0 {
		return 0
	}
	c.now = stamp
	c.billLockWait(wait)
	return wait
}

// Duration is a convenience converter from time.Duration to virtual ns.
func Duration(d time.Duration) int64 { return int64(d) }

// Resource models a worker that takes one unit of work at a time: work
// handed over at virtual time t starts at max(t, busyUntil). The zero value
// is idle.
//
// Resource is safe for concurrent use by many simulated threads.
type Resource struct {
	mu        sync.Mutex
	busyUntil int64
}

// Enqueue hands the resource a unit of asynchronous work: the work occupies
// the resource for hold ns starting at max(arrival, busyUntil), but the
// caller only waits until the resource ACCEPTS the work (i.e., until prior
// work has drained), not until it completes. This models background workers
// (e.g., Strata's kernel digestion thread): producers run ahead of the
// worker until its backlog pushes acceptance time past them.
func (r *Resource) Enqueue(c *Clock, hold int64) (accepted int64) {
	if hold < 0 {
		hold = 0
	}
	r.mu.Lock()
	grant := r.busyUntil
	if c.Now() > grant {
		grant = c.Now()
	}
	r.busyUntil = grant + hold
	r.mu.Unlock()
	c.AdvanceTo(grant)
	return grant
}

// Reset makes the resource idle again (used between benchmark phases).
func (r *Resource) Reset() {
	r.mu.Lock()
	r.busyUntil = 0
	r.mu.Unlock()
}

// bwWindowNS is the granularity of the bandwidth capacity ledger: virtual
// time is divided into fixed windows, each able to carry bwWindowNS of
// transfer time. Queueing is therefore resolved per window, so two transfers
// issued at disjoint virtual times never interact — only genuinely
// simultaneous traffic contends.
const bwWindowNS = 4096

// The ledger is stored in dense pages of bwPageWindows consecutive windows
// (16.8 ms of virtual time in 32 KB), found through a directory keyed by page
// number, so its memory follows the span of virtual time traffic touched,
// whatever the clocks read.
const (
	bwPageShift   = 12
	bwPageWindows = 1 << bwPageShift
)

type bwPage [bwPageWindows]int64 // consumed transfer ns per window

// Bandwidth models a shared transfer channel with a fixed peak rate
// (bytes/second) and an optional concurrency-degradation factor. A transfer
// of n bytes consumes n/effectiveRate seconds of channel capacity, so
// aggregate throughput across all threads cannot exceed the effective rate —
// exactly the ceiling behaviour of Optane DC PM write bandwidth.
//
// Capacity is kept as a virtual-time ledger (consumed ns per bwWindowNS
// window) rather than a single busy-until scalar. A scalar queue serves in
// REAL call order, which under divergent thread clocks creates false
// head-of-line blocking: a thread whose clock is far ahead (it just charged
// a big CPU cost) would make a transfer issued at an EARLIER virtual time
// wait behind its own — on real hardware the earlier write would have long
// since drained. The ledger lets a transfer at virtual time t consume
// capacity starting at t, whatever order the Go scheduler runs the calls in,
// while a crowded window still spills its overflow into the following ones
// and models queueing delay.
type Bandwidth struct {
	peakBps    float64
	scale      atomic.Uint64 // effective rate multiplier in 1/1024ths
	totalBytes atomic.Int64

	mu    sync.Mutex
	pages map[int64]*bwPage // page number (window index >> bwPageShift) -> its windows
}

// NewBandwidth returns a channel with the given peak rate in bytes/second.
func NewBandwidth(bytesPerSecond float64) *Bandwidth {
	if bytesPerSecond <= 0 {
		panic(fmt.Sprintf("simclock: invalid bandwidth %v", bytesPerSecond))
	}
	b := &Bandwidth{peakBps: bytesPerSecond, pages: map[int64]*bwPage{}}
	b.scale.Store(1024)
	return b
}

// used returns the transfer ns window w has carried. Callers hold b.mu.
func (b *Bandwidth) used(w int64) int64 {
	if pg := b.pages[w>>bwPageShift]; pg != nil {
		return pg[w&(bwPageWindows-1)]
	}
	return 0
}

// add charges ns of transfer to window w, materialising its page on first
// use. Callers hold b.mu.
func (b *Bandwidth) add(w, ns int64) {
	pg := b.pages[w>>bwPageShift]
	if pg == nil {
		pg = new(bwPage)
		b.pages[w>>bwPageShift] = pg
	}
	pg[w&(bwPageWindows-1)] += ns
}

// SetDegradation sets the effective-rate multiplier (0 < f <= 1). Workload
// harnesses call this with a factor derived from the number of concurrently
// active writers to model Optane's bandwidth decline under high concurrency.
func (b *Bandwidth) SetDegradation(f float64) {
	if f <= 0 || f > 1 {
		f = 1
	}
	b.scale.Store(uint64(f * 1024))
}

// Transfer charges the channel for n bytes at the clock's current time,
// advancing the clock past any queueing delay plus the transfer itself.
// Uncontended (every touched window has spare capacity) the clock advances
// by exactly the transfer time, same as TransferUnqueued; contended, the
// transfer drains through the first windows at or after the clock with
// capacity left.
func (b *Bandwidth) Transfer(c *Clock, n int) {
	if n <= 0 {
		return
	}
	rate := b.peakBps * float64(b.scale.Load()) / 1024
	hold := int64(float64(n) / rate * 1e9)
	if hold <= 0 {
		b.totalBytes.Add(int64(n))
		return
	}
	b.mu.Lock()
	t := c.Now()
	for hold > 0 {
		w := t / bwWindowNS
		avail := bwWindowNS - b.used(w)
		if avail <= 0 {
			t = (w + 1) * bwWindowNS
			continue
		}
		// Consume no more than the window has capacity for, and no more
		// wall time than remains in it from t.
		take := hold
		if take > avail {
			take = avail
		}
		if wall := (w+1)*bwWindowNS - t; take > wall {
			take = wall
		}
		b.add(w, take)
		hold -= take
		t += take
		if hold > 0 && t < (w+1)*bwWindowNS {
			// Window capacity exhausted by concurrent traffic before its
			// wall end: the remainder queues into the next window.
			t = (w + 1) * bwWindowNS
		}
	}
	b.mu.Unlock()
	c.AdvanceTo(t)
	b.totalBytes.Add(int64(n))
}

// TransferUnqueued charges only the local clock for n bytes without
// occupying the shared channel. Used for read paths where the device
// sustains enough parallelism that reads rarely queue.
func (b *Bandwidth) TransferUnqueued(c *Clock, n int) {
	if n <= 0 {
		return
	}
	rate := b.peakBps * float64(b.scale.Load()) / 1024
	c.Advance(int64(float64(n) / rate * 1e9))
	b.totalBytes.Add(int64(n))
}

// TotalBytes reports the cumulative bytes transferred.
func (b *Bandwidth) TotalBytes() int64 { return b.totalBytes.Load() }

// Reset makes the channel idle and zeroes the byte counter.
func (b *Bandwidth) Reset() {
	b.mu.Lock()
	clear(b.pages)
	b.mu.Unlock()
	b.totalBytes.Store(0)
	b.scale.Store(1024)
}
