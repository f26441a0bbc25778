// Package spans is the causal observability layer of the stack: every
// VFS-level operation opens a root span, and the layers it crosses on the way
// down — FSLib dispatch, the directory cache, coffer locks, KernFS calls, MPK
// register writes, the NVM cost model — bill their virtual-time cost to that
// span through a per-thread span context riding on the thread's simclock
// (Clock.SetBill). Finished spans fold into per-op-kind latency breakdowns
// (media vs. flush/fence vs. lock wait vs. PKRU vs. memcpy), an optional
// sink that writes every root once as a binary record (ReadRoots decodes it)
// and a bounded ring of recent roots — the instrument behind the paper's
// "where does the time go" decompositions (§6, Figures 7–11).
//
// Attribution never advances any clock: with spans enabled or disabled the
// virtual timeline of a workload is bit-identical, so the disabled-overhead
// budget asserted by the `spans` gate experiment is exact. The nil
// *ThreadCtx is a valid no-op context, mirroring telemetry's nil *Recorder.
package spans

import (
	"io"
	"sync"
	"sync/atomic"

	"zofs/internal/mpk"
	"zofs/internal/pmemtrace"
	"zofs/internal/simclock"
	"zofs/internal/telemetry"
)

// Component enumerates where an operation's virtual time is attributed.
type Component uint8

const (
	// CompMedia is NVM media time: read/write latency plus bandwidth
	// occupancy for loads, cached stores, non-temporal stores and zeroing.
	CompMedia Component = iota
	// CompFlush is persistence-ordering time: CLWB line cost, fence stalls
	// and the write-latency exposure of explicit flushes.
	CompFlush
	// CompLock is pure synchronization wait: virtual time spent blocked
	// behind other threads' lock holds (inode locks, dir bucket locks, the
	// KernFS big lock). Lock acquire/release CPU bookkeeping lands in the
	// CompOther residual, so this component equals the lock profiler's
	// per-lock wait sums exactly (the fxmark-scale cross-check).
	CompLock
	// CompPKRU is protection-domain switching: WRPKRU register writes.
	CompPKRU
	// CompMemcpy is data staging through a DRAM bounce buffer. Nothing bills
	// it while ZoFS moves data and metadata through borrowed device views; it
	// stays because the component set is the export schema (the span log,
	// obs.json, zofs-obs top, the benchmark's span shares).
	CompMemcpy
	// CompKernel is kernel-crossing time: syscall entry/exit charges.
	CompKernel
	// CompRetry is failure-path wait: virtual time spent in backoff sleeps
	// and re-attempt delays under the unified retry policy (lease
	// re-acquisition, allocator slot claims, quarantine-era remaps). Kept
	// apart from CompLock so contention on healthy locks and churn on
	// failure paths stay distinguishable.
	CompRetry
	// CompOther is the residual — CPU work not billed to any component
	// (hashing, dentry scans, structure walks) — computed at fold time as
	// span duration minus everything billed, so components always sum to
	// exactly the measured latency.
	CompOther
	// NumComponents is the number of attribution components.
	NumComponents
)

var compNames = [NumComponents]string{
	CompMedia:  "media",
	CompFlush:  "flush_fence",
	CompLock:   "lock_wait",
	CompPKRU:   "pkru",
	CompMemcpy: "memcpy",
	CompKernel: "kernel",
	CompRetry:  "retry",
	CompOther:  "other",
}

// Name returns the component's short name.
func (c Component) Name() string { return compNames[c] }

// Breakdown is a span's per-component virtual-nanosecond attribution.
type Breakdown [NumComponents]int64

// Child is one layer-boundary event inside a root span. Start is virtual
// time; a negative Start marks an unplaced annotation (e.g. the MPK
// violation that aborted the op).
type Child struct {
	Name   string
	Start  int64
	Dur    int64
	Detail string
}

// Root is one finished VFS-level operation span.
type Root struct {
	Op           string
	TID          int
	PathHash     uint64
	PKey         int16 // last coffer key opened; -1 = none
	Start        int64
	Dur          int64
	Comp         Breakdown
	BytesRead    int64
	BytesWritten int64
	Flushes      int64
	Fences       int64
	Aborted      bool
	Children     []Child
}

// rootsMagic heads a span log.
const rootsMagic = "zofs spans v1\n"

// put writes r with its children as one record.
func (r *Root) put(l *pmemtrace.LogWriter, children []Child) {
	l.Str(r.Op)
	l.Uint(r.PathHash)
	for _, v := range r.Comp {
		l.Int(v)
	}
	aborted := int64(0)
	if r.Aborted {
		aborted = 1
	}
	for _, v := range [...]int64{int64(r.TID), int64(r.PKey), r.Start, r.Dur,
		r.BytesRead, r.BytesWritten, r.Flushes, r.Fences, aborted, int64(len(children))} {
		l.Int(v)
	}
	for i := range children {
		l.Str(children[i].Name)
		l.Str(children[i].Detail)
		l.Int(children[i].Start)
		l.Int(children[i].Dur)
	}
	l.End()
}

// ReadRoots decodes a span log, a Collector's sink, in fold order.
func ReadRoots(log []byte) ([]Root, error) {
	l, err := pmemtrace.NewLogReader(log, rootsMagic)
	if err != nil {
		return nil, err
	}
	var out []Root
	for l.Next() {
		r := Root{Op: l.Str(), PathHash: l.Uint()}
		for i := range r.Comp {
			r.Comp[i] = l.Int()
		}
		r.TID, r.PKey, r.Start, r.Dur = int(l.Int()), int16(l.Int()), l.Int(), l.Int()
		r.BytesRead, r.BytesWritten, r.Flushes, r.Fences = l.Int(), l.Int(), l.Int(), l.Int()
		r.Aborted = l.Int() != 0
		for n := l.Int(); n > 0 && l.Err() == nil; n-- {
			r.Children = append(r.Children, Child{Name: l.Str(), Detail: l.Str(), Start: l.Int(), Dur: l.Int()})
		}
		out = append(out, r)
	}
	return out, l.Err()
}

// maxChildren bounds per-span child annotations; overflow is counted, not
// silently dropped.
const maxChildren = 48

// ThreadCtx is the per-simulated-thread span context. Like the simclock
// Clock it rides on, it is owned by exactly one simulated thread and is not
// safe for concurrent use; all cross-thread aggregation happens in the
// Collector. The nil *ThreadCtx is a valid no-op context.
type ThreadCtx struct {
	col      *Collector
	tid      int
	depth    int32
	op       telemetry.Op
	cur      Root
	children []Child
}

// NewThreadCtx returns a context feeding the given collector, or nil when
// the collector is nil (spans disabled at thread creation).
func NewThreadCtx(col *Collector, tid int) *ThreadCtx {
	if col == nil {
		return nil
	}
	return &ThreadCtx{col: col, tid: tid}
}

// FromClock recovers the span context attached to a thread's clock, or nil.
func FromClock(clk *simclock.Clock) *ThreadCtx {
	if clk == nil {
		return nil
	}
	ctx, _ := clk.Bill().(*ThreadCtx)
	return ctx
}

// Begin opens the root span for a VFS-level operation at virtual time now.
// Nested Begins (an op implemented via another traced op) do not open a new
// root; their cost accumulates into the outermost span.
func (c *ThreadCtx) Begin(op telemetry.Op, pathHash uint64, now int64) {
	if c == nil {
		return
	}
	if c.depth++; c.depth > 1 {
		return
	}
	c.op = op
	c.cur = Root{TID: c.tid, PathHash: pathHash, PKey: -1, Start: now}
	c.children = c.children[:0]
	c.col.started.Add(1)
	c.col.open.Add(1)
}

// End closes the current root span at virtual time now and folds it into
// the collector. An End without a matching Begin counts a double-close.
func (c *ThreadCtx) End(now int64) {
	if c == nil {
		return
	}
	if c.depth == 0 {
		c.col.doubleClose.Add(1)
		return
	}
	if c.depth--; c.depth > 0 {
		return
	}
	c.cur.Dur = now - c.cur.Start
	c.col.open.Add(-1)
	c.col.fold(c.op, &c.cur, c.children)
}

// MarkAborted flags the current span as aborted (fault-terminated).
func (c *ThreadCtx) MarkAborted() {
	if c == nil || c.depth == 0 {
		return
	}
	c.cur.Aborted = true
}

// SetKey records the protection key of the last coffer window the op opened.
func (c *ThreadCtx) SetKey(k uint8) {
	if c == nil || c.depth == 0 {
		return
	}
	c.cur.PKey = int16(k)
}

// Bill attributes ns of already-elapsed virtual time to a component of the
// active span. Billing outside any root span is dropped: ambient costs
// (mount, mkfs) have no op to belong to.
func (c *ThreadCtx) Bill(comp Component, ns int64) {
	if c == nil || c.depth == 0 || ns <= 0 {
		return
	}
	c.cur.Comp[comp] += ns
}

// BillLockWait satisfies the simclock lock-wait hook: virtual time spent
// waiting behind another thread's lock hold lands in CompLock. The
// collector-level total counts every wait, including those outside any root
// span, so it can be compared 1:1 against the lock profiler's registry
// total.
func (c *ThreadCtx) BillLockWait(ns int64) {
	if c == nil || ns <= 0 {
		return
	}
	c.col.lockWaitNS.Add(ns)
	c.Bill(CompLock, ns)
}

// billNVM attributes one device-level access: its virtual time plus the
// bytes/flush/fence counts the span reports.
func (c *ThreadCtx) billNVM(comp Component, ns, bytesRead, bytesWritten, flushes, fences int64) {
	if c == nil || c.depth == 0 {
		return
	}
	if ns > 0 {
		c.cur.Comp[comp] += ns
	}
	c.cur.BytesRead += bytesRead
	c.cur.BytesWritten += bytesWritten
	c.cur.Flushes += flushes
	c.cur.Fences += fences
}

// BillNVM bills one device access to the span context attached to clk, if
// any. It is the single hook internal/nvm calls after advancing the clock.
func BillNVM(clk *simclock.Clock, comp Component, ns, bytesRead, bytesWritten, flushes, fences int64) {
	if ctx, ok := clk.Bill().(*ThreadCtx); ok {
		ctx.billNVM(comp, ns, bytesRead, bytesWritten, flushes, fences)
	}
}

// Child records a layer-boundary child span inside the active root.
func (c *ThreadCtx) Child(name string, start, dur int64) {
	if c == nil || c.depth == 0 {
		return
	}
	c.addChild(Child{Name: name, Start: start, Dur: dur})
}

func (c *ThreadCtx) addChild(ch Child) {
	if len(c.children) >= maxChildren {
		c.col.childDrops.Add(1)
		return
	}
	c.children = append(c.children, ch)
}

// DCacheHit counts a directory-cache hit (and a child annotation).
func (c *ThreadCtx) DCacheHit() {
	if c == nil {
		return
	}
	c.col.dcHits.Add(1)
}

// DCacheMiss counts a directory-cache miss.
func (c *ThreadCtx) DCacheMiss() {
	if c == nil {
		return
	}
	c.col.dcMisses.Add(1)
}

// ObserveViolation implements mpk.ViolationObserver: the faulting op's span
// is marked aborted with the violation attached before the panic unwinds.
func (c *ThreadCtx) ObserveViolation(v mpk.Violation) {
	if c == nil || c.depth == 0 {
		return
	}
	c.cur.Aborted = true
	c.addChild(Child{Name: "mpk_violation", Start: -1, Detail: v.Cause})
}

// ObserverFor returns the clock's span context as an mpk.ViolationObserver,
// or nil when no context is attached.
func ObserverFor(clk *simclock.Clock) mpk.ViolationObserver {
	if ctx, ok := clk.Bill().(*ThreadCtx); ok {
		return ctx
	}
	return nil
}

// PathHash is the FNV-1a 64-bit hash used for root-span path identity ("" is
// hash 0: handle-level ops carry no path).
func PathHash(p string) uint64 {
	if p == "" {
		return 0
	}
	h := uint64(14695981039346656037)
	for i := 0; i < len(p); i++ {
		h ^= uint64(p[i])
		h *= 1099511628211
	}
	return h
}

// opAgg accumulates finished spans of one op kind. total is the stack's one
// cumulative per-op latency distribution; components keep only their sums,
// which is all a share needs.
type opAgg struct {
	count   atomic.Int64
	aborted atomic.Int64
	sumNS   atomic.Int64
	total   telemetry.Hist
	compSum [NumComponents]atomic.Int64

	bytesRead    atomic.Int64
	bytesWritten atomic.Int64
	flushes      atomic.Int64
	fences       atomic.Int64
}

// Config parameterizes a Collector.
type Config struct {
	// RingCap bounds the ring of recent finished roots (default 4096;
	// negative disables the ring).
	RingCap int
	// Sink, when non-nil, receives every finished root span as one binary
	// record (ReadRoots decodes it). The caller owns the writer;
	// Collector.FlushSink drains buffers.
	Sink io.Writer
}

// Collector aggregates finished spans process-wide. It is safe for
// concurrent use by many simulated threads.
type Collector struct {
	started     atomic.Int64
	finished    atomic.Int64
	open        atomic.Int64
	aborted     atomic.Int64
	doubleClose atomic.Int64
	childDrops  atomic.Int64
	overBilled  atomic.Int64
	dcHits      atomic.Int64
	dcMisses    atomic.Int64
	// lockWaitNS counts every virtual lock wait billed to this collector,
	// inside or outside a span — the spans side of the lockprof cross-check.
	lockWaitNS atomic.Int64

	ops [telemetry.NumOps]opAgg

	// mu orders the ring and the sink: both keep fold order.
	mu      sync.Mutex
	ring    []Root
	ringPos int
	ringCap int
	sink    *pmemtrace.LogWriter
}

// NewCollector returns an empty collector.
func NewCollector(cfg Config) *Collector {
	cap := cfg.RingCap
	if cap == 0 {
		cap = 4096
	}
	if cap < 0 {
		cap = 0
	}
	c := &Collector{ringCap: cap}
	if cfg.Sink != nil {
		c.sink = pmemtrace.NewLogWriter(cfg.Sink, rootsMagic)
	}
	return c
}

// active is the process-wide collector captured by proc.NewThread at thread
// creation; nil means spans are off (the default).
var active atomic.Pointer[Collector]

// Enable installs (and returns) a fresh process-wide collector. Threads
// created afterwards attach to it.
func Enable(cfg Config) *Collector {
	c := NewCollector(cfg)
	active.Store(c)
	return c
}

// Install makes c the process-wide collector (nil is equivalent to Disable).
// Used to restore a previous collector around an instrumented-off baseline.
func Install(c *Collector) { active.Store(c) }

// Disable removes the process-wide collector; threads created afterwards
// are span-free.
func Disable() { active.Store(nil) }

// Active returns the current process-wide collector, or nil when disabled.
func Active() *Collector { return active.Load() }

// fold finalizes one root: the unbilled residual becomes CompOther (so the
// components sum to exactly the measured duration) and the span lands in the
// per-op aggregates, the ring and the sink.
func (c *Collector) fold(op telemetry.Op, r *Root, children []Child) {
	var billed int64
	for i := Component(0); i < CompOther; i++ {
		billed += r.Comp[i]
	}
	if other := r.Dur - billed; other >= 0 {
		r.Comp[CompOther] = other
	} else {
		// Billing exceeded the clock delta — an attribution bug, surfaced
		// as a counter rather than silently distorting percentages.
		c.overBilled.Add(-other)
		r.Comp[CompOther] = 0
	}
	r.Op = op.Name()

	a := &c.ops[op]
	a.count.Add(1)
	if r.Aborted {
		a.aborted.Add(1)
		c.aborted.Add(1)
	}
	a.sumNS.Add(r.Dur)
	a.total.Observe(r.Dur)
	for i := Component(0); i < NumComponents; i++ {
		a.compSum[i].Add(r.Comp[i])
	}
	a.bytesRead.Add(r.BytesRead)
	a.bytesWritten.Add(r.BytesWritten)
	a.flushes.Add(r.Flushes)
	a.fences.Add(r.Fences)
	c.finished.Add(1)

	if c.sink == nil && c.ringCap == 0 {
		return
	}
	if c.ringCap > 0 && len(children) > 0 {
		r.Children = append([]Child(nil), children...)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.sink != nil {
		r.put(c.sink, children)
	}
	switch {
	case c.ringCap == 0:
	case len(c.ring) < c.ringCap:
		c.ring = append(c.ring, *r)
	default:
		c.ring[c.ringPos] = *r
		c.ringPos = (c.ringPos + 1) % c.ringCap
	}
}

// FlushSink drains the sink's buffer and reports its first write error.
func (c *Collector) FlushSink() error {
	if c == nil || c.sink == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.sink.Flush()
}

// Roots copies out the finished-root ring in fold order (oldest first).
func (c *Collector) Roots() []Root {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]Root, 0, len(c.ring))
	if len(c.ring) == c.ringCap { // wrapped: oldest entry is at ringPos
		out = append(out, c.ring[c.ringPos:]...)
		out = append(out, c.ring[:c.ringPos]...)
	} else {
		out = append(out, c.ring...)
	}
	return out
}

// OpenRoots reports the number of currently open root spans — zero whenever
// no operation is in flight (the no-leak invariant crashmc asserts).
func (c *Collector) OpenRoots() int64 {
	if c == nil {
		return 0
	}
	return c.open.Load()
}

// DoubleCloses reports span closes that had no matching open.
func (c *Collector) DoubleCloses() int64 {
	if c == nil {
		return 0
	}
	return c.doubleClose.Load()
}

// Finished reports the number of folded root spans.
func (c *Collector) Finished() int64 {
	if c == nil {
		return 0
	}
	return c.finished.Load()
}

// LockWaitNS reports total virtual lock-wait nanoseconds billed to this
// collector's threads, inside or outside spans. With the lock profiler
// attached to the same threads this equals its registry WaitNS exactly.
func (c *Collector) LockWaitNS() int64 {
	if c == nil {
		return 0
	}
	return c.lockWaitNS.Load()
}

// Reset zeroes every aggregate, the ring and the lifecycle counters (the
// sink is untouched).
func (c *Collector) Reset() {
	if c == nil {
		return
	}
	c.started.Store(0)
	c.finished.Store(0)
	c.aborted.Store(0)
	c.doubleClose.Store(0)
	c.childDrops.Store(0)
	c.overBilled.Store(0)
	c.dcHits.Store(0)
	c.dcMisses.Store(0)
	c.lockWaitNS.Store(0)
	for i := range c.ops {
		a := &c.ops[i]
		a.count.Store(0)
		a.aborted.Store(0)
		a.sumNS.Store(0)
		a.total.Reset()
		for j := range a.compSum {
			a.compSum[j].Store(0)
		}
		a.bytesRead.Store(0)
		a.bytesWritten.Store(0)
		a.flushes.Store(0)
		a.fences.Store(0)
	}
	c.mu.Lock()
	c.ring = c.ring[:0]
	c.ringPos = 0
	c.mu.Unlock()
}
