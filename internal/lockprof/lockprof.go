// Package lockprof holds the repository's virtual-time locks and their
// contention profiler. Mutex and RWMutex are real locks that also serialize
// in virtual time: an acquirer's clock waits past the previous holder's
// release stamp (simclock.Clock.WaitUntil). Each lock carries a name
// (kernfs.registry, zofs.inode/<page>, nvm.stripe/<i>, ...) in a
// process-wide registry which records, for every acquisition, the virtual
// wait, the hold, the acquiring thread and the blocking holder. From those
// it derives per-lock log-bucket histograms and a hold-while-waiting
// wait-for edge table with lock-order-inversion detection; each contended
// wait also goes into the run's event log (pmemtrace, kind lock_wait), where
// the Chrome trace draws it.
//
// Like spans and byteflow, the profiler observes virtual clocks but never
// advances them: enabled-mode virtual time is bit-identical to a profiler-
// free run (the fxmark-scale gate asserts this), and the disabled fast path
// is one atomic load and a branch per acquire.
//
// Threads opt in via a ThreadState riding the clock's LockState slot
// (attached by proc.NewThread when a registry is active). Lock sites with an
// unattached thread wait in virtual time but record nothing; a nil clock
// takes the real lock only, so setup code costs nothing and sees nothing.
package lockprof

import (
	"strconv"
	"sync"
	"sync/atomic"

	"zofs/internal/pmemtrace"
	"zofs/internal/simclock"
	"zofs/internal/telemetry"
)

const (
	// maxLocks bounds distinct instance entries per registry generation;
	// instances beyond the cap fold into a per-class "~other" row so an
	// unbounded namespace (one lock per inode page) cannot grow the table
	// without bound.
	maxLocks = 1024
	// maxEdges bounds the wait-for edge table; overflow is counted.
	maxEdges = 1024
	// maxThreads bounds the per-thread rows per generation.
	maxThreads = 4096
)

// Config parameterizes Enable. It has no settings.
type Config struct{}

// Registry is one profiling domain. Reset swaps in a fresh generation; stale
// lock name caches re-resolve lazily, so per-cell sweeps reuse one registry
// without accumulating dead entries.
type Registry struct {
	state atomic.Pointer[regState]
	// heldNow is a live gauge of instrumented locks currently held. It is
	// registry-level (not per generation) so a Reset during a hold stays
	// balanced when the release lands; at quiescence it must read zero.
	heldNow atomic.Int64
}

// regState is one generation of collected data. Reset replaces the whole
// struct, which atomically empties every table.
type regState struct {
	gen      uint64
	entries  sync.Map // name string -> *entry
	nEntries atomic.Int64
	dropped  atomic.Int64 // instances folded into ~other rows

	edges        sync.Map // edgeKey -> *edge
	nEdges       atomic.Int64
	edgesDropped atomic.Int64

	order sync.Map // orderKey (class pair) -> *orderEvidence
	invMu sync.Mutex
	invs  []Inversion

	// process-wide totals; virtual wait/hold conserve exactly against the
	// per-entry sums of non-real entries, realWaitNS against real entries.
	acquires   atomic.Int64
	contended  atomic.Int64
	waitNS     atomic.Int64
	holdNS     atomic.Int64
	realWaitNS atomic.Int64

	thMu       sync.Mutex
	threads    []*tRec
	thrDropped atomic.Int64
}

// entry is one named lock instance's accumulated statistics. All fields are
// concurrency-safe; the histograms are telemetry's lock-free log buckets.
type entry struct {
	rs    *regState // owning generation; totals bill here for conservation
	class string
	name  string // class/label, or class alone when unlabelled
	real  bool   // real-nanosecond lock (RealMutex), outside virtual conservation
	other bool   // per-class overflow aggregate row

	acquires   atomic.Int64
	reads      atomic.Int64
	contended  atomic.Int64
	waitNS     atomic.Int64
	holdNS     atomic.Int64
	maxWaitNS  atomic.Int64
	maxHoldNS  atomic.Int64
	lastHolder atomic.Int64 // TID of the most recent releaser

	waitH telemetry.Hist
	holdH telemetry.Hist
}

type edgeKey struct{ from, to *entry }

type edge struct {
	count  atomic.Int64
	waitNS atomic.Int64
}

type orderKey struct{ from, to string }

// OrderEvidence is one witnessed acquisition order: the named locks held
// (outermost first) when a lock of another class was acquired.
type OrderEvidence struct {
	TID      int      `json:"tid"`
	Held     []string `json:"held"`
	Acquired string   `json:"acquired"`
}

// Inversion is a lock-order inversion: class A was acquired while holding
// class B somewhere, and class B while holding class A somewhere else — the
// classic potential-deadlock shape lockdep reports. Ordering between
// instances of the same class (rename's two buckets, two inodes taken in key
// order) is a per-class address discipline and deliberately out of scope.
type Inversion struct {
	A        string        `json:"a"`
	B        string        `json:"b"`
	Forward  OrderEvidence `json:"forward"`  // A held, B acquired
	Backward OrderEvidence `json:"backward"` // B held, A acquired
}

// tRec is one thread's per-generation wait totals.
type tRec struct {
	tid    int
	waitNS atomic.Int64
	blocks atomic.Int64
}

// ThreadState is the per-thread rider on simclock.Clock's LockState slot. It
// carries the held-lock stack (accessed only by the owning thread) and a
// cached per-generation totals record.
type ThreadState struct {
	reg *Registry
	tid int
	rs  *regState
	tr  *tRec
	// held is the stack of instrumented locks this thread currently holds,
	// outermost first. Owned by the thread; never read concurrently.
	held []heldLock
}

type heldLock struct {
	e    *entry
	acq  int64
	read bool
}

var active atomic.Pointer[Registry]

// Enable creates a fresh registry and installs it as the active one,
// returning it. Threads created while it is active attach automatically.
func Enable(cfg Config) *Registry {
	r := NewRegistry(cfg)
	active.Store(r)
	return r
}

// NewRegistry creates a registry without installing it.
func NewRegistry(Config) *Registry {
	r := &Registry{}
	r.state.Store(&regState{gen: 1})
	return r
}

// Install makes r the active registry (nil is equivalent to Disable) — the
// save/restore idiom harness gates use around instrumented runs.
func Install(r *Registry) { active.Store(r) }

// Disable deactivates profiling. Existing ThreadStates go quiescent (their
// registry no longer matches the active one).
func Disable() { active.Store(nil) }

// Active returns the active registry, or nil.
func Active() *Registry { return active.Load() }

// Reset discards all collected data by swapping in a fresh generation.
// Lock name caches and thread records re-resolve against the new
// generation on their next acquisition; a remount plus Reset leaves no trace
// of the previous instance's locks (asserted by the remount test).
func (r *Registry) Reset() {
	old := r.state.Load()
	r.state.Store(&regState{gen: old.gen + 1})
}

// NewThreadState returns a state for the given thread ID, for attachment to
// its clock via SetLockState.
func (r *Registry) NewThreadState(tid int) *ThreadState {
	return &ThreadState{reg: r, tid: tid}
}

// HeldNow reports the number of instrumented locks currently held — zero at
// quiescence, making it a leak assertion.
func (r *Registry) HeldNow() int64 { return r.heldNow.Load() }

// WaitNS reports the total virtual lock-wait nanoseconds recorded this
// generation. When spans and lockprof are both attached to the same threads
// this equals the span collector's LockWaitNS exactly.
func (r *Registry) WaitNS() int64 { return r.state.Load().waitNS.Load() }

// profiled returns the state of c's thread when the active registry profiles
// it, or nil: no registry is active (one atomic load and a branch), c is nil
// or unattached, or its state belongs to an earlier registry.
func profiled(c *simclock.Clock) *ThreadState {
	reg := active.Load()
	if reg == nil {
		return nil
	}
	if st, _ := c.LockState().(*ThreadState); st != nil && st.reg == reg {
		return st
	}
	return nil
}

// recFor returns the thread's totals record in generation rs, re-attaching
// after a Reset.
func (st *ThreadState) recFor(rs *regState) *tRec {
	if st.rs == rs && st.tr != nil {
		return st.tr
	}
	rs.thMu.Lock()
	var tr *tRec
	if len(rs.threads) < maxThreads {
		tr = &tRec{tid: st.tid}
		rs.threads = append(rs.threads, tr)
	} else {
		rs.thrDropped.Add(1)
	}
	rs.thMu.Unlock()
	st.rs, st.tr = rs, tr
	return tr
}

func atomicMax(a *atomic.Int64, v int64) {
	for {
		cur := a.Load()
		if v <= cur || a.CompareAndSwap(cur, v) {
			return
		}
	}
}

// entryFor resolves (class, label) to this generation's entry, folding into
// the class overflow row past the instance cap.
func (rs *regState) entryFor(class, label string, real bool) *entry {
	name := class
	if label != "" {
		name = class + "/" + label
	}
	if v, ok := rs.entries.Load(name); ok {
		return v.(*entry)
	}
	if rs.nEntries.Load() >= maxLocks {
		rs.dropped.Add(1)
		oname := class + "/~other"
		if v, ok := rs.entries.Load(oname); ok {
			return v.(*entry)
		}
		v, _ := rs.entries.LoadOrStore(oname, &entry{rs: rs, class: class, name: oname, real: real, other: true})
		return v.(*entry)
	}
	e := &entry{rs: rs, class: class, name: name, real: real}
	if v, loaded := rs.entries.LoadOrStore(name, e); loaded {
		return v.(*entry)
	}
	rs.nEntries.Add(1)
	return e
}

// acquired records a completed instrumented acquisition: wait stats, the
// lock_wait event, the wait-for edge to the innermost held lock, class-order
// pairs, and the push onto the held stack. now is the (post-drain)
// acquisition time on the thread's clock.
func (st *ThreadState) acquired(e *entry, wait, now int64, read bool, holderTID int) {
	rs := e.rs
	e.acquires.Add(1)
	if read {
		e.reads.Add(1)
	}
	e.waitH.Observe(wait)
	rs.acquires.Add(1)
	if wait > 0 {
		e.contended.Add(1)
		e.waitNS.Add(wait)
		atomicMax(&e.maxWaitNS, wait)
		rs.contended.Add(1)
		rs.waitNS.Add(wait)
		if tr := st.recFor(rs); tr != nil {
			tr.waitNS.Add(wait)
			tr.blocks.Add(1)
		}
		pmemtrace.Active().RecordLockWait(now-wait, wait, st.tid, holderTID, e.name)
		if n := len(st.held); n > 0 {
			rs.recordEdge(st.held[n-1].e, e, wait)
		}
	}
	for i := range st.held {
		if st.held[i].e.class != e.class {
			rs.recordOrder(st, st.held[i].e.class, e)
		}
	}
	st.reg.heldNow.Add(1)
	st.held = append(st.held, heldLock{e: e, acq: now, read: read})
}

// released pops e from the held stack (if the matching acquire was
// instrumented) and records the hold. Totals bill to e's own generation so
// per-generation conservation holds even across a Reset mid-hold.
func (st *ThreadState) released(e *entry, now int64) {
	for i := len(st.held) - 1; i >= 0; i-- {
		if st.held[i].e != e {
			continue
		}
		hold := now - st.held[i].acq
		st.held = append(st.held[:i], st.held[i+1:]...)
		st.reg.heldNow.Add(-1)
		if hold < 0 {
			hold = 0
		}
		e.holdH.Observe(hold)
		e.holdNS.Add(hold)
		atomicMax(&e.maxHoldNS, hold)
		e.lastHolder.Store(int64(st.tid))
		e.rs.holdNS.Add(hold)
		return
	}
}

func (rs *regState) recordEdge(from, to *entry, wait int64) {
	k := edgeKey{from, to}
	v, ok := rs.edges.Load(k)
	if !ok {
		if rs.nEdges.Load() >= maxEdges {
			rs.edgesDropped.Add(1)
			return
		}
		var loaded bool
		if v, loaded = rs.edges.LoadOrStore(k, &edge{}); !loaded {
			rs.nEdges.Add(1)
		}
	}
	ed := v.(*edge)
	ed.count.Add(1)
	ed.waitNS.Add(wait)
}

// recordOrder notes "class(held) taken before class(acquiring)" once per
// ordered class pair, keeping the held-stack names as evidence; when the
// reverse pair already exists the inversion is reported with both stacks.
func (rs *regState) recordOrder(st *ThreadState, heldClass string, acquiring *entry) {
	k := orderKey{heldClass, acquiring.class}
	if _, ok := rs.order.Load(k); ok {
		return
	}
	held := make([]string, len(st.held))
	for i := range st.held {
		held[i] = st.held[i].e.name
	}
	ev := &OrderEvidence{TID: st.tid, Held: held, Acquired: acquiring.name}
	if _, loaded := rs.order.LoadOrStore(k, ev); loaded {
		return
	}
	if rv, ok := rs.order.Load(orderKey{acquiring.class, heldClass}); ok {
		// The reverse direction was seen first: report it as the forward
		// edge so Inversion.A→B reads in first-observed order.
		rs.addInversion(acquiring.class, heldClass, *rv.(*OrderEvidence), *ev)
	}
}

func (rs *regState) addInversion(a, b string, fwd, back OrderEvidence) {
	rs.invMu.Lock()
	defer rs.invMu.Unlock()
	for i := range rs.invs {
		if (rs.invs[i].A == a && rs.invs[i].B == b) || (rs.invs[i].A == b && rs.invs[i].B == a) {
			return
		}
	}
	rs.invs = append(rs.invs, Inversion{A: a, B: b, Forward: fwd, Backward: back})
}

// name is a lock's registry name and the entry the active generation gives
// it. Every lock type embeds one; the zero value is unnamed, so the lock
// works but is never profiled.
type name struct {
	class, label string
	key          int64 // the label as a number, when keyed (see InitKeyed)
	keyed        bool
	ent          atomic.Pointer[entry]
}

// Init names a zero-value lock in place (for embedded fields). Call before
// first use.
func (n *name) Init(class, label string) { n.class, n.label = class, label }

// InitKeyed names a zero-value lock whose label is a number, such as an inode
// page or a coffer ID. The decimal string is built when a registry first
// resolves the lock, so a table holding one lock per page pays for no label
// until somebody profiles it.
func (n *name) InitKeyed(class string, key int64) { n.class, n.key, n.keyed = class, key, true }

// resolve returns reg's current-generation entry for the lock, refreshing the
// cache after Enable/Reset, or nil when the lock is unnamed. Concurrent
// readers of an RWMutex may race on the store; all of them resolved the same
// entry from the same generation, so any winner is correct.
func (n *name) resolve(reg *Registry, real bool) *entry {
	rs := reg.state.Load()
	if e := n.ent.Load(); e != nil && e.rs == rs {
		return e
	}
	if n.class == "" {
		return nil
	}
	label := n.label
	if n.keyed {
		label = strconv.FormatInt(n.key, 10)
	}
	e := rs.entryFor(n.class, label, real)
	n.ent.Store(e)
	return e
}

// acquired records an acquisition by st's thread that waited wait virtual ns
// and ends at now, blaming holder.
func (n *name) acquired(st *ThreadState, wait, now int64, read bool, holder int) {
	if e := n.resolve(st.reg, false); e != nil {
		st.acquired(e, wait, now, read, holder)
	}
}

// released records st's thread releasing the lock at now.
func (n *name) released(st *ThreadState, now int64) {
	if e := n.ent.Load(); e != nil {
		st.released(e, now)
	}
}

// Mutex is a named virtual-time mutex. It couples a real sync.Mutex with the
// virtual release stamp of its last holder: Lock blocks for real and then
// advances the caller's clock past that stamp (Clock.WaitUntil, which bills
// the wait), and Unlock stamps the release. Critical sections therefore
// serialize in both real time (protecting the shared Go data) and virtual
// time, with the virtual hold equal to what the holder charged its clock.
// A nil clock takes real mutual exclusion only (one-time setup code). The
// zero value works unprofiled; Init (or NewMutex) names it.
type Mutex struct {
	name
	mu        sync.Mutex
	busyUntil int64 // latest virtual release stamp
	lastTID   int   // TID of the last profiled releaser, blamed by waiters
}

// NewMutex returns a named mutex.
func NewMutex(class, label string) *Mutex {
	m := &Mutex{}
	m.Init(class, label)
	return m
}

// Lock acquires the mutex and advances c past the last release; when c's
// thread is profiled the wait, blamed holder and held-stack effects are
// recorded. Profiling never advances the clock.
func (m *Mutex) Lock(c *simclock.Clock) {
	m.mu.Lock()
	if c == nil {
		return
	}
	wait := c.WaitUntil(m.busyUntil)
	if st := profiled(c); st != nil {
		m.acquired(st, wait, c.Now(), false, m.lastTID)
	}
}

// Unlock stamps the virtual release time and releases the mutex.
func (m *Mutex) Unlock(c *simclock.Clock) {
	if c != nil {
		m.busyUntil = max(m.busyUntil, c.Now())
		if st := profiled(c); st != nil {
			m.released(st, c.Now())
			m.lastTID = st.tid
		}
	}
	m.mu.Unlock()
}

// RWMutex is the readers-writer analogue of Mutex: real sync.RWMutex
// semantics for the protected Go data plus virtual time in which readers
// overlap and writers serialize. It models the per-file readers-writer locks
// that let data reads scale in FxMark (§6.1).
//
// The write side's stamp and releaser are written only under the write lock
// and read after the real Lock/RLock, which orders them. Readers release
// concurrently, so their stamp and releaser are guarded by vmu; a writer
// reads them after its real Lock, which every reader's RUnlock precedes.
type RWMutex struct {
	name
	mu            sync.RWMutex
	vmu           sync.Mutex
	writeBusy     int64 // latest writer release stamp
	lastReaderEnd int64 // latest reader release stamp
	wTID          int   // TID of the last profiled writer releaser
	rTID          int   // TID of the profiled reader whose release set lastReaderEnd
}

// Lock acquires the write side, waiting (virtually) for all prior writers and
// then all prior readers; the two waits bill separately and sum to the total.
// The blamed holder is whichever side released later.
func (m *RWMutex) Lock(c *simclock.Clock) {
	m.mu.Lock()
	if c == nil {
		return
	}
	wait := c.WaitUntil(m.writeBusy) + c.WaitUntil(m.lastReaderEnd)
	if st := profiled(c); st != nil {
		holder := m.wTID
		if m.lastReaderEnd > m.writeBusy {
			holder = m.rTID
		}
		m.acquired(st, wait, c.Now(), false, holder)
	}
}

// Unlock stamps the writer's release and releases the write side.
func (m *RWMutex) Unlock(c *simclock.Clock) {
	if c != nil {
		m.writeBusy = max(m.writeBusy, c.Now())
		if st := profiled(c); st != nil {
			m.released(st, c.Now())
			m.wTID = st.tid
		}
	}
	m.mu.Unlock()
}

// RLock acquires the read side, waiting (virtually) only for prior writers;
// a contended reader blames the last writer.
func (m *RWMutex) RLock(c *simclock.Clock) {
	m.mu.RLock()
	if c == nil {
		return
	}
	wait := c.WaitUntil(m.writeBusy)
	if st := profiled(c); st != nil {
		m.acquired(st, wait, c.Now(), true, m.wTID)
	}
}

// RUnlock records the latest reader release, and its releaser when the
// release stamp rises, and releases the read side.
func (m *RWMutex) RUnlock(c *simclock.Clock) {
	if c != nil {
		st := profiled(c)
		m.vmu.Lock()
		if now := c.Now(); now > m.lastReaderEnd {
			m.lastReaderEnd = now
			if st != nil {
				m.rTID = st.tid
			}
		}
		m.vmu.Unlock()
		if st != nil {
			m.released(st, c.Now())
		}
	}
	m.mu.RUnlock()
}
