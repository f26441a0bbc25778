// Package telemetry is the observability substrate of the Treasury stack:
// sharded lock-free per-layer counters and gauges behind a near-zero-cost
// *Recorder handle whose nil value is a valid no-op sink, plus the op names
// and the log-bucket latency geometry every per-op collector shares.
//
// Every instrumented layer (nvm, proc/mpk, kernfs, zofs, fslibs) reaches its
// recorder through the owning *nvm.Device, so a single Enable() call before
// device creation lights up the whole stack and the default (nil) recorder
// keeps the hot paths at a pointer load plus a predicted branch. Per-op
// latencies live in the span collector (internal/spans); like every latency
// here they are simulated nanoseconds from the per-thread virtual clocks —
// wall time is meaningless in this repository (see internal/simclock).
package telemetry

import (
	"sync/atomic"
	"unsafe"
)

// Counter enumerates the per-layer monotonic counters. Names are
// "<layer>.<metric>"; the layer prefix groups the text rendering.
type Counter int

const (
	// nvm: media-level events charged by the device cost model.
	CtrNVMReads Counter = iota
	CtrNVMBytesRead
	CtrNVMCachedWrites
	CtrNVMNTStores
	CtrNVMFlushes
	CtrNVMCLWBLines
	CtrNVMFences
	CtrNVMBytesWritten
	CtrNVMZeroBytes
	CtrNVMDegradeEvents

	// mpk: protection-domain switching.
	CtrMPKSwitches
	CtrMPKWRPKRUCharged
	CtrMPKViolations

	// kernfs: trap-equivalents (every entry charges a syscall).
	CtrKernSyscalls
	CtrKernCofferNew
	CtrKernCofferDelete
	CtrKernCofferEnlarge
	CtrKernEnlargePages
	CtrKernCofferShrink
	CtrKernCofferMap
	CtrKernCofferUnmap
	CtrKernCofferSplit
	CtrKernCofferMerge
	CtrKernMovePages
	CtrKernRecoveries
	CtrKernQuarantines
	CtrKernViolationReports

	// fslibs: faults the dispatcher's guard turned into errors.
	CtrFaultsRecovered

	// zofs µFS decisions.
	CtrZoFSPagesAlloc
	CtrZoFSPagesFreed
	CtrZoFSInlineWrites
	CtrZoFSExtentWrites
	CtrZoFSDeInline

	numCounters
)

// counterNames maps Counter values to "<layer>.<metric>" names.
var counterNames = [numCounters]string{
	CtrNVMReads:         "nvm.reads",
	CtrNVMBytesRead:     "nvm.bytes_read",
	CtrNVMCachedWrites:  "nvm.cached_writes",
	CtrNVMNTStores:      "nvm.nt_stores",
	CtrNVMFlushes:       "nvm.flushes",
	CtrNVMCLWBLines:     "nvm.clwb_lines",
	CtrNVMFences:        "nvm.fences",
	CtrNVMBytesWritten:  "nvm.bytes_written",
	CtrNVMZeroBytes:     "nvm.zero_bytes",
	CtrNVMDegradeEvents: "nvm.degrade_events",

	CtrMPKSwitches:      "mpk.pkru_switches",
	CtrMPKWRPKRUCharged: "mpk.wrpkru_charged",
	CtrMPKViolations:    "mpk.violations",

	CtrKernSyscalls:         "kernfs.syscalls",
	CtrKernCofferNew:        "kernfs.coffer_new",
	CtrKernCofferDelete:     "kernfs.coffer_delete",
	CtrKernCofferEnlarge:    "kernfs.coffer_enlarge",
	CtrKernEnlargePages:     "kernfs.enlarge_pages",
	CtrKernCofferShrink:     "kernfs.coffer_shrink",
	CtrKernCofferMap:        "kernfs.coffer_map",
	CtrKernCofferUnmap:      "kernfs.coffer_unmap",
	CtrKernCofferSplit:      "kernfs.coffer_split",
	CtrKernCofferMerge:      "kernfs.coffer_merge",
	CtrKernMovePages:        "kernfs.move_pages",
	CtrKernRecoveries:       "kernfs.recoveries",
	CtrKernQuarantines:      "kernfs.quarantines",
	CtrKernViolationReports: "kernfs.violation_reports",

	CtrFaultsRecovered: "fslibs.faults_recovered",

	CtrZoFSPagesAlloc:   "zofs.pages_alloc",
	CtrZoFSPagesFreed:   "zofs.pages_freed",
	CtrZoFSInlineWrites: "zofs.inline_writes",
	CtrZoFSExtentWrites: "zofs.extent_writes",
	CtrZoFSDeInline:     "zofs.deinline_migrations",
}

// Name returns the counter's "<layer>.<metric>" name.
func (c Counter) Name() string { return counterNames[c] }

// Gauge enumerates high-water-mark gauges (Max semantics, not additive).
type Gauge int

const (
	GaugeDirtyLinesHWM Gauge = iota
	GaugeWriteConcurrency
	numGauges
)

var gaugeNames = [numGauges]string{
	GaugeDirtyLinesHWM:    "nvm.dirty_lines_hwm",
	GaugeWriteConcurrency: "nvm.write_concurrency_hwm",
}

// Name returns the gauge's "<layer>.<metric>" name.
func (g Gauge) Name() string { return gaugeNames[g] }

// counterShards spreads hot counters across cachelines so concurrent
// simulated threads do not serialize on one atomic word.
const counterShards = 16

type counterShard struct {
	v [numCounters]atomic.Int64
	_ [64]byte // keep neighbouring shards off the same cacheline
}

// Recorder is one telemetry sink. The nil *Recorder is a valid no-op sink:
// every method nil-checks its receiver, so instrumented layers call
// unconditionally.
type Recorder struct {
	counters [counterShards]counterShard
	gauges   [numGauges]atomic.Int64
}

// New returns an empty enabled recorder.
func New() *Recorder { return &Recorder{} }

// active is the process-wide recorder captured by nvm.New at device
// creation; nil means telemetry is off (the default).
var active atomic.Pointer[Recorder]

// Enable installs (and returns) a fresh process-wide recorder. Devices
// created afterwards attach to it.
func Enable() *Recorder {
	r := New()
	active.Store(r)
	return r
}

// Install makes r the process-wide recorder (nil is equivalent to Disable) —
// how a scope that enabled its own puts back the one it found.
func Install(r *Recorder) { active.Store(r) }

// Disable removes the process-wide recorder; devices created afterwards are
// unobserved.
func Disable() { active.Store(nil) }

// Active returns the current process-wide recorder, or nil when disabled.
func Active() *Recorder { return active.Load() }

// shardIdx picks a counter shard from the calling goroutine's stack address:
// distinct goroutines live on distinct stacks, so concurrent incrementers
// spread over shards without any thread-local storage.
func shardIdx() int {
	var probe byte
	return int(uintptr(unsafe.Pointer(&probe)) >> 10 % counterShards)
}

// maxInt64 is the saturation ceiling for counters and histogram cells:
// monotonic values pin there instead of wrapping negative, so snapshot
// deltas stay non-negative no matter how long a run accumulates.
const maxInt64 = int64(^uint64(0) >> 1)

// satAdd returns a+b saturating at maxInt64 (both operands non-negative).
func satAdd(a, b int64) int64 {
	if s := a + b; s >= a {
		return s
	}
	return maxInt64
}

// Inc adds 1 to a counter.
func (r *Recorder) Inc(c Counter) {
	if r == nil {
		return
	}
	v := &r.counters[shardIdx()].v[c]
	if v.Add(1) < 0 {
		v.Store(maxInt64)
	}
}

// Add adds n to a counter. Negative n is ignored (counters are monotonic);
// a shard that overflows pins at maxInt64 rather than wrapping.
func (r *Recorder) Add(c Counter, n int64) {
	if r == nil || n <= 0 {
		return
	}
	v := &r.counters[shardIdx()].v[c]
	if v.Add(n) < 0 {
		v.Store(maxInt64)
	}
}

// Max raises a gauge to v if v exceeds its current value.
func (r *Recorder) Max(g Gauge, v int64) {
	if r == nil {
		return
	}
	for {
		cur := r.gauges[g].Load()
		if v <= cur || r.gauges[g].CompareAndSwap(cur, v) {
			return
		}
	}
}

// counterTotal sums a counter across shards, saturating at maxInt64 so a
// long-lived recorder reports a pinned ceiling instead of a wrapped negative.
func (r *Recorder) counterTotal(c Counter) int64 {
	var t int64
	for i := range r.counters {
		t = satAdd(t, r.counters[i].v[c].Load())
	}
	return t
}

// Reset zeroes every counter and gauge.
func (r *Recorder) Reset() {
	if r == nil {
		return
	}
	for i := range r.counters {
		for c := range r.counters[i].v {
			r.counters[i].v[c].Store(0)
		}
	}
	for g := range r.gauges {
		r.gauges[g].Store(0)
	}
}
