// Package series is the tail observatory's windowed metrics pipeline: it
// buckets every observed operation into fixed-width virtual-time windows,
// each carrying per-op-kind counters and log-bucket latency histograms in
// the exact telemetry geometry — so p50/p95/p99/p999 are queryable per
// window (warmup vs steady state, contention storms, quarantine transitions
// as phenomena-in-time). The whole-run per-op record is the span
// collector's (internal/spans); windows add only what it cannot show, when.
// A session's span log holds every root's op, start and duration, so
// zofs-obs rebuilds the same windows from it by feeding the roots to a
// fresh Collector.
//
// Like every observability layer here, the collector only reads clocks: a
// run's virtual timeline is bit-identical with series collection on or off.
package series

import (
	"sort"
	"sync"
	"sync/atomic"

	"zofs/internal/telemetry"
)

// DefaultWindowNS is the default window width (1ms of virtual time).
const DefaultWindowNS = 1_000_000

// DefaultMaxWindows bounds the retained window map; beyond it the oldest
// window is dropped and its observations counted as evicted.
const DefaultMaxWindows = 1024

// Config parameterizes a Collector.
type Config struct {
	// WindowNS is the virtual-time window width (default DefaultWindowNS).
	WindowNS int64
	// MaxWindows bounds retained windows (default DefaultMaxWindows).
	MaxWindows int
}

// opWin is one op kind's aggregate within one window.
type opWin struct {
	count   int64
	sumNS   int64
	buckets [telemetry.HistBuckets]int64
}

// window is one fixed-width virtual-time window.
type window struct {
	ops [telemetry.NumOps]*opWin
}

// Collector aggregates observations into virtual-time windows. Safe for
// concurrent use by many simulated threads.
type Collector struct {
	widthNS    int64
	maxWindows int

	mu      sync.Mutex
	win     map[int64]*window
	evicted int64 // observations in windows dropped to bound retention
	total   int64 // observations ever
}

// NewCollector returns an empty collector.
func NewCollector(cfg Config) *Collector {
	c := &Collector{
		widthNS:    cfg.WindowNS,
		maxWindows: cfg.MaxWindows,
		win:        map[int64]*window{},
	}
	if c.widthNS <= 0 {
		c.widthNS = DefaultWindowNS
	}
	if c.maxWindows <= 0 {
		c.maxWindows = DefaultMaxWindows
	}
	return c
}

// active is the process-wide collector; nil means series collection is off
// (the default) — the same enablement pattern as telemetry and spans.
var active atomic.Pointer[Collector]

// Enable installs (and returns) a fresh process-wide collector.
func Enable(cfg Config) *Collector {
	c := NewCollector(cfg)
	active.Store(c)
	return c
}

// Install makes c the process-wide collector (nil is equivalent to Disable).
func Install(c *Collector) { active.Store(c) }

// Disable removes the process-wide collector.
func Disable() { active.Store(nil) }

// Active returns the current process-wide collector, or nil when disabled.
func Active() *Collector { return active.Load() }

// Observe records one finished operation: it lands in the window containing
// its start time, in the telemetry bucket geometry.
func (c *Collector) Observe(op telemetry.Op, startNS, durNS int64) {
	if c == nil {
		return
	}
	wi := startNS / c.widthNS
	if wi < 0 {
		wi = 0
	}
	c.mu.Lock()
	w := c.win[wi]
	if w == nil {
		if len(c.win) >= c.maxWindows {
			c.evictOldestLocked()
		}
		w = &window{}
		c.win[wi] = w
	}
	ow := w.ops[op]
	if ow == nil {
		ow = &opWin{}
		w.ops[op] = ow
	}
	ow.count++
	ow.sumNS += durNS
	ow.buckets[telemetry.BucketOf(durNS)]++
	c.total++
	c.mu.Unlock()
}

// evictOldestLocked drops the lowest-index window, counting its observations.
func (c *Collector) evictOldestLocked() {
	var oldest int64
	first := true
	for i := range c.win {
		if first || i < oldest {
			oldest, first = i, false
		}
	}
	if first {
		return
	}
	for _, ow := range c.win[oldest].ops {
		if ow != nil {
			c.evicted += ow.count
		}
	}
	delete(c.win, oldest)
}

// OpWindow is one op kind's published aggregate within one window.
type OpWindow struct {
	Count  int64 `json:"count"`
	SumNS  int64 `json:"sum_ns"`
	MeanNS int64 `json:"mean_ns"`
	P50NS  int64 `json:"p50_ns"`
	P95NS  int64 `json:"p95_ns"`
	P99NS  int64 `json:"p99_ns"`
	P999NS int64 `json:"p999_ns"`

	Buckets []int64 `json:"-"` // exact bucket vector; in-process consumers only
}

// Window is one published fixed-width window.
type Window struct {
	Index   int64               `json:"window"`
	StartNS int64               `json:"start_ns"`
	WidthNS int64               `json:"width_ns"`
	Ops     map[string]OpWindow `json:"ops"`
}

func snapOpWin(ow *opWin) OpWindow {
	o := OpWindow{
		Count:   ow.count,
		SumNS:   ow.sumNS,
		Buckets: append([]int64(nil), ow.buckets[:]...),
	}
	if o.Count > 0 {
		o.MeanNS = o.SumNS / o.Count
		o.P50NS = telemetry.Quantile(o.Buckets, o.Count, 0.50)
		o.P95NS = telemetry.Quantile(o.Buckets, o.Count, 0.95)
		o.P99NS = telemetry.Quantile(o.Buckets, o.Count, 0.99)
		o.P999NS = telemetry.Quantile(o.Buckets, o.Count, 0.999)
	}
	return o
}

// Windows returns the retained windows in ascending virtual-time order.
func (c *Collector) Windows() []Window {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.latestLocked(0)
}

// latestLocked returns the newest n retained windows (all of them when n is
// 0), ascending — so a summary of a long run does not copy every window's
// buckets to show the last few. Caller holds c.mu.
func (c *Collector) latestLocked(n int) []Window {
	idx := make([]int64, 0, len(c.win))
	for i := range c.win {
		idx = append(idx, i)
	}
	sort.Slice(idx, func(a, b int) bool { return idx[a] < idx[b] })
	if n > 0 && len(idx) > n {
		idx = idx[len(idx)-n:]
	}
	out := make([]Window, 0, len(idx))
	for _, i := range idx {
		w := c.win[i]
		ws := Window{Index: i, StartNS: i * c.widthNS, WidthNS: c.widthNS, Ops: map[string]OpWindow{}}
		for oi := range w.ops {
			if w.ops[oi] == nil || w.ops[oi].count == 0 {
				continue
			}
			ws.Ops[telemetry.Op(oi).Name()] = snapOpWin(w.ops[oi])
		}
		out = append(out, ws)
	}
	return out
}
