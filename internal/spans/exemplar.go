package spans

import (
	"sort"
	"sync"
	"sync/atomic"

	"zofs/internal/lockprof"
	"zofs/internal/pmemtrace"
	"zofs/internal/telemetry"
)

// Worst-op exemplar capture: the tail observatory's answer to "show me the
// actual op behind that p999". When a root span folds slower than the
// fastest of its op kind's K retained exemplars (or fewer than K are
// retained), the collector keeps the full span tree together with the
// evidence needed to explain it — the exact-sum component attribution it
// already carries, the blamed contended-lock intervals from the lock
// profiler, and the surrounding pmemtrace device-event window. Retention is a
// bounded worst-K ring per op kind, so memory stays fixed no matter how long
// the run.

// maxExemplarEvents bounds the pmemtrace event window attached to one
// exemplar; overflow sets EventsTruncated rather than growing unboundedly.
const maxExemplarEvents = 256

// DefaultExemplarK is the per-op worst-K ring size used when Config asks
// for exemplars without picking a K.
const DefaultExemplarK = 8

// Exemplar is one retained worst-case operation: the root span tree plus
// the cross-layer evidence gathered at capture time.
type Exemplar struct {
	Root Root `json:"root"`
	// Locks are the lock profiler's blocked intervals for the op's thread
	// overlapping the span — the blamed contended locks, holder TIDs
	// included. Nil when no lock profiler was collecting.
	Locks []lockprof.BlockedInterval `json:"locks,omitempty"`
	// Events is the pmemtrace device-event window overlapping the span
	// (all threads: concurrent traffic is usually the explanation). Nil
	// when no flight recorder was collecting.
	Events          []pmemtrace.Event `json:"events,omitempty"`
	EventsTruncated bool              `json:"events_truncated,omitempty"`
}

// exemplars is the collector's per-op worst-K state.
type exemplars struct {
	k  int
	mu sync.Mutex
	// worst[op] is sorted ascending by Root.Dur; worst[op][0] is the floor.
	worst    [telemetry.NumOps][]Exemplar
	captured atomic.Int64
}

// maybeCapture retains r as an exemplar if it beats the op kind's worst-K
// floor. Called from fold after the residual is computed, so the exact-sum
// attribution invariant already holds on every captured root.
func (c *Collector) maybeCapture(op telemetry.Op, r *Root) {
	ex := c.ex
	ex.mu.Lock()
	lst := ex.worst[op]
	if len(lst) >= ex.k && r.Dur <= lst[0].Root.Dur {
		ex.mu.Unlock()
		return
	}
	e := Exemplar{Root: *r}
	// Evidence gathering under exMu is fine: both sources take only their
	// own leaf locks, and captures are rare once the floor rises.
	if reg := lockprof.Active(); reg != nil {
		e.Locks = reg.BlockedIn(r.TID, r.Start, r.Start+r.Dur)
	}
	if tr := pmemtrace.Active(); tr != nil {
		e.Events, e.EventsTruncated = tr.EventsBetween(r.Start, r.Start+r.Dur, maxExemplarEvents)
	}
	at := sort.Search(len(lst), func(i int) bool { return lst[i].Root.Dur > e.Root.Dur })
	lst = append(lst, Exemplar{})
	copy(lst[at+1:], lst[at:])
	lst[at] = e
	if len(lst) > ex.k {
		lst = lst[1:]
	}
	ex.worst[op] = lst
	ex.mu.Unlock()
	ex.captured.Add(1)
}

// Exemplars copies out every retained exemplar, op kinds in dispatch order,
// worst first within each kind.
func (c *Collector) Exemplars() []Exemplar {
	if c == nil || c.ex == nil {
		return nil
	}
	c.ex.mu.Lock()
	defer c.ex.mu.Unlock()
	var out []Exemplar
	for op := range c.ex.worst {
		lst := c.ex.worst[op]
		for i := len(lst) - 1; i >= 0; i-- {
			out = append(out, lst[i])
		}
	}
	return out
}

// ExemplarsCaptured reports how many exemplars were retained (including ones
// later displaced from a worst-K ring).
func (c *Collector) ExemplarsCaptured() int64 {
	if c == nil || c.ex == nil {
		return 0
	}
	return c.ex.captured.Load()
}

// resetExemplars clears the rings (Collector.Reset).
func (c *Collector) resetExemplars() {
	if c.ex == nil {
		return
	}
	c.ex.mu.Lock()
	for i := range c.ex.worst {
		c.ex.worst[i] = nil
	}
	c.ex.mu.Unlock()
	c.ex.captured.Store(0)
}
