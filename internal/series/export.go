package series

import (
	"fmt"
	"io"
	"sort"
	"text/tabwriter"
)

// The windowed view leaves the process two ways: series.jsonl is the raw log
// (one Window per line, self-describing — every line carries the window
// index, start and width), and Snapshot is the panel the observation
// document carries — the merged whole-run view, the latest windows and SLO
// burn — with its text rendering and its checks.

// RecentWindows bounds the windows a Snapshot carries (and the timeline
// panel shows) to the latest few; series.jsonl holds them all.
const RecentWindows = 12

// Snapshot is a point-in-time summary of a Collector.
type Snapshot struct {
	WidthNS int64 `json:"width_ns"`
	Windows int   `json:"windows"`
	// Spilled counts the windows evicted into the spill aggregate (0 means
	// every window is still individually queryable).
	Spilled      int64 `json:"spilled_windows"`
	Observations int64 `json:"observations"`
	// Ops is the merged whole-run view per op kind.
	Ops map[string]OpWindow `json:"ops"`
	// Recent is the latest RecentWindows windows, ascending.
	Recent []Window    `json:"recent,omitempty"`
	SLOs   []SLOStatus `json:"slos,omitempty"`
}

// Snapshot summarizes the collector's current state.
func (c *Collector) Snapshot() Snapshot {
	s := Snapshot{WidthNS: c.widthNS, Ops: c.Merged(), SLOs: c.SLOs()}
	s.Recent, s.Windows = c.latest(RecentWindows)
	c.mu.Lock()
	s.Spilled, s.Observations = c.spilled, c.total
	c.mu.Unlock()
	return s
}

func sortedOps(m map[string]OpWindow) []string {
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// WriteText renders the timeline panel: per recent window the op volume, the
// slowest op kind by p99, and the worst windowed SLO burn.
func (s Snapshot) WriteText(w io.Writer) error {
	if s.Windows == 0 {
		return nil
	}
	fmt.Fprintf(w, "\ntimeline (virtual time, %d windows total)\n", s.Windows)
	t := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(t, "window\tstart ms\tops\tworst op\tp99 ns\tmax burn")
	for _, win := range s.Recent {
		var total int64
		worstOp, worstP99 := "-", int64(0)
		var maxBurn float64
		for _, name := range sortedOps(win.Ops) {
			ow := win.Ops[name]
			total += ow.Count
			if ow.P99NS > worstP99 {
				worstOp, worstP99 = name, ow.P99NS
			}
			if ow.SLOBurn > maxBurn {
				maxBurn = ow.SLOBurn
			}
		}
		fmt.Fprintf(t, "%d\t%.3f\t%d\t%s\t%d\t%.2f\n",
			win.Index, float64(win.StartNS)/1e6, total, worstOp, worstP99, maxBurn)
	}
	return t.Flush()
}

// Check enforces the panel's invariants:
//
//   - each op's latency summary is of its op total: its mean is sum/count
//     and, where the bucket vector is carried (in process), the buckets sum
//     to the count;
//   - conservation: op totals sum exactly to Observations;
//   - SLO sanity: breaches never exceed evaluated events.
func (s Snapshot) Check() error {
	var total int64
	for _, name := range sortedOps(s.Ops) {
		o := s.Ops[name]
		if o.Count <= 0 || o.MeanNS != o.SumNS/o.Count {
			return fmt.Errorf("series: op %q: mean %d ns is not sum %d ns over count %d", name, o.MeanNS, o.SumNS, o.Count)
		}
		if o.Buckets != nil {
			var n int64
			for _, v := range o.Buckets {
				n += v
			}
			if n != o.Count {
				return fmt.Errorf("series: op %q: latency histogram holds %d ops, op total %d", name, n, o.Count)
			}
		}
		total += o.Count
	}
	if total != s.Observations {
		return fmt.Errorf("series: per-op totals sum to %d, observations %d", total, s.Observations)
	}
	for _, o := range s.SLOs {
		if o.Bad > o.Total {
			return fmt.Errorf("series: slo %q: breaches %d > events %d", o.Op, o.Bad, o.Total)
		}
	}
	return nil
}
