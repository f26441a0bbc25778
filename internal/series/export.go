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
// document carries — the latest windows and SLO burn — with its text
// rendering and its checks.

// RecentWindows bounds the windows a Snapshot carries (and the timeline
// panel shows) to the latest few; series.jsonl holds them all.
const RecentWindows = 12

// Snapshot is a point-in-time summary of a Collector.
type Snapshot struct {
	WidthNS int64 `json:"width_ns"`
	// Windows is how many windows are retained.
	Windows int `json:"windows"`
	// Observations counts every op observed; Retained those the retained
	// windows hold and Evicted those of windows dropped to bound retention.
	Observations int64 `json:"observations"`
	Retained     int64 `json:"retained_observations"`
	Evicted      int64 `json:"evicted_observations"`
	// Recent is the latest RecentWindows windows, ascending.
	Recent []Window    `json:"recent,omitempty"`
	SLOs   []SLOStatus `json:"slos,omitempty"`
}

// Snapshot summarizes the collector's current state, under one lock, so a
// snapshot taken while threads still observe is as consistent as a final
// one.
func (c *Collector) Snapshot() Snapshot {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := Snapshot{
		WidthNS:      c.widthNS,
		Windows:      len(c.win),
		Observations: c.total,
		Evicted:      c.evicted,
		Recent:       c.latestLocked(RecentWindows),
		SLOs:         c.slosLocked(),
	}
	for _, w := range c.win {
		for _, ow := range w.ops {
			if ow != nil {
				s.Retained += ow.count
			}
		}
	}
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
//   - conservation: the retained windows' observations plus the evicted ones
//     are exactly Observations, and the recent windows hold no more than the
//     retained ones;
//   - each recent window's op summary is of its op total: its mean is
//     sum/count and, where the bucket vector is carried (in process), the
//     buckets sum to the count;
//   - SLO sanity: breaches never exceed evaluated events.
func (s Snapshot) Check() error {
	if s.Retained+s.Evicted != s.Observations {
		return fmt.Errorf("series: %d retained + %d evicted observations, want %d", s.Retained, s.Evicted, s.Observations)
	}
	var recent int64
	for _, win := range s.Recent {
		for _, name := range sortedOps(win.Ops) {
			o := win.Ops[name]
			if o.Count <= 0 || o.MeanNS != o.SumNS/o.Count {
				return fmt.Errorf("series: window %d op %q: mean %d ns is not sum %d ns over count %d",
					win.Index, name, o.MeanNS, o.SumNS, o.Count)
			}
			if o.Buckets != nil {
				var n int64
				for _, v := range o.Buckets {
					n += v
				}
				if n != o.Count {
					return fmt.Errorf("series: window %d op %q: latency histogram holds %d ops, op total %d",
						win.Index, name, n, o.Count)
				}
			}
			recent += o.Count
		}
	}
	if recent > s.Retained {
		return fmt.Errorf("series: recent windows hold %d observations, retained %d", recent, s.Retained)
	}
	for _, o := range s.SLOs {
		if o.Bad > o.Total {
			return fmt.Errorf("series: slo %q: breaches %d > events %d", o.Op, o.Bad, o.Total)
		}
	}
	return nil
}
