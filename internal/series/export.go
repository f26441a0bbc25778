package series

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"text/tabwriter"

	"zofs/internal/openmetrics"
)

// The windowed view leaves the process two ways: series.jsonl is the raw log
// (one Window per line, self-describing — every line carries the window
// index, start and width), and Snapshot is the panel the observation
// document carries — the merged whole-run view, the latest windows and SLO
// burn — with its text and OpenMetrics renderings.

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

// WriteOpenMetrics renders the snapshot's families (no "# EOF": the
// observation document terminates the exposition): run-level scalars, per-op
// count totals, a merged latency summary (quantiles 0.5/0.95/0.99/0.999 with
// _sum/_count), last-window rate gauges and per-objective SLO burn. Output is
// deterministic: ops sorted by name.
func (s Snapshot) WriteOpenMetrics(w io.Writer) error {
	bw := bufio.NewWriter(w)
	openmetrics.WriteScalar(bw, "zofs_series_windows", "gauge", "Retained virtual-time windows.", s.Windows)
	openmetrics.WriteScalar(bw, "zofs_series_window_width_ns", "gauge", "Window width in virtual nanoseconds.", s.WidthNS)
	openmetrics.WriteScalar(bw, "zofs_series_spilled_windows", "counter", "Windows evicted into the spill aggregate.", s.Spilled)
	openmetrics.WriteScalar(bw, "zofs_series_observations", "counter", "Operations observed.", s.Observations)

	ops := sortedOps(s.Ops)

	fmt.Fprintf(bw, "# TYPE zofs_series_op_ops counter\n# HELP zofs_series_op_ops Operations observed per op kind.\n")
	for _, name := range ops {
		fmt.Fprintf(bw, "zofs_series_op_ops_total{op=%q} %d\n", name, s.Ops[name].Count)
	}
	fmt.Fprintf(bw, "# TYPE zofs_series_op_latency_ns summary\n# HELP zofs_series_op_latency_ns Merged whole-run latency per op kind.\n")
	for _, name := range ops {
		m := s.Ops[name]
		fmt.Fprintf(bw, "zofs_series_op_latency_ns{op=%q,quantile=\"0.5\"} %d\n", name, m.P50NS)
		fmt.Fprintf(bw, "zofs_series_op_latency_ns{op=%q,quantile=\"0.95\"} %d\n", name, m.P95NS)
		fmt.Fprintf(bw, "zofs_series_op_latency_ns{op=%q,quantile=\"0.99\"} %d\n", name, m.P99NS)
		fmt.Fprintf(bw, "zofs_series_op_latency_ns{op=%q,quantile=\"0.999\"} %d\n", name, m.P999NS)
		fmt.Fprintf(bw, "zofs_series_op_latency_ns_sum{op=%q} %d\n", name, m.SumNS)
		fmt.Fprintf(bw, "zofs_series_op_latency_ns_count{op=%q} %d\n", name, m.Count)
	}

	if len(s.Recent) > 0 {
		last := s.Recent[len(s.Recent)-1]
		lastOps := sortedOps(last.Ops)
		fmt.Fprintf(bw, "# TYPE zofs_series_last_window gauge\n# HELP zofs_series_last_window Index of the latest retained window.\n")
		fmt.Fprintf(bw, "zofs_series_last_window %d\n", last.Index)
		fmt.Fprintf(bw, "# TYPE zofs_series_last_window_ops gauge\n# HELP zofs_series_last_window_ops Operations in the latest window per op kind.\n")
		for _, name := range lastOps {
			fmt.Fprintf(bw, "zofs_series_last_window_ops{op=%q} %d\n", name, last.Ops[name].Count)
		}
		fmt.Fprintf(bw, "# TYPE zofs_series_last_window_p99_ns gauge\n# HELP zofs_series_last_window_p99_ns p99 latency in the latest window per op kind.\n")
		for _, name := range lastOps {
			fmt.Fprintf(bw, "zofs_series_last_window_p99_ns{op=%q} %d\n", name, last.Ops[name].P99NS)
		}
	}

	if slos := s.SLOs; len(slos) > 0 {
		fmt.Fprintf(bw, "# TYPE zofs_slo_threshold_ns gauge\n# HELP zofs_slo_threshold_ns Objective latency threshold per op kind.\n")
		for _, o := range slos {
			fmt.Fprintf(bw, "zofs_slo_threshold_ns{op=%q} %d\n", o.Op, o.ThresholdNS)
		}
		fmt.Fprintf(bw, "# TYPE zofs_slo_target gauge\n# HELP zofs_slo_target Objective good-fraction target per op kind.\n")
		for _, o := range slos {
			fmt.Fprintf(bw, "zofs_slo_target{op=%q} %s\n", o.Op, strconv.FormatFloat(o.Target, 'f', 6, 64))
		}
		fmt.Fprintf(bw, "# TYPE zofs_slo_events counter\n# HELP zofs_slo_events Operations evaluated against the objective.\n")
		for _, o := range slos {
			fmt.Fprintf(bw, "zofs_slo_events_total{op=%q} %d\n", o.Op, o.Total)
		}
		fmt.Fprintf(bw, "# TYPE zofs_slo_breaches counter\n# HELP zofs_slo_breaches Operations exceeding the objective threshold.\n")
		for _, o := range slos {
			fmt.Fprintf(bw, "zofs_slo_breaches_total{op=%q} %d\n", o.Op, o.Bad)
		}
		fmt.Fprintf(bw, "# TYPE zofs_slo_burn gauge\n# HELP zofs_slo_burn Cumulative error-budget burn rate (1.0 consumes the budget exactly).\n")
		for _, o := range slos {
			fmt.Fprintf(bw, "zofs_slo_burn{op=%q} %s\n", o.Op, strconv.FormatFloat(o.Burn, 'f', 4, 64))
		}
		fmt.Fprintf(bw, "# TYPE zofs_slo_last_burn gauge\n# HELP zofs_slo_last_burn Burn rate of the latest window with observations.\n")
		for _, o := range slos {
			fmt.Fprintf(bw, "zofs_slo_last_burn{op=%q} %s\n", o.Op, strconv.FormatFloat(o.LastBurn, 'f', 4, 64))
		}
	}
	return bw.Flush()
}

// CheckOpenMetrics enforces the series panel's invariants on a parsed
// exposition, when the panel is there:
//
//   - conservation: per-op latency-summary counts equal the per-op op
//     totals, and op totals sum exactly to zofs_series_observations_total;
//   - SLO sanity: breaches never exceed evaluated events.
func CheckOpenMetrics(doc *openmetrics.Doc) error {
	if !doc.Has("zofs_series_observations_total") && !doc.Has("zofs_series_op_ops_total") {
		return nil
	}
	if err := doc.Require("series", "zofs_series_observations_total"); err != nil {
		return err
	}
	if doc.Int("zofs_series_observations_total") > 0 {
		if err := doc.Require("series", "zofs_series_op_ops_total", "zofs_series_op_latency_ns_count"); err != nil {
			return err
		}
	}
	if doc.Has("zofs_slo_breaches_total") {
		if err := doc.Require("series", "zofs_slo_events_total"); err != nil {
			return err
		}
	}
	opCount := doc.GroupSumInt("zofs_series_op_ops_total", "op")
	for op, n := range doc.GroupSumInt("zofs_series_op_latency_ns_count", "op") {
		if c, ok := opCount[op]; !ok || c != n {
			return fmt.Errorf("op %q: latency summary count %d != op total %d", op, n, opCount[op])
		}
	}
	if err := openmetrics.Conserved("series: per-op ops vs observations",
		doc.SumInt("zofs_series_op_ops_total"), doc.Int("zofs_series_observations_total")); err != nil {
		return err
	}
	events := doc.GroupSumInt("zofs_slo_events_total", "op")
	for op, bad := range doc.GroupSumInt("zofs_slo_breaches_total", "op") {
		if bad > events[op] {
			return fmt.Errorf("slo %q: breaches %d > events %d", op, bad, events[op])
		}
	}
	return nil
}
