package series

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"path/filepath"
	"sort"
	"strconv"

	"zofs/internal/openmetrics"
)

// Publishing: zofs-bench -series writes the windowed view into a directory
// as series.jsonl (one Window per line, self-describing — every line carries
// the window index, start and width) and series.prom (the OpenMetrics
// rendering of the merged view plus last-window gauges and SLO burn).
// Files are written to a temp name and renamed so a reader never observes a
// half-written document.

// WriteJSONL renders every retained window as one JSON line, ascending by
// virtual time.
func (c *Collector) WriteJSONL(w io.Writer) error {
	bw := bufio.NewWriter(w)
	for _, win := range c.Windows() {
		b, err := json.Marshal(win)
		if err != nil {
			return err
		}
		if _, err := bw.Write(append(b, '\n')); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadJSONL parses a series.jsonl stream.
func ReadJSONL(r io.Reader) ([]Window, error) {
	var out []Window
	dec := json.NewDecoder(r)
	for {
		var w Window
		if err := dec.Decode(&w); err != nil {
			if err == io.EOF {
				return out, nil
			}
			return nil, err
		}
		out = append(out, w)
	}
}

// WriteOpenMetrics renders the collector's current state in OpenMetrics
// text: run-level scalars, per-op count totals, a merged latency summary
// (quantiles 0.5/0.95/0.99/0.999 with _sum/_count), last-window rate gauges
// and per-objective SLO burn. Output is deterministic: ops sorted by name.
func (c *Collector) WriteOpenMetrics(w io.Writer) error {
	bw := bufio.NewWriter(w)
	windows := c.Windows()
	merged := c.Merged()

	scalar := func(name, typ, help string, v string) {
		fmt.Fprintf(bw, "# TYPE %s %s\n# HELP %s %s\n%s", name, typ, name, help, name)
		if typ == "counter" {
			fmt.Fprint(bw, "_total")
		}
		fmt.Fprintf(bw, " %s\n", v)
	}
	scalar("zofs_series_windows", "gauge", "Retained virtual-time windows.",
		strconv.Itoa(len(windows)))
	scalar("zofs_series_window_width_ns", "gauge", "Window width in virtual nanoseconds.",
		strconv.FormatInt(c.WidthNS(), 10))
	scalar("zofs_series_spilled_windows", "counter", "Windows evicted into the spill aggregate.",
		strconv.FormatInt(c.SpilledWindows(), 10))
	scalar("zofs_series_observations", "counter", "Operations observed.",
		strconv.FormatInt(c.Total(), 10))

	ops := make([]string, 0, len(merged))
	for name := range merged {
		ops = append(ops, name)
	}
	sort.Strings(ops)

	fmt.Fprintf(bw, "# TYPE zofs_series_op_ops counter\n# HELP zofs_series_op_ops Operations observed per op kind.\n")
	for _, name := range ops {
		fmt.Fprintf(bw, "zofs_series_op_ops_total{op=%q} %d\n", name, merged[name].Count)
	}
	fmt.Fprintf(bw, "# TYPE zofs_series_op_latency_ns summary\n# HELP zofs_series_op_latency_ns Merged whole-run latency per op kind.\n")
	for _, name := range ops {
		m := merged[name]
		fmt.Fprintf(bw, "zofs_series_op_latency_ns{op=%q,quantile=\"0.5\"} %d\n", name, m.P50NS)
		fmt.Fprintf(bw, "zofs_series_op_latency_ns{op=%q,quantile=\"0.95\"} %d\n", name, m.P95NS)
		fmt.Fprintf(bw, "zofs_series_op_latency_ns{op=%q,quantile=\"0.99\"} %d\n", name, m.P99NS)
		fmt.Fprintf(bw, "zofs_series_op_latency_ns{op=%q,quantile=\"0.999\"} %d\n", name, m.P999NS)
		fmt.Fprintf(bw, "zofs_series_op_latency_ns_sum{op=%q} %d\n", name, m.SumNS)
		fmt.Fprintf(bw, "zofs_series_op_latency_ns_count{op=%q} %d\n", name, m.Count)
	}

	if len(windows) > 0 {
		last := windows[len(windows)-1]
		lastOps := make([]string, 0, len(last.Ops))
		for name := range last.Ops {
			lastOps = append(lastOps, name)
		}
		sort.Strings(lastOps)
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

	slos := c.SLOs()
	if len(slos) > 0 {
		fmt.Fprintf(bw, "# TYPE zofs_slo_threshold_ns gauge\n# HELP zofs_slo_threshold_ns Objective latency threshold per op kind.\n")
		for _, s := range slos {
			fmt.Fprintf(bw, "zofs_slo_threshold_ns{op=%q} %d\n", s.Op, s.ThresholdNS)
		}
		fmt.Fprintf(bw, "# TYPE zofs_slo_target gauge\n# HELP zofs_slo_target Objective good-fraction target per op kind.\n")
		for _, s := range slos {
			fmt.Fprintf(bw, "zofs_slo_target{op=%q} %s\n", s.Op, strconv.FormatFloat(s.Target, 'f', 6, 64))
		}
		fmt.Fprintf(bw, "# TYPE zofs_slo_events counter\n# HELP zofs_slo_events Operations evaluated against the objective.\n")
		for _, s := range slos {
			fmt.Fprintf(bw, "zofs_slo_events_total{op=%q} %d\n", s.Op, s.Total)
		}
		fmt.Fprintf(bw, "# TYPE zofs_slo_breaches counter\n# HELP zofs_slo_breaches Operations exceeding the objective threshold.\n")
		for _, s := range slos {
			fmt.Fprintf(bw, "zofs_slo_breaches_total{op=%q} %d\n", s.Op, s.Bad)
		}
		fmt.Fprintf(bw, "# TYPE zofs_slo_burn gauge\n# HELP zofs_slo_burn Cumulative error-budget burn rate (1.0 consumes the budget exactly).\n")
		for _, s := range slos {
			fmt.Fprintf(bw, "zofs_slo_burn{op=%q} %s\n", s.Op, strconv.FormatFloat(s.Burn, 'f', 4, 64))
		}
		fmt.Fprintf(bw, "# TYPE zofs_slo_last_burn gauge\n# HELP zofs_slo_last_burn Burn rate of the latest window with observations.\n")
		for _, s := range slos {
			fmt.Fprintf(bw, "zofs_slo_last_burn{op=%q} %s\n", s.Op, strconv.FormatFloat(s.LastBurn, 'f', 4, 64))
		}
	}
	fmt.Fprintf(bw, "# EOF\n")
	return bw.Flush()
}

// ValidateOpenMetrics parses a series OpenMetrics document (via the shared
// internal/openmetrics parser) and enforces its invariants:
//
//   - syntax: every non-comment line is a valid sample, "# EOF" terminates;
//   - conservation: per-op latency-summary counts equal the per-op op
//     totals, and op totals sum exactly to zofs_series_observations_total;
//   - SLO sanity: breaches never exceed evaluated events.
func ValidateOpenMetrics(r io.Reader) error {
	doc, err := openmetrics.Parse(r)
	if err != nil {
		return err
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

// Publish writes the collector's current state into dir as series.jsonl and
// series.prom, each atomically (temp file + rename).
func Publish(c *Collector, dir string) error {
	var jl bytes.Buffer
	if err := c.WriteJSONL(&jl); err != nil {
		return err
	}
	if err := openmetrics.WriteAtomic(filepath.Join(dir, "series.jsonl"), jl.Bytes()); err != nil {
		return err
	}
	var om bytes.Buffer
	if err := c.WriteOpenMetrics(&om); err != nil {
		return err
	}
	return openmetrics.WriteAtomic(filepath.Join(dir, "series.prom"), om.Bytes())
}
