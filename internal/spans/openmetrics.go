package spans

import (
	"bufio"
	"fmt"
	"io"
	"strconv"

	"zofs/internal/openmetrics"
)

// WriteOpenMetrics renders the snapshot's families in the OpenMetrics text
// exposition format (no "# EOF": the observation document terminates the
// exposition). Output is deterministic: ops in dispatch order, components in
// enum order.
func (s Snapshot) WriteOpenMetrics(w io.Writer) error {
	bw := bufio.NewWriter(w)
	openmetrics.WriteScalar(bw, "zofs_spans_started", "counter", "root spans opened", s.Started)
	openmetrics.WriteScalar(bw, "zofs_spans_finished", "counter", "root spans folded", s.Finished)
	openmetrics.WriteScalar(bw, "zofs_spans_open", "gauge", "root spans currently in flight", s.Open)
	openmetrics.WriteScalar(bw, "zofs_spans_aborted", "counter", "root spans terminated by a fault", s.Aborted)
	openmetrics.WriteScalar(bw, "zofs_dcache_hits", "counter", "directory cache hits", s.DcacheHits)
	openmetrics.WriteScalar(bw, "zofs_dcache_misses", "counter", "directory cache misses", s.DcacheMisses)

	ops := s.opOrder()

	fmt.Fprintf(bw, "# TYPE zofs_ops counter\n")
	for _, name := range ops {
		fmt.Fprintf(bw, "zofs_ops_total{op=%q} %d\n", name, s.Ops[name].Count)
	}

	fmt.Fprintf(bw, "# TYPE zofs_op_latency_ns summary\n")
	for _, name := range ops {
		b := s.Ops[name]
		fmt.Fprintf(bw, "zofs_op_latency_ns{op=%q,quantile=\"0.5\"} %d\n", name, b.P50NS)
		fmt.Fprintf(bw, "zofs_op_latency_ns{op=%q,quantile=\"0.95\"} %d\n", name, b.P95NS)
		fmt.Fprintf(bw, "zofs_op_latency_ns{op=%q,quantile=\"0.99\"} %d\n", name, b.P99NS)
		fmt.Fprintf(bw, "zofs_op_latency_ns_sum{op=%q} %d\n", name, b.SumNS)
		fmt.Fprintf(bw, "zofs_op_latency_ns_count{op=%q} %d\n", name, b.Count)
	}

	fmt.Fprintf(bw, "# TYPE zofs_op_component_ns counter\n")
	for _, name := range ops {
		b := s.Ops[name]
		for _, comp := range compNames {
			fmt.Fprintf(bw, "zofs_op_component_ns_total{op=%q,component=%q} %d\n", name, comp, b.Comp[comp].SumNS)
		}
	}

	fmt.Fprintf(bw, "# TYPE zofs_op_component_share gauge\n")
	fmt.Fprintf(bw, "# HELP zofs_op_component_share percent of the op kind's total latency\n")
	for _, name := range ops {
		b := s.Ops[name]
		for _, comp := range compNames {
			fmt.Fprintf(bw, "zofs_op_component_share{op=%q,component=%q} %s\n",
				name, comp, strconv.FormatFloat(b.Comp[comp].Pct, 'f', 4, 64))
		}
	}

	fmt.Fprintf(bw, "# TYPE zofs_critical_path_share gauge\n")
	for _, comp := range compNames {
		fmt.Fprintf(bw, "zofs_critical_path_share{component=%q} %s\n",
			comp, strconv.FormatFloat(s.CriticalPath[comp], 'f', 4, 64))
	}
	return bw.Flush()
}

// CheckOpenMetrics enforces the attribution invariant on a parsed
// exposition, when the span panel is there: for every op with samples the
// zofs_op_component_share values sum to 100% within one point.
func CheckOpenMetrics(doc *openmetrics.Doc) error {
	if !doc.Has("zofs_spans_finished_total") && !doc.Has("zofs_ops_total") && !doc.Has("zofs_op_component_share") {
		return nil
	}
	if err := doc.Require("spans", "zofs_spans_finished_total"); err != nil {
		return err
	}
	if doc.Int("zofs_spans_finished_total") > 0 {
		if err := doc.Require("spans", "zofs_ops_total", "zofs_op_latency_ns_sum", "zofs_op_component_share"); err != nil {
			return err
		}
	}
	opCount := doc.GroupSumInt("zofs_ops_total", "op")
	latSum := doc.GroupSumInt("zofs_op_latency_ns_sum", "op")
	shareSum := map[string]float64{}
	for _, s := range doc.ByName("zofs_op_component_share") {
		shareSum[s.Label("op")] += s.Value
	}
	for op, sum := range shareSum {
		if opCount[op] <= 0 || latSum[op] <= 0 {
			continue // no samples (or all zero-latency): shares are vacuous
		}
		if sum < 99 || sum > 101 {
			return fmt.Errorf("op %q: component shares sum to %.2f%%, want 100±1", op, sum)
		}
	}
	return nil
}
