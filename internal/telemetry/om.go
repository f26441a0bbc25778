package telemetry

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strings"

	"zofs/internal/openmetrics"
)

// sortedKeys returns m's keys in ascending order.
func sortedKeys[V any](m map[string]V) []string {
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// WriteOpenMetrics renders the snapshot's families, all under the
// zofs_telemetry_ prefix (no "# EOF": the observation document terminates
// the exposition): the per-layer counters and high-water marks, labelled by
// layer, and one latency summary per dispatched op kind. Output is
// deterministic: every family sorted by name.
func (s Snapshot) WriteOpenMetrics(w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "# TYPE zofs_telemetry_events counter\n# HELP zofs_telemetry_events Per-layer event counters.\n")
	for _, name := range sortedKeys(s.Counters) {
		layer, counter, _ := strings.Cut(name, ".")
		fmt.Fprintf(bw, "zofs_telemetry_events_total{layer=%q,counter=%q} %d\n", layer, counter, s.Counters[name])
	}
	fmt.Fprintf(bw, "# TYPE zofs_telemetry_hwm gauge\n# HELP zofs_telemetry_hwm Per-layer high-water marks.\n")
	for _, name := range sortedKeys(s.Gauges) {
		layer, gauge, _ := strings.Cut(name, ".")
		fmt.Fprintf(bw, "zofs_telemetry_hwm{layer=%q,gauge=%q} %d\n", layer, gauge, s.Gauges[name])
	}
	fmt.Fprintf(bw, "# TYPE zofs_telemetry_op_latency_ns summary\n# HELP zofs_telemetry_op_latency_ns Simulated latency per dispatched op kind.\n")
	for _, name := range sortedKeys(s.Ops) {
		o := s.Ops[name]
		fmt.Fprintf(bw, "zofs_telemetry_op_latency_ns{op=%q,quantile=\"0.5\"} %d\n", name, o.P50NS)
		fmt.Fprintf(bw, "zofs_telemetry_op_latency_ns{op=%q,quantile=\"0.99\"} %d\n", name, o.P99NS)
		fmt.Fprintf(bw, "zofs_telemetry_op_latency_ns_sum{op=%q} %d\n", name, o.SumNS)
		fmt.Fprintf(bw, "zofs_telemetry_op_latency_ns_count{op=%q} %d\n", name, o.Count)
	}
	return bw.Flush()
}

// CheckOpenMetrics enforces the telemetry panel's invariants on a parsed
// exposition, when the panel is there. Both hold of a snapshot taken while
// threads are still running, so a live document validates too:
//
//   - saturation: no counter is negative (a counter that overflows pins at
//     the ceiling, it never wraps);
//   - per op kind, the summary has a count and p50 <= p99.
func CheckOpenMetrics(doc *openmetrics.Doc) error {
	if !doc.Has("zofs_telemetry_events_total") && !doc.Has("zofs_telemetry_op_latency_ns") {
		return nil
	}
	for _, s := range doc.ByName("zofs_telemetry_events_total") {
		if s.Value < 0 {
			return fmt.Errorf("telemetry: counter %s.%s = %v is negative", s.Label("layer"), s.Label("counter"), s.Value)
		}
	}
	count := doc.GroupSumInt("zofs_telemetry_op_latency_ns_count", "op")
	p50 := map[string]float64{}
	for _, s := range doc.ByName("zofs_telemetry_op_latency_ns") {
		op := s.Label("op")
		if count[op] <= 0 {
			return fmt.Errorf("telemetry: op %q has a latency summary and no count", op)
		}
		switch s.Label("quantile") {
		case "0.5":
			p50[op] = s.Value
		case "0.99":
			if s.Value < p50[op] {
				return fmt.Errorf("telemetry: op %q p99 %v < p50 %v", op, s.Value, p50[op])
			}
		}
	}
	return nil
}
