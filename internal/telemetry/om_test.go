package telemetry

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"zofs/internal/openmetrics"
)

// TestOpenMetricsPanel: the snapshot's exposition parses in the repository's
// strict dialect, carries every counter, gauge and op summary under the
// zofs_telemetry_ prefix, passes its own check — and the check refuses a
// wrapped counter, an inverted summary and a summary without its count.
func TestOpenMetricsPanel(t *testing.T) {
	r := New()
	r.Add(CtrNVMBytesWritten, 4096)
	r.Inc(CtrMPKSwitches)
	r.Max(GaugeDirtyLinesHWM, 9)
	for _, ns := range []int64{700, 900, 40_000} {
		r.Observe(OpWrite, ns)
	}
	snap := r.Snapshot()
	var om bytes.Buffer
	if err := snap.WriteOpenMetrics(&om); err != nil {
		t.Fatal(err)
	}
	parse := func(text string) *openmetrics.Doc {
		t.Helper()
		doc, err := openmetrics.Parse(strings.NewReader(text + "# EOF\n"))
		if err != nil {
			t.Fatalf("%v\n%s", err, text)
		}
		return doc
	}
	doc := parse(om.String())
	if err := CheckOpenMetrics(doc); err != nil {
		t.Fatal(err)
	}
	if got := doc.GroupSumInt("zofs_telemetry_events_total", "counter"); got["bytes_written"] != 4096 || got["pkru_switches"] != 1 {
		t.Errorf("counters: %v", got)
	}
	if doc.Int("zofs_telemetry_hwm") != 9 || doc.Int("zofs_telemetry_op_latency_ns_count") != 3 ||
		doc.Int("zofs_telemetry_op_latency_ns_sum") != 41_600 {
		t.Errorf("gauge, count or sum wrong:\n%s", om.String())
	}

	p99 := fmt.Sprintf(`quantile="0.99"} %d`, snap.Ops["write"].P99NS)
	for name, edit := range map[string][2]string{
		"negative counter": {`counter="bytes_written"} 4096`, `counter="bytes_written"} -4096`},
		"p99 below p50":    {p99, `quantile="0.99"} 1`},
		"no count":         {`_count{op="write"}`, `_count{op="read"}`},
	} {
		bad := strings.Replace(om.String(), edit[0], edit[1], 1)
		if bad == om.String() {
			t.Fatalf("%s: the edit did not apply", name)
		}
		if err := CheckOpenMetrics(parse(bad)); err == nil {
			t.Errorf("%s: the check passed\n%s", name, bad)
		}
	}
}
