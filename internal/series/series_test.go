package series

import (
	"bytes"
	"strings"
	"testing"

	"zofs/internal/openmetrics"
	"zofs/internal/spans"
	"zofs/internal/telemetry"
)

// stream produces a deterministic mixed-op observation stream spanning
// several windows (width 1000ns): (op, start, dur) triples.
func stream(n int) []struct {
	op         telemetry.Op
	start, dur int64
} {
	out := make([]struct {
		op         telemetry.Op
		start, dur int64
	}, n)
	ops := []telemetry.Op{telemetry.OpRead, telemetry.OpWrite, telemetry.OpCreate}
	for i := range out {
		out[i].op = ops[i%len(ops)]
		out[i].start = int64(i) * 37 // crosses a window boundary every ~27 obs
		out[i].dur = int64((i*i)%5000) + 1
	}
	return out
}

// TestMergeExact is the tentpole invariant: summing every window's bucket
// vector reproduces the cumulative telemetry histogram bit-for-bit when both
// observed the identical stream.
func TestMergeExact(t *testing.T) {
	c := NewCollector(Config{WindowNS: 1000})
	rec := telemetry.New()
	for _, s := range stream(2000) {
		c.Observe(s.op, s.start, s.dur)
		rec.Observe(s.op, s.dur)
	}
	wins := c.Windows()
	if len(wins) < 2 {
		t.Fatalf("want multiple windows, got %d", len(wins))
	}
	// Fold the published windows by hand — the exported path, not the
	// internal one Merged() uses.
	folded := map[string]*OpWindow{}
	for _, w := range wins {
		for name, ow := range w.Ops {
			f := folded[name]
			if f == nil {
				f = &OpWindow{Buckets: make([]int64, telemetry.HistBuckets)}
				folded[name] = f
			}
			f.Count += ow.Count
			f.SumNS += ow.SumNS
			for i, v := range ow.Buckets {
				f.Buckets[i] += v
			}
		}
	}
	snap := rec.Snapshot()
	if len(folded) != len(snap.Ops) {
		t.Fatalf("op sets differ: series %d vs telemetry %d", len(folded), len(snap.Ops))
	}
	for name, f := range folded {
		ts, ok := snap.Ops[name]
		if !ok {
			t.Fatalf("op %q missing from telemetry", name)
		}
		if f.Count != ts.Count || f.SumNS != ts.SumNS {
			t.Fatalf("op %q: folded count/sum %d/%d != telemetry %d/%d",
				name, f.Count, f.SumNS, ts.Count, ts.SumNS)
		}
		for i := range f.Buckets {
			if f.Buckets[i] != ts.Buckets[i] {
				t.Fatalf("op %q bucket %d: folded %d != telemetry %d",
					name, i, f.Buckets[i], ts.Buckets[i])
			}
		}
	}
	// Merged() must agree with the hand fold too.
	for name, m := range c.Merged() {
		f := folded[name]
		if m.Count != f.Count || m.SumNS != f.SumNS {
			t.Fatalf("Merged op %q: %d/%d != folded %d/%d", name, m.Count, m.SumNS, f.Count, f.SumNS)
		}
	}
}

// TestEvictionKeepsMergeExact forces window eviction into the spill
// aggregate and asserts the merged view is still exact.
func TestEvictionKeepsMergeExact(t *testing.T) {
	c := NewCollector(Config{WindowNS: 1000, MaxWindows: 4})
	rec := telemetry.New()
	for _, s := range stream(3000) {
		c.Observe(s.op, s.start, s.dur)
		rec.Observe(s.op, s.dur)
	}
	if c.Snapshot().Spilled == 0 {
		t.Fatal("expected evictions with MaxWindows=4")
	}
	if got := len(c.Windows()); got > 4 {
		t.Fatalf("retained %d windows, cap is 4", got)
	}
	snap := rec.Snapshot()
	merged := c.Merged()
	for name, ts := range snap.Ops {
		m, ok := merged[name]
		if !ok {
			t.Fatalf("op %q missing from merged view", name)
		}
		if m.Count != ts.Count || m.SumNS != ts.SumNS {
			t.Fatalf("op %q: merged %d/%d != telemetry %d/%d", name, m.Count, m.SumNS, ts.Count, ts.SumNS)
		}
		for i := range ts.Buckets {
			if m.Buckets[i] != ts.Buckets[i] {
				t.Fatalf("op %q bucket %d diverged after eviction", name, i)
			}
		}
	}
}

func TestSLOBurn(t *testing.T) {
	c := NewCollector(Config{WindowNS: 1000, SLOs: []SLO{
		{Op: telemetry.OpRead, ThresholdNS: 100, Target: 0.9},
	}})
	// Window 0: 8 good, 2 bad -> burn = (2/10)/(0.1) = 2.0.
	for i := 0; i < 8; i++ {
		c.Observe(telemetry.OpRead, 0, 50)
	}
	c.Observe(telemetry.OpRead, 10, 200)
	c.Observe(telemetry.OpRead, 20, 300)
	// Window 1: 10 good -> last-window burn 0.
	for i := 0; i < 10; i++ {
		c.Observe(telemetry.OpRead, 1500, 50)
	}
	slos := c.SLOs()
	if len(slos) != 1 {
		t.Fatalf("want 1 SLO, got %d", len(slos))
	}
	s := slos[0]
	if s.Op != "read" || s.Total != 20 || s.Bad != 2 {
		t.Fatalf("unexpected accounting: %+v", s)
	}
	want := (2.0 / 20.0) / 0.1
	if diff := s.Burn - want; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("burn %v, want %v", s.Burn, want)
	}
	if s.LastBurn != 0 {
		t.Fatalf("last-window burn %v, want 0", s.LastBurn)
	}
	// Ops without an objective carry no SLO fields.
	c.Observe(telemetry.OpWrite, 0, 1e6)
	for _, w := range c.Windows() {
		if ow, ok := w.Ops["write"]; ok && ow.SLOTotal != 0 {
			t.Fatal("write has SLO accounting without an objective")
		}
	}
}

// TestAdaptiveThresholdFeedsSpans drives enough observations through one op
// kind to trigger threshold recomputation and asserts the trailing-window
// p99 lands in the span collector's exemplar gate.
func TestAdaptiveThresholdFeedsSpans(t *testing.T) {
	sc := spans.Enable(spans.Config{RingCap: -1, ExemplarK: 4})
	defer spans.Disable()
	c := NewCollector(Config{WindowNS: 1_000_000, Trailing: 4})
	for i := 0; i < thresholdEvery+1; i++ {
		c.Observe(telemetry.OpWrite, int64(i), 1000)
	}
	thr := sc.ExemplarThreshold(telemetry.OpWrite)
	if thr <= 0 {
		t.Fatal("adaptive threshold never reached the span collector")
	}
	// All durations were 1000ns, so the p99 is 1000's bucket upper bound.
	want := telemetry.BucketUpper(telemetry.BucketOf(1000))
	if thr != want {
		t.Fatalf("threshold %d, want bucket upper %d", thr, want)
	}
}

func TestJSONLRoundTrip(t *testing.T) {
	c := NewCollector(Config{WindowNS: 1000})
	for _, s := range stream(500) {
		c.Observe(s.op, s.start, s.dur)
	}
	var buf bytes.Buffer
	if err := openmetrics.WriteJSONL(&buf, c.Windows()); err != nil {
		t.Fatal(err)
	}
	got, err := openmetrics.ReadJSONL[Window](&buf)
	if err != nil {
		t.Fatal(err)
	}
	want := c.Windows()
	if len(got) != len(want) {
		t.Fatalf("round trip lost windows: %d != %d", len(got), len(want))
	}
	for i := range got {
		if got[i].Index != want[i].Index || got[i].WidthNS != want[i].WidthNS ||
			got[i].StartNS != want[i].StartNS || len(got[i].Ops) != len(want[i].Ops) {
			t.Fatalf("window %d differs after round trip", i)
		}
		for name, ow := range want[i].Ops {
			g := got[i].Ops[name]
			if g.Count != ow.Count || g.SumNS != ow.SumNS || g.P99NS != ow.P99NS {
				t.Fatalf("window %d op %q differs after round trip", i, name)
			}
		}
	}
}

func TestOpenMetricsValidates(t *testing.T) {
	c := NewCollector(Config{WindowNS: 1000, SLOs: []SLO{
		{Op: telemetry.OpRead, ThresholdNS: 2000, Target: 0.99},
	}})
	for _, s := range stream(500) {
		c.Observe(s.op, s.start, s.dur)
	}
	var buf bytes.Buffer
	if err := c.Snapshot().WriteOpenMetrics(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	check := func(text string) error {
		doc, err := openmetrics.Parse(strings.NewReader(text + "# EOF\n"))
		if err != nil {
			t.Fatal(err)
		}
		return CheckOpenMetrics(doc)
	}
	if err := check(text); err != nil {
		t.Fatalf("well-formed document rejected: %v", err)
	}
	// Break conservation: inflate the observations total.
	broken := strings.Replace(text, "zofs_series_observations_total 500",
		"zofs_series_observations_total 501", 1)
	if broken == text {
		t.Fatal("expected observations_total 500 in document")
	}
	if err := check(broken); err == nil {
		t.Fatal("conservation violation not detected")
	}
	// Half a panel: per-op totals with the observation total left out.
	if err := check("zofs_series_op_ops_total{op=\"read\"} 5\n"); err == nil {
		t.Fatal("missing observations total not detected")
	}
}

func TestResetKeepsObjectives(t *testing.T) {
	c := NewCollector(Config{WindowNS: 1000, SLOs: []SLO{
		{Op: telemetry.OpRead, ThresholdNS: 100, Target: 0.9},
	}})
	c.Observe(telemetry.OpRead, 0, 500)
	c.Reset()
	if c.Snapshot().Observations != 0 || len(c.Windows()) != 0 {
		t.Fatal("reset left observations behind")
	}
	c.Observe(telemetry.OpRead, 0, 500)
	slos := c.SLOs()
	if len(slos) != 1 || slos[0].Bad != 1 {
		t.Fatalf("objective lost across reset: %+v", slos)
	}
}
