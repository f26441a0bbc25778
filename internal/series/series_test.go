package series

import (
	"bytes"
	"encoding/json"
	"sync"
	"testing"

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

// fold sums the published windows per op kind: count, duration sum and
// bucket vector.
func fold(wins []Window) map[string]*OpWindow {
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
	return folded
}

// TestMergeExact: windows share the telemetry bucket geometry, so summing
// every window's bucket vector reproduces, bit for bit, a cumulative
// telemetry.Hist that saw the identical stream — what lets a consumer check
// the windows against the span collector's whole-run record.
func TestMergeExact(t *testing.T) {
	c := NewCollector(Config{WindowNS: 1000})
	whole := map[telemetry.Op]*telemetry.Hist{}
	for _, s := range stream(2000) {
		c.Observe(s.op, s.start, s.dur)
		if whole[s.op] == nil {
			whole[s.op] = &telemetry.Hist{}
		}
		whole[s.op].Observe(s.dur)
	}
	wins := c.Windows()
	if len(wins) < 2 {
		t.Fatalf("want multiple windows, got %d", len(wins))
	}
	folded := fold(wins)
	if len(folded) != len(whole) {
		t.Fatalf("op sets differ: windows %d vs stream %d", len(folded), len(whole))
	}
	for op, h := range whole {
		count, sum, buckets := h.Snapshot()
		f := folded[op.Name()]
		if f == nil || f.Count != count || f.SumNS != sum {
			t.Fatalf("op %s: folded %+v, stream count/sum %d/%d", op.Name(), f, count, sum)
		}
		for i := range buckets {
			if f.Buckets[i] != buckets[i] {
				t.Fatalf("op %s bucket %d: folded %d != stream %d", op.Name(), i, f.Buckets[i], buckets[i])
			}
		}
	}
}

// TestEvictionKeepsMergeExact: past MaxWindows the oldest window is dropped
// and its observations counted, so the retained windows still fold exactly
// into the histogram of the ops they hold, and retained plus evicted
// observations account for every op observed.
func TestEvictionKeepsMergeExact(t *testing.T) {
	c := NewCollector(Config{WindowNS: 1000, MaxWindows: 4})
	obs := stream(3000)
	for _, s := range obs {
		c.Observe(s.op, s.start, s.dur)
	}
	wins, snap := c.Windows(), c.Snapshot()
	if len(wins) != 4 || snap.Windows != 4 {
		t.Fatalf("retained %d windows (snapshot %d), cap is 4", len(wins), snap.Windows)
	}
	kept := map[string]*telemetry.Hist{}
	for _, s := range obs {
		if s.start/1000 >= wins[0].Index {
			if kept[s.op.Name()] == nil {
				kept[s.op.Name()] = &telemetry.Hist{}
			}
			kept[s.op.Name()].Observe(s.dur)
		}
	}
	var retained int64
	for name, f := range fold(wins) {
		count, sum, buckets := kept[name].Snapshot()
		if f.Count != count || f.SumNS != sum {
			t.Fatalf("op %s: retained windows fold to %d/%d ns, their ops %d/%d ns", name, f.Count, f.SumNS, count, sum)
		}
		for i := range buckets {
			if f.Buckets[i] != buckets[i] {
				t.Fatalf("op %s bucket %d: folded %d != kept %d", name, i, f.Buckets[i], buckets[i])
			}
		}
		retained += f.Count
	}
	if snap.Evicted == 0 || snap.Retained != retained || retained+snap.Evicted != 3000 || snap.Observations != 3000 {
		t.Fatalf("retained %d (windows hold %d) + evicted %d, observations %d, want 3000",
			snap.Retained, retained, snap.Evicted, snap.Observations)
	}
	if err := snap.Check(); err != nil {
		t.Fatal(err)
	}
}

// TestLiveSnapshotPassesCheck: a snapshot taken while another thread keeps
// observing is built under one lock, so it passes the same check a final
// one does.
func TestLiveSnapshotPassesCheck(t *testing.T) {
	c := NewCollector(Config{WindowNS: 1000, MaxWindows: 8, SLOs: []SLO{
		{Op: telemetry.OpRead, ThresholdNS: 2000, Target: 0.99},
	}})
	obs, done := stream(3000), make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-done:
				return
			default:
			}
			s := obs[i%len(obs)]
			c.Observe(s.op, s.start, s.dur)
		}
	}()
	defer func() { close(done); wg.Wait() }()
	for i := 0; i < 2000; i++ {
		if err := c.Snapshot().Check(); err != nil {
			t.Fatalf("live snapshot %d: %v", i, err)
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

func TestJSONLRoundTrip(t *testing.T) {
	c := NewCollector(Config{WindowNS: 1000})
	for _, s := range stream(500) {
		c.Observe(s.op, s.start, s.dur)
	}
	want := c.Windows()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, w := range want {
		if err := enc.Encode(w); err != nil {
			t.Fatal(err)
		}
	}
	var got []Window
	for dec := json.NewDecoder(&buf); dec.More(); {
		var w Window
		if err := dec.Decode(&w); err != nil {
			t.Fatal(err)
		}
		got = append(got, w)
	}
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

// TestCheck: a collector's snapshot passes its check, and one tampered
// value — an observation total, a retained total, a window's op count or
// histogram bucket, an SLO breach count — fails it.
func TestCheck(t *testing.T) {
	snap := func() Snapshot {
		c := NewCollector(Config{WindowNS: 1000, SLOs: []SLO{
			{Op: telemetry.OpRead, ThresholdNS: 2000, Target: 0.99},
		}})
		for _, s := range stream(500) {
			c.Observe(s.op, s.start, s.dur)
		}
		return c.Snapshot()
	}
	if err := snap().Check(); err != nil {
		t.Fatalf("collector's snapshot rejected: %v", err)
	}
	for name, tamper := range map[string]func(s *Snapshot){
		"observations": func(s *Snapshot) { s.Observations++ },
		"retained":     func(s *Snapshot) { s.Retained, s.Evicted = 0, s.Observations },
		"op count": func(s *Snapshot) {
			o := s.Recent[0].Ops["read"]
			o.Count++
			s.Recent[0].Ops["read"] = o
		},
		"bucket":     func(s *Snapshot) { s.Recent[0].Ops["read"].Buckets[0]++ },
		"slo breach": func(s *Snapshot) { s.SLOs[0].Bad = s.SLOs[0].Total + 1 },
	} {
		s := snap()
		tamper(&s)
		if err := s.Check(); err == nil {
			t.Errorf("%s: the check passed", name)
		}
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
