package spans

import (
	"bytes"
	"encoding/json"
	"testing"

	"zofs/internal/telemetry"
)

// foldOne runs a complete span of the given duration through the collector.
func foldOne(col *Collector, tid int, op telemetry.Op, start, dur int64) {
	c := NewThreadCtx(col, tid)
	c.Begin(op, 0, start)
	c.Bill(CompMedia, dur/2)
	c.End(start + dur)
}

// TestExemplarWorstK: with no threshold set, capture is pure worst-K —
// only the K slowest spans per op kind survive, worst first.
func TestExemplarWorstK(t *testing.T) {
	col := NewCollector(Config{ExemplarK: 2})
	durs := []int64{100, 900, 300, 700, 500}
	for i, d := range durs {
		foldOne(col, i, telemetry.OpWrite, int64(i)*1000, d)
	}
	ex := col.Exemplars()
	if len(ex) != 2 {
		t.Fatalf("retained %d exemplars, want 2", len(ex))
	}
	if ex[0].Root.Dur != 900 || ex[1].Root.Dur != 700 {
		t.Fatalf("worst-K = %d,%d, want 900,700", ex[0].Root.Dur, ex[1].Root.Dur)
	}
	if col.ExemplarsCaptured() < 2 {
		t.Fatalf("captured counter = %d", col.ExemplarsCaptured())
	}
	// Every exemplar carries the exact-sum attribution invariant.
	for _, e := range ex {
		var sum int64
		for _, v := range e.Root.Comp {
			sum += v
		}
		if sum != e.Root.Dur {
			t.Fatalf("exemplar components sum to %d, duration is %d", sum, e.Root.Dur)
		}
	}
}

// TestExemplarThreshold: an adaptive threshold gates capture; spans below
// it are never candidates, spans at or above it are retained with the
// threshold recorded.
func TestExemplarThreshold(t *testing.T) {
	col := NewCollector(Config{ExemplarK: 8})
	col.SetExemplarThreshold(telemetry.OpRead, 500)
	if got := col.ExemplarThreshold(telemetry.OpRead); got != 500 {
		t.Fatalf("threshold = %d, want 500", got)
	}
	foldOne(col, 1, telemetry.OpRead, 0, 100)    // below: skipped
	foldOne(col, 2, telemetry.OpRead, 1000, 500) // at: captured
	foldOne(col, 3, telemetry.OpRead, 2000, 900) // above: captured
	ex := col.Exemplars()
	if len(ex) != 2 {
		t.Fatalf("retained %d exemplars, want 2 (100ns span must not pass the 500ns gate)", len(ex))
	}
	for _, e := range ex {
		if e.ThresholdNS != 500 {
			t.Fatalf("exemplar threshold = %d, want 500", e.ThresholdNS)
		}
	}
	// Other op kinds are ungated.
	foldOne(col, 4, telemetry.OpWrite, 3000, 10)
	if len(col.Exemplars()) != 3 {
		t.Fatal("threshold on read leaked onto write")
	}
}

// TestExemplarDisabled: ExemplarK 0 keeps the collector exemplar-free and
// every exemplar accessor nil-safe.
func TestExemplarDisabled(t *testing.T) {
	col := NewCollector(Config{})
	foldOne(col, 1, telemetry.OpWrite, 0, 100)
	if ex := col.Exemplars(); ex != nil {
		t.Fatalf("exemplars on disabled collector: %+v", ex)
	}
	col.SetExemplarThreshold(telemetry.OpWrite, 100) // must not panic
	if col.ExemplarThreshold(telemetry.OpWrite) != 0 {
		t.Fatal("threshold stored without exemplar state")
	}
}

func TestExemplarJSONLRoundTrip(t *testing.T) {
	col := NewCollector(Config{ExemplarK: 4})
	foldOne(col, 1, telemetry.OpWrite, 0, 400)
	foldOne(col, 2, telemetry.OpRead, 1000, 800)
	want := col.Exemplars()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, e := range want {
		if err := enc.Encode(e); err != nil {
			t.Fatal(err)
		}
	}
	got := readJSONL[Exemplar](t, &buf)
	if len(got) != len(want) {
		t.Fatalf("round trip: %d exemplars, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i].Root.Op != want[i].Root.Op || got[i].Root.Dur != want[i].Root.Dur {
			t.Fatalf("exemplar %d differs after round trip", i)
		}
	}
}

func TestExemplarReset(t *testing.T) {
	col := NewCollector(Config{ExemplarK: 4})
	col.SetExemplarThreshold(telemetry.OpWrite, 10)
	foldOne(col, 1, telemetry.OpWrite, 0, 400)
	col.Reset()
	if len(col.Exemplars()) != 0 || col.ExemplarsCaptured() != 0 {
		t.Fatal("reset left exemplars behind")
	}
	if col.ExemplarThreshold(telemetry.OpWrite) != 0 {
		t.Fatal("reset left a stale adaptive threshold")
	}
}
