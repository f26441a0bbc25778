package pmemtrace_test

import (
	"bytes"
	"reflect"
	"testing"

	"zofs/internal/pmemtrace"
	"zofs/internal/simclock"
)

// fixedStream is a deterministic event/span pair used by the export tests.
func fixedStream() ([]pmemtrace.Event, []pmemtrace.OpSpan) {
	events := []pmemtrace.Event{
		{Seq: 1, TS: 1000, Kind: pmemtrace.KindStore, Off: 4096, Len: 64, TID: 1, Key: 2},
		{Seq: 2, TS: 2000, Kind: pmemtrace.KindFlush, Off: 4096, Len: 64, TID: 1, Key: 2},
		{Seq: 3, TS: 2500, Kind: pmemtrace.KindNTStore, Off: 8192, Len: 256, TID: 2, Key: 3},
		{Seq: 4, TS: 3000, Kind: pmemtrace.KindFence, TID: 2, Key: -1},
		{Seq: 5, TS: 3500, Kind: pmemtrace.KindStore64, Off: 8448, Len: 8, TID: 2, Key: 3},
		{Seq: 6, TS: 4000, Kind: pmemtrace.KindViolation, Off: 17, TID: 3, Key: 5, Cause: "PKRU write-disable"},
		{Seq: 7, TS: 4200, Kind: pmemtrace.KindStore, Off: 128, Len: 32, TID: 1, Key: -1},
		{Seq: 8, TS: 5000, Kind: pmemtrace.KindCrashInject, Len: 4, TID: -1, Key: -1},
		{Seq: 9, TS: 0, Kind: pmemtrace.KindCrash, Len: 1, TID: -1, Key: -1},
	}
	spans := []pmemtrace.OpSpan{
		{TID: 1, Op: "zofs.append", Start: 900, Dur: 1200},
		{TID: 2, Op: "zofs.create", Start: 2400, Dur: 1200},
	}
	return events, spans
}

// TestJSONLRoundTrip spills a live recording to JSONL and reloads it.
func TestJSONLRoundTrip(t *testing.T) {
	var spill bytes.Buffer
	r := pmemtrace.New(pmemtrace.Config{RingCap: 16, Spill: &spill})
	clk := simclock.NewClock()
	clk.SetTag(pmemtrace.PackTag(9, 4))
	clk.Advance(111)
	r.Record(7, clk, pmemtrace.KindStore, 4096, 128)
	clk.Advance(10)
	r.Record(7, clk, pmemtrace.KindFlush, 4096, 128)
	r.RecordViolation(200, 9, 33, 5, "page not mapped")
	if err := r.FlushSpill(); err != nil {
		t.Fatal(err)
	}
	spans := []pmemtrace.OpSpan{{TID: 9, Op: "zofs.write", Start: 100, Dur: 50}}
	if err := pmemtrace.WriteSpansJSONL(&spill, spans); err != nil {
		t.Fatal(err)
	}

	gotEvents, gotSpans, err := pmemtrace.ReadJSONL(&spill)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotEvents, r.Events()) {
		t.Fatalf("events round-trip mismatch:\ngot  %+v\nwant %+v", gotEvents, r.Events())
	}
	if !reflect.DeepEqual(gotSpans, spans) {
		t.Fatalf("spans round-trip mismatch:\ngot  %+v\nwant %+v", gotSpans, spans)
	}
}

// TestWriteJSONLWhole exercises the one-shot writer used by tools that hold
// the whole stream in memory.
func TestWriteJSONLWhole(t *testing.T) {
	events, spans := fixedStream()
	var buf bytes.Buffer
	if err := pmemtrace.WriteJSONL(&buf, events, spans); err != nil {
		t.Fatal(err)
	}
	gotEvents, gotSpans, err := pmemtrace.ReadJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotEvents, events) {
		t.Fatalf("events mismatch:\ngot  %+v\nwant %+v", gotEvents, events)
	}
	if !reflect.DeepEqual(gotSpans, spans) {
		t.Fatalf("spans mismatch:\ngot  %+v\nwant %+v", gotSpans, spans)
	}
}
