package pmemtrace_test

import (
	"bytes"
	"reflect"
	"testing"

	"zofs/internal/pmemtrace"
	"zofs/internal/simclock"
)

// everyKind is one event of each kind, with the fields each kind uses.
func everyKind() []pmemtrace.Event {
	return []pmemtrace.Event{
		{Seq: 1, TS: 1000, Dev: 7, Kind: pmemtrace.KindStore, Off: 4096, Len: 64, TID: 1, Key: 2},
		{Seq: 2, TS: 2500, Dev: 7, Kind: pmemtrace.KindNTStore, Off: 8192, Len: 256, TID: 2, Key: 3},
		{Seq: 3, TS: 3500, Dev: 7, Kind: pmemtrace.KindStore64, Off: 8448, Len: 8, TID: 2, Key: 3},
		{Seq: 4, TS: 3600, Dev: 7, Kind: pmemtrace.KindCAS, Off: 8456, Len: 8, TID: 0, Key: 0},
		{Seq: 5, TS: 3700, Dev: 7, Kind: pmemtrace.KindZero, Off: 12288, Len: 4096, TID: 2, Key: -1},
		{Seq: 6, TS: 2000, Dev: 7, Kind: pmemtrace.KindFlush, Off: 4096, Len: 64, TID: 1, Key: 2},
		{Seq: 7, TS: 3000, Dev: 7, Kind: pmemtrace.KindFence, TID: 2, Key: -1},
		{Seq: 8, TS: 0, Dev: 7, Kind: pmemtrace.KindCrash, Len: 1, TID: -1, Key: -1},
		{Seq: 9, TS: 5000, Dev: 7, Kind: pmemtrace.KindCrashInject, Len: 4, TID: -1, Key: -1},
		{Seq: 10, TS: 4000, Kind: pmemtrace.KindViolation, Off: 17, TID: 3, Key: 5, Cause: "PKRU write-disable"},
		{Seq: 11, TS: 4100, Kind: pmemtrace.KindLockWait, Off: 1, Len: 250, TID: 3, Key: -1, Cause: "zofs.inode/42"},
	}
}

// TestRecordRoundTrip: a recorder's spill is the event log, and every kind
// decodes from it to exactly what the ring kept — edge values included: an
// event with no clock (thread and key -1), a tagged one, a violation with its
// cause, lock waits naming their lock and blamed holder, and a cause the
// log's string table already holds.
func TestRecordRoundTrip(t *testing.T) {
	var spill bytes.Buffer
	r := pmemtrace.New(pmemtrace.Config{RingCap: 32, Spill: &spill})
	clk := simclock.NewClock()
	clk.SetTag(pmemtrace.PackTag(9, 4))
	for _, ev := range everyKind() {
		clk.Advance(ev.TS)
		switch ev.Kind {
		case pmemtrace.KindViolation:
			r.RecordViolation(ev.TS, int(ev.TID), ev.Off, ev.Key, ev.Cause)
		case pmemtrace.KindLockWait:
			r.RecordLockWait(ev.TS, ev.Len, int(ev.TID), int(ev.Off), ev.Cause)
		case pmemtrace.KindCrash:
			r.Record(ev.Dev, nil, ev.Kind, ev.Off, ev.Len)
		default:
			r.Record(ev.Dev, clk, ev.Kind, ev.Off, ev.Len)
		}
	}
	r.RecordLockWait(6000, 30, 4, 3, "zofs.inode/42")
	if err := r.FlushSpill(); err != nil {
		t.Fatal(err)
	}
	got, err := pmemtrace.ReadEvents(spill.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	want := r.Events()
	if len(want) != len(everyKind())+1 || !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip:\ngot  %+v\nwant %+v", got, want)
	}
	kinds := map[pmemtrace.Kind]bool{}
	for _, ev := range got {
		kinds[ev.Kind] = true
	}
	if len(kinds) != int(pmemtrace.KindLockWait)+1 {
		t.Fatalf("the stream covers %d kinds, want every one", len(kinds))
	}
	if crash := got[7]; crash.TID != -1 || crash.Key != -1 || got[0].TID != 9 || got[0].Key != 4 {
		t.Fatalf("origins: crash %+v, store %+v", crash, got[0])
	}
	if last := got[len(got)-1]; last.Cause != "zofs.inode/42" || last.Off != 3 || last.Len != 30 {
		t.Fatalf("lock wait = %+v", last)
	}

	// A cut log fails the read, and so does a kind no recorder writes.
	if _, err := pmemtrace.ReadEvents(spill.Bytes()[:spill.Len()-1]); err == nil {
		t.Error("a truncated event log decoded")
	}
	var bad bytes.Buffer
	l := pmemtrace.NewLogWriter(&bad, "zofs events v1\n")
	for _, v := range []uint64{1, 256 + uint64(pmemtrace.KindStore), 0, 0, 0, 0, 0, 0} {
		l.Uint(v)
	}
	l.Str("")
	l.End()
	if err := l.Flush(); err != nil {
		t.Fatal(err)
	}
	if _, err := pmemtrace.ReadEvents(bad.Bytes()); err == nil {
		t.Error("an unknown kind decoded")
	}
}

// TestSpillIsEventLog: a recorder's spill is the whole event log. After the
// ring overflows it still decodes to every event in stream order, sequence
// 1..n, and its tail is exactly what the ring kept.
func TestSpillIsEventLog(t *testing.T) {
	var spill bytes.Buffer
	r := pmemtrace.New(pmemtrace.Config{RingCap: 4, Spill: &spill})
	clk := simclock.NewClock()
	clk.SetTag(pmemtrace.PackTag(9, 4))
	for i := int64(0); i < 5; i++ {
		clk.Advance(10)
		r.Record(7, clk, pmemtrace.KindStore, 4096*i, 128)
		r.Record(7, clk, pmemtrace.KindFlush, 4096*i, 128)
	}
	r.RecordViolation(200, 9, 33, 5, "page not mapped")
	r.RecordLockWait(300, 40, 9, 2, "kernfs.big")
	if err := r.FlushSpill(); err != nil {
		t.Fatal(err)
	}
	got, err := pmemtrace.ReadEvents(spill.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if uint64(len(got)) != r.Total() || r.Dropped() != 8 {
		t.Fatalf("spill holds %d events, recorder total %d dropped %d; want 12, 12, 8", len(got), r.Total(), r.Dropped())
	}
	for i, ev := range got {
		if ev.Seq != uint64(i+1) {
			t.Fatalf("spill event %d has seq %d", i, ev.Seq)
		}
	}
	if ring := r.Events(); !reflect.DeepEqual(got[len(got)-len(ring):], ring) {
		t.Fatalf("spill tail:\ngot  %+v\nwant %+v", got[len(got)-len(ring):], ring)
	}
	if got[0].Kind != pmemtrace.KindStore || got[0].TID != 9 || got[0].Key != 4 || got[0].Off != 0 {
		t.Fatalf("first spilled event = %+v", got[0])
	}
}
