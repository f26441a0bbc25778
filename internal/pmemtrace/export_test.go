package pmemtrace_test

import (
	"bytes"
	"reflect"
	"testing"

	"zofs/internal/obsfs"
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

// TestJSONLRoundTrip: every kind survives the observation directory's JSON
// lines unchanged.
func TestJSONLRoundTrip(t *testing.T) {
	events := everyKind()
	seen := map[pmemtrace.Kind]bool{}
	for _, ev := range events {
		seen[ev.Kind] = true
	}
	if len(seen) != int(pmemtrace.KindLockWait)+1 {
		t.Fatalf("the stream covers %d kinds, want every one", len(seen))
	}
	var buf bytes.Buffer
	if err := obsfs.WriteJSONL(&buf, events); err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(buf.Bytes(), []byte(`"kind":"lock_wait"`)) {
		t.Fatalf("kinds are not written by name:\n%s", buf.Bytes())
	}
	got, err := obsfs.ReadJSONL[pmemtrace.Event](&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, events) {
		t.Fatalf("round trip:\ngot  %+v\nwant %+v", got, events)
	}
	if _, err := obsfs.ReadJSONL[pmemtrace.Event](bytes.NewBufferString(`{"seq":1,"kind":"teleport"}`)); err == nil {
		t.Fatal("an unknown kind parsed")
	}
}

// TestSpillIsWriteJSONL: a recorder's spill is, byte for byte, the
// directory encoding of the events it recorded — one encoding, not two.
func TestSpillIsWriteJSONL(t *testing.T) {
	var spill bytes.Buffer
	r := pmemtrace.New(pmemtrace.Config{RingCap: 16, Spill: &spill})
	clk := simclock.NewClock()
	clk.SetTag(pmemtrace.PackTag(9, 4))
	clk.Advance(111)
	r.Record(7, clk, pmemtrace.KindStore, 4096, 128)
	clk.Advance(10)
	r.Record(7, clk, pmemtrace.KindFlush, 4096, 128)
	r.RecordViolation(200, 9, 33, 5, "page not mapped")
	r.RecordLockWait(300, 40, 9, 2, "kernfs.big")
	if err := r.FlushSpill(); err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := obsfs.WriteJSONL(&want, r.Events()); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(spill.Bytes(), want.Bytes()) {
		t.Fatalf("spill:\n%s\nwant:\n%s", spill.Bytes(), want.Bytes())
	}
}
