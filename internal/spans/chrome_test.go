package spans

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"zofs/internal/pmemtrace"
	"zofs/internal/series"
)

var update = flag.Bool("update", false, "rewrite golden files")

// fixedMerge is a deterministic root/device-event pair: two op spans with
// children (one aborted by an MPK violation), interleaved device events —
// among them a cached store that a flush cleans and one a crash loses, so the
// dirty-line counter track rises and falls twice.
func fixedMerge() ([]Root, []pmemtrace.Event) {
	roots := []Root{
		{
			Op: "create", TID: 1, PathHash: PathHash("/hot/f-000001"), PKey: 3,
			Start: 1000, Dur: 900,
			Comp:         Breakdown{CompMedia: 400, CompFlush: 100, CompLock: 50, CompOther: 350},
			BytesWritten: 4096, Flushes: 2, Fences: 1,
			Children: []Child{
				{Name: "fslib.dispatch", Start: 1010, Dur: 30},
				{Name: "kernfs.coffer_enlarge", Start: 1200, Dur: 250},
			},
		},
		{
			Op: "write", TID: 2, PKey: -1,
			Start: 1500, Dur: 300,
			Comp:    Breakdown{CompMedia: 120, CompPKRU: 24, CompOther: 156},
			Aborted: true,
			Children: []Child{
				{Name: "mpk_violation", Start: -1, Detail: "PKRU write-disable"},
			},
		},
	}
	events := []pmemtrace.Event{
		{Seq: 1, TS: 1250, Kind: pmemtrace.KindNTStore, Off: 8192, Len: 256, TID: 1, Key: 3},
		{Seq: 2, TS: 1300, Kind: pmemtrace.KindFlush, Off: 8192, Len: 64, TID: 1, Key: 3},
		{Seq: 3, TS: 1350, Kind: pmemtrace.KindFence, TID: 1, Key: -1},
		{Seq: 4, TS: 1700, Kind: pmemtrace.KindViolation, Off: 17, TID: 2, Key: 5, Cause: "PKRU write-disable"},
		{Seq: 5, TS: 1750, Kind: pmemtrace.KindStore, Off: 4096, Len: 64, TID: 1, Key: 2},
		{Seq: 6, TS: 1800, Kind: pmemtrace.KindFlush, Off: 4096, Len: 64, TID: 1, Key: 2},
		{Seq: 7, TS: 1850, Kind: pmemtrace.KindStore64, Off: 8448, Len: 8, TID: 2, Key: 3},
		{Seq: 8, TS: 1900, Kind: pmemtrace.KindStore, Off: 128, Len: 32, TID: 1, Key: -1},
		{Seq: 9, TS: 1950, Kind: pmemtrace.KindCrashInject, Len: 4, TID: -1, Key: -1},
		{Seq: 10, TS: 0, Kind: pmemtrace.KindCrash, Len: 1, TID: -1, Key: -1},
	}
	return roots, events
}

// TestMergedChromeGolden pins the merged exporter's exact bytes: stable
// field order, root spans as slices with nested children, device events as
// instants on the same timeline, the dirty-line count as a counter track.
func TestMergedChromeGolden(t *testing.T) {
	roots, events := fixedMerge()
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, Timeline{Roots: roots, Events: events}); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "chrome_golden.json")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden file (run with -update): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("merged chrome export drifted from golden file:\n--- got ---\n%s\n--- want ---\n%s", buf.Bytes(), want)
	}

	var arr []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &arr); err != nil {
		t.Fatalf("export is not a valid JSON array: %v", err)
	}
	// 2 roots + 3 children + 10 device events + 4 dirty-line counter moves.
	if len(arr) != 19 {
		t.Fatalf("exported %d events, want 19", len(arr))
	}
	cats := map[string]int{}
	for i, ev := range arr {
		for _, field := range []string{"name", "cat", "ph", "ts", "pid", "tid"} {
			if _, ok := ev[field]; !ok {
				t.Fatalf("event %d missing %q: %v", i, field, ev)
			}
		}
		cats[ev["cat"].(string)]++
	}
	if cats["fsop"] != 2 || cats["span"] != 3 || cats["nvm"] != 14 {
		t.Fatalf("category counts = %v", cats)
	}
	var track []float64
	for _, ev := range arr {
		if ev["name"] == "dirty_lines" {
			track = append(track, ev["args"].(map[string]any)["dirty"].(float64))
		}
	}
	if want := []float64{1, 0, 1, 0}; !reflect.DeepEqual(track, want) {
		t.Fatalf("dirty-line track = %v, want %v", track, want)
	}
}

// TestMergedChromeEmpty: both inputs empty still yields a valid array.
func TestMergedChromeEmpty(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, Timeline{}); err != nil {
		t.Fatal(err)
	}
	var arr []any
	if err := json.Unmarshal(buf.Bytes(), &arr); err != nil || len(arr) != 0 {
		t.Fatalf("empty export = %q, want empty JSON array", buf.String())
	}
}

// TestMergedChromeMarks: tail-observatory overlays render as "series"
// instants and "exemplar" slices.
func TestMergedChromeMarks(t *testing.T) {
	roots, events := fixedMerge()
	tl := Timeline{
		Roots: roots, Events: events,
		Windows: []series.Window{
			{Index: 1, StartNS: 1000, Ops: map[string]series.OpWindow{"create": {Count: 2}}},
			{Index: 0, StartNS: 0},
		},
		Exemplars: []Exemplar{{Root: roots[0]}},
	}
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, tl); err != nil {
		t.Fatal(err)
	}
	var arr []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &arr); err != nil {
		t.Fatalf("marked export is not a valid JSON array: %v", err)
	}
	cats := map[string]int{}
	var sawWorst, sawWindow bool
	for _, ev := range arr {
		cats[ev["cat"].(string)]++
		name := ev["name"].(string)
		if name == "worst:create" {
			sawWorst = true
		}
		if name == "window 1" && ev["args"].(map[string]any)["detail"] == "2 ops" {
			sawWindow = true
		}
	}
	if cats["series"] != 2 || cats["exemplar"] != 1 {
		t.Fatalf("mark category counts = %v", cats)
	}
	if !sawWorst || !sawWindow {
		t.Fatalf("missing mark events (worst=%v window=%v)", sawWorst, sawWindow)
	}
}

// TestMergedChromeDeterministic: unsorted input roots render identically to
// sorted ones (the exporter orders by start time, then TID).
func TestMergedChromeDeterministic(t *testing.T) {
	roots, events := fixedMerge()
	rev := []Root{roots[1], roots[0]}
	var a, b bytes.Buffer
	if err := WriteChromeTrace(&a, Timeline{Roots: roots, Events: events}); err != nil {
		t.Fatal(err)
	}
	if err := WriteChromeTrace(&b, Timeline{Roots: rev, Events: events}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("export depends on input root order")
	}
}
