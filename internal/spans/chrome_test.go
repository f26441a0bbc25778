package spans

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
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

// TestMergedChromeLockWait: a lock_wait event in the stream exports as a
// wait:<lock> slice on the waiter's track, naming the blamed holder, and
// leaves the dirty-line track alone.
func TestMergedChromeLockWait(t *testing.T) {
	events := []pmemtrace.Event{
		{Seq: 1, TS: 1200, Kind: pmemtrace.KindLockWait, Off: 1, Len: 300, TID: 2, Key: -1, Cause: "zofs.inode/42"},
	}
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, Timeline{Events: events}); err != nil {
		t.Fatal(err)
	}
	var arr []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &arr); err != nil {
		t.Fatal(err)
	}
	want := map[string]any{
		"name": "wait:zofs.inode/42", "cat": "lockwait", "ph": "X", "ts": 1.2, "dur": 0.3,
		"pid": float64(chromePID), "tid": float64(2), "args": map[string]any{"detail": "blocked by tid 1"},
	}
	if len(arr) != 1 || !reflect.DeepEqual(arr[0], want) {
		t.Fatalf("export = %v, want [%v]", arr, want)
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

// TestMergedChromeMarks: series windows render as global "series" instants
// naming their op volume.
func TestMergedChromeMarks(t *testing.T) {
	roots, events := fixedMerge()
	tl := Timeline{
		Roots: roots, Events: events,
		Windows: []series.Window{
			{Index: 1, StartNS: 1000, Ops: map[string]series.OpWindow{"create": {Count: 2}}},
			{Index: 0, StartNS: 0},
		},
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
	var sawWindow bool
	for _, ev := range arr {
		cats[ev["cat"].(string)]++
		if ev["name"] == "window 1" && ev["args"].(map[string]any)["detail"] == "2 ops" && ev["s"] == "g" {
			sawWindow = true
		}
	}
	if cats["series"] != 2 || !sawWindow {
		t.Fatalf("mark category counts = %v, window 1 drawn: %v", cats, sawWindow)
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

// chromeArgs and chromeEvent are the export's schema as encoding/json
// structs, field order and omitempty rules included.
type chromeArgs struct {
	Comp         map[string]int64 `json:"comp,omitempty"`
	PathHash     string           `json:"path_hash,omitempty"`
	PKey         *int16           `json:"pkey,omitempty"`
	BytesRead    int64            `json:"nvm_bytes_read,omitempty"`
	BytesWritten int64            `json:"nvm_bytes_written,omitempty"`
	Flushes      int64            `json:"flushes,omitempty"`
	Fences       int64            `json:"fences,omitempty"`
	Aborted      bool             `json:"aborted,omitempty"`
	Detail       string           `json:"detail,omitempty"`
	Seq          uint64           `json:"seq,omitempty"`
	Off          *int64           `json:"off,omitempty"`
	Len          *int64           `json:"len,omitempty"`
	Key          *int16           `json:"key,omitempty"`
	Cause        string           `json:"cause,omitempty"`
	Dirty        *int64           `json:"dirty,omitempty"`
}

type chromeEvent struct {
	Name string      `json:"name"`
	Cat  string      `json:"cat"`
	Ph   string      `json:"ph"`
	TS   float64     `json:"ts"` // microseconds
	Dur  *float64    `json:"dur,omitempty"`
	PID  int         `json:"pid"`
	TID  int32       `json:"tid"`
	S    string      `json:"s,omitempty"` // instant-event scope
	Args *chromeArgs `json:"args,omitempty"`
}

// compArgs names a breakdown's non-zero components (nil when there is none).
func compArgsJSON(b Breakdown) map[string]int64 {
	var m map[string]int64
	for i, v := range b {
		if v > 0 {
			if m == nil {
				m = map[string]int64{}
			}
			m[Component(i).Name()] = v
		}
	}
	return m
}

// writeChromeTraceJSON is the exporter as it was written with
// encoding/json, through the structs above: the reference for the bytes.
func writeChromeTraceJSON(w io.Writer, tl Timeline) error {
	bw := bufio.NewWriter(w)
	first := true
	emit := func(ev chromeEvent) error {
		b, err := json.Marshal(ev)
		if err != nil {
			return err
		}
		sep := ",\n  "
		if first {
			sep = "[\n  "
			first = false
		}
		if _, err := bw.WriteString(sep); err != nil {
			return err
		}
		_, err = bw.Write(b)
		return err
	}

	for _, r := range byStart(tl.Roots, func(r *Root) (int64, int) { return r.Start, r.TID }) {
		dur := usec(r.Dur)
		args := &chromeArgs{
			Comp:         compArgsJSON(r.Comp),
			BytesRead:    r.BytesRead,
			BytesWritten: r.BytesWritten,
			Flushes:      r.Flushes,
			Fences:       r.Fences,
			Aborted:      r.Aborted,
		}
		if r.PathHash != 0 {
			args.PathHash = fmt.Sprintf("%016x", r.PathHash)
		}
		if r.PKey >= 0 {
			k := r.PKey
			args.PKey = &k
		}
		if err := emit(chromeEvent{
			Name: r.Op, Cat: "fsop", Ph: "X",
			TS: usec(r.Start), Dur: &dur,
			PID: chromePID, TID: int32(r.TID), Args: args,
		}); err != nil {
			return err
		}
		for _, ch := range r.Children {
			ce := chromeEvent{
				Name: ch.Name, Cat: "span", PID: chromePID, TID: int32(r.TID),
			}
			if ch.Detail != "" {
				ce.Args = &chromeArgs{Detail: ch.Detail}
			}
			if ch.Start < 0 {
				// Unplaced annotation (e.g. the violation that aborted the
				// op): an instant at the root's end.
				ce.Ph, ce.S, ce.TS = "i", "t", usec(r.Start+r.Dur)
			} else {
				d := usec(ch.Dur)
				ce.Ph, ce.TS, ce.Dur = "X", usec(ch.Start), &d
			}
			if err := emit(ce); err != nil {
				return err
			}
		}
	}

	for _, m := range byStart(tl.Windows, func(m *series.Window) (int64, int) { return m.StartNS, 0 }) {
		var ops int64
		for _, ow := range m.Ops {
			ops += ow.Count
		}
		if err := emit(chromeEvent{
			Name: fmt.Sprintf("window %d", m.Index), Cat: "series", Ph: "i",
			TS: usec(m.StartNS), PID: chromePID, TID: 0, S: "g",
			Args: &chromeArgs{Detail: fmt.Sprintf("%d ops", ops)},
		}); err != nil {
			return err
		}
	}

	dirty := pmemtrace.NewDirtySet()
	lastDirty := -1
	for _, ev := range tl.Events {
		if ev.Kind == pmemtrace.KindLockWait {
			d := usec(ev.Len)
			if err := emit(chromeEvent{
				Name: "wait:" + ev.Cause, Cat: "lockwait", Ph: "X",
				TS: usec(ev.TS), Dur: &d, PID: chromePID, TID: ev.TID,
				Args: &chromeArgs{Detail: fmt.Sprintf("blocked by tid %d", ev.Off)},
			}); err != nil {
				return err
			}
			continue
		}
		tid := ev.TID
		if tid < 0 {
			tid = 0
		}
		ce := chromeEvent{
			Name: ev.Kind.String(), Cat: "nvm", Ph: "i",
			TS: usec(ev.TS), PID: chromePID, TID: tid, S: "t",
			Args: &chromeArgs{Seq: ev.Seq},
		}
		switch ev.Kind {
		case pmemtrace.KindFence, pmemtrace.KindCrash, pmemtrace.KindCrashInject:
			// No meaningful range.
		case pmemtrace.KindViolation:
			page := ev.Off
			ce.Args.Off = &page
			ce.Args.Cause = ev.Cause
			ce.S = "g" // faults are worth seeing across all tracks
		default:
			off, ln := ev.Off, ev.Len
			ce.Args.Off = &off
			ce.Args.Len = &ln
		}
		if ev.Key >= 0 {
			k := ev.Key
			ce.Args.Key = &k
		}
		if err := emit(ce); err != nil {
			return err
		}
		before := dirty.Len()
		dirty.Apply(ev, nil)
		if after := dirty.Len(); after != before || (ev.Kind == pmemtrace.KindCrash && lastDirty != 0) {
			n := int64(after)
			if err := emit(chromeEvent{
				Name: "dirty_lines", Cat: "nvm", Ph: "C",
				TS: usec(ev.TS), PID: chromePID, TID: 0,
				Args: &chromeArgs{Dirty: &n},
			}); err != nil {
				return err
			}
			lastDirty = after
		}
	}

	if first {
		if _, err := bw.WriteString("[]\n"); err != nil {
			return err
		}
		return bw.Flush()
	}
	if _, err := bw.WriteString("\n]\n"); err != nil {
		return err
	}
	return bw.Flush()
}

// chromeOddStrings are names, causes and details that encoding/json escapes
// or replaces: HTML metacharacters, quotes and backslashes, control bytes,
// the JSON-hostile line separators and invalid UTF-8.
var chromeOddStrings = []string{
	"", "create", "<script>&amp;</script>", `q"uote\back`, "tab\tnl\ncr\rbs\bff\f",
	"\x00\x01\x1f\x7f", "\u2028\u2029", "bad\xff\xfeutf8", "é漢字🙂", "zofs.inode/42",
}

// TestChromeEncoderMatchesJSON encodes randomized timelines — odd strings,
// zero and non-zero optional fields, every event kind — with the exporter and
// with the encoding/json reference, and requires the same bytes; then the
// float and string appenders alone against encoding/json, across the 'f'/'e'
// switch at 1e-6 and 1e21.
func TestChromeEncoderMatchesJSON(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	str := func() string { return chromeOddStrings[rng.IntN(len(chromeOddStrings))] }
	maybe := func(v int64) int64 {
		if rng.IntN(3) == 0 {
			return 0
		}
		return v
	}
	for round := 0; round < 200; round++ {
		var tl Timeline
		for i := rng.IntN(6); i > 0; i-- {
			r := Root{
				Op: str(), TID: rng.IntN(4), PKey: int16(rng.IntN(17) - 1),
				Start: rng.Int64N(1e12), Dur: maybe(rng.Int64N(1e9)),
				BytesRead: maybe(rng.Int64N(1e6)), BytesWritten: maybe(rng.Int64N(1e6)),
				Flushes: maybe(rng.Int64N(9)), Fences: maybe(rng.Int64N(9)), Aborted: rng.IntN(2) == 0,
			}
			if rng.IntN(2) == 0 {
				r.PathHash = rng.Uint64() >> (rng.IntN(8) * 8)
			}
			for c := range r.Comp {
				r.Comp[c] = maybe(rng.Int64N(2000) - 500)
			}
			for j := rng.IntN(3); j > 0; j-- {
				ch := Child{Name: str(), Start: rng.Int64N(1e12), Dur: rng.Int64N(1e6), Detail: str()}
				if rng.IntN(3) == 0 {
					ch.Start = -1
				}
				r.Children = append(r.Children, ch)
			}
			tl.Roots = append(tl.Roots, r)
		}
		for i := rng.IntN(3); i > 0; i-- {
			w := series.Window{Index: rng.Int64N(100), StartNS: rng.Int64N(1e12)}
			if rng.IntN(2) == 0 {
				w.Ops = map[string]series.OpWindow{"read": {Count: rng.Int64N(99)}, "write": {Count: rng.Int64N(99)}}
			}
			tl.Windows = append(tl.Windows, w)
		}
		for i := rng.IntN(12); i > 0; i-- {
			tl.Events = append(tl.Events, pmemtrace.Event{
				Seq: uint64(maybe(rng.Int64N(1e6))), TS: rng.Int64N(1e12),
				Kind: pmemtrace.Kind(rng.IntN(int(pmemtrace.KindLockWait) + 1)),
				Off:  rng.Int64N(1 << 30), Len: maybe(rng.Int64N(4096)),
				TID: int32(rng.IntN(5) - 1), Key: int16(rng.IntN(17) - 1), Cause: str(),
			})
		}
		var got, want bytes.Buffer
		if err := WriteChromeTrace(&got, tl); err != nil {
			t.Fatal(err)
		}
		if err := writeChromeTraceJSON(&want, tl); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("round %d: the export differs from encoding/json's:\n--- got ---\n%s\n--- want ---\n%s", round, got.Bytes(), want.Bytes())
		}
	}

	floats := []float64{0, math.Copysign(0, -1), 1e-6, math.Nextafter(1e-6, 0), 1e21, math.Nextafter(1e21, 0), 1e-7, 5e-324, math.MaxFloat64}
	for i := 0; i < 2000; i++ {
		f := rng.Float64() * math.Pow(10, float64(rng.IntN(61)-30))
		if rng.IntN(2) == 0 {
			f = -f
		}
		floats = append(floats, f, usec(rng.Int64()))
	}
	for _, f := range floats {
		want, _ := json.Marshal(f)
		if got := appendJSONFloat(nil, f); !bytes.Equal(got, want) {
			t.Errorf("float %v: %s, encoding/json %s", f, got, want)
		}
	}
	strs := append([]string(nil), chromeOddStrings...)
	for i := 0; i < 2000; i++ {
		const alphabet = "a<>&\"\\\x00\x1f\x7f\xe2\x80\xa8\xa9\xff" // with U+2028's and U+2029's bytes
		b := make([]byte, rng.IntN(12))
		for j := range b {
			b[j] = alphabet[rng.IntN(len(alphabet))]
		}
		strs = append(strs, string(b))
	}
	for _, s := range strs {
		want, _ := json.Marshal(s)
		if got := appendJSONString(nil, s); !bytes.Equal(got, want) {
			t.Errorf("string %q: %s, encoding/json %s", s, got, want)
		}
	}
}
