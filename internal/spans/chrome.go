package spans

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"zofs/internal/pmemtrace"
	"zofs/internal/series"
)

// Merged Chrome trace-event export: root spans render as complete ("X")
// events carrying their component breakdown, child spans nest inside them on
// the same thread track, and the run's pmemtrace events interleave: device
// events as instant ("i") events — so a flush stall on the timeline sits
// visually inside the op that caused it — lock waits as slices on the
// waiter's track, and a counter ("C") track replays the dirty-line count, so
// lost-update windows show as a non-zero sawtooth.
// Structs marshal with fixed field order and
// maps with sorted keys, keeping the exporter byte-deterministic for a given
// input (golden-file tested).

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

const chromePID = 1

func usec(ns int64) float64 { return float64(ns) / 1e3 }

// byStart returns a copy of in ordered by virtual start time, then thread —
// stably, so the export does not depend on the order of its input.
func byStart[T any](in []T, key func(*T) (start int64, tid int)) []T {
	out := append([]T(nil), in...)
	sort.SliceStable(out, func(i, j int) bool {
		si, ti := key(&out[i])
		sj, tj := key(&out[j])
		if si != sj {
			return si < sj
		}
		return ti < tj
	})
	return out
}

// compArgs names a breakdown's non-zero components (nil when there is none).
func compArgs(b Breakdown) map[string]int64 {
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

// Timeline is everything the merged export can draw on one virtual-time
// axis; any field may be empty. Lock-wait events render as "lockwait" slices
// named wait:<lock> on the blocked thread's track (the blamed holder one
// click away), and series windows as global instants on the device track.
type Timeline struct {
	Roots   []Root
	Events  []pmemtrace.Event
	Windows []series.Window
}

// WriteChromeTrace renders the timeline as Chrome trace-event JSON.
func WriteChromeTrace(w io.Writer, tl Timeline) error {
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
			Comp:         compArgs(r.Comp),
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
