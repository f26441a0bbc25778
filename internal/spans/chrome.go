package spans

import (
	"bufio"
	"encoding/json"
	"io"
	"math"
	"sort"
	"strconv"
	"unicode/utf8"

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
//
// Each event is appended to one buffer with strconv, fields in a fixed order
// and component names sorted, in exactly the bytes encoding/json gave the
// same event through reflection (chrome_test.go keeps that encoder as the
// reference), so the export is byte-deterministic for a given input
// (golden-file tested).

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

// compByName is the components in the order of their names.
var compByName = func() (o [NumComponents]Component) {
	for i := range o {
		o[i] = Component(i)
	}
	sort.Slice(o[:], func(i, j int) bool { return o[i].Name() < o[j].Name() })
	return o
}()

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
	var e chromeEnc
	first := true
	emit := func() error {
		sep := ",\n  "
		if first {
			sep = "[\n  "
			first = false
		}
		if _, err := bw.WriteString(sep); err != nil {
			return err
		}
		_, err := bw.Write(e.end())
		return err
	}

	for _, r := range byStart(tl.Roots, func(r *Root) (int64, int) { return r.Start, r.TID }) {
		e.head(r.Op, "fsop", "X", usec(r.Start))
		e.dur(usec(r.Dur))
		e.thread(int32(r.TID), "")
		e.openArgs()
		e.comp(r.Comp)
		if r.PathHash != 0 {
			e.arg("path_hash")
			e.b = append(e.b, '"')
			for sh := 60; sh >= 0; sh -= 4 {
				e.b = append(e.b, "0123456789abcdef"[r.PathHash>>sh&0xf])
			}
			e.b = append(e.b, '"')
		}
		if r.PKey >= 0 {
			e.argInt("pkey", int64(r.PKey))
		}
		e.argNonZero("nvm_bytes_read", r.BytesRead)
		e.argNonZero("nvm_bytes_written", r.BytesWritten)
		e.argNonZero("flushes", r.Flushes)
		e.argNonZero("fences", r.Fences)
		if r.Aborted {
			e.arg("aborted")
			e.b = append(e.b, "true"...)
		}
		if err := emit(); err != nil {
			return err
		}
		for _, ch := range r.Children {
			if ch.Start < 0 {
				// Unplaced annotation (e.g. the violation that aborted the
				// op): an instant at the root's end.
				e.head(ch.Name, "span", "i", usec(r.Start+r.Dur))
				e.thread(int32(r.TID), "t")
			} else {
				e.head(ch.Name, "span", "X", usec(ch.Start))
				e.dur(usec(ch.Dur))
				e.thread(int32(r.TID), "")
			}
			e.argStr("detail", ch.Detail)
			if err := emit(); err != nil {
				return err
			}
		}
	}

	for _, m := range byStart(tl.Windows, func(m *series.Window) (int64, int) { return m.StartNS, 0 }) {
		var ops int64
		for _, ow := range m.Ops {
			ops += ow.Count
		}
		e.head("window "+strconv.FormatInt(m.Index, 10), "series", "i", usec(m.StartNS))
		e.thread(0, "g")
		e.argStr("detail", strconv.FormatInt(ops, 10)+" ops")
		if err := emit(); err != nil {
			return err
		}
	}

	dirty := pmemtrace.NewDirtySet()
	lastDirty := -1
	for _, ev := range tl.Events {
		if ev.Kind == pmemtrace.KindLockWait {
			e.head("wait:"+ev.Cause, "lockwait", "X", usec(ev.TS))
			e.dur(usec(ev.Len))
			e.thread(ev.TID, "")
			e.arg("detail")
			e.b = append(e.b, `"blocked by tid `...)
			e.b = strconv.AppendInt(e.b, ev.Off, 10)
			e.b = append(e.b, '"')
			if err := emit(); err != nil {
				return err
			}
			continue
		}
		scope := "t"
		if ev.Kind == pmemtrace.KindViolation {
			scope = "g" // faults are worth seeing across all tracks
		}
		e.head(ev.Kind.String(), "nvm", "i", usec(ev.TS))
		e.thread(max(ev.TID, 0), scope)
		e.openArgs()
		if ev.Seq != 0 {
			e.arg("seq")
			e.b = strconv.AppendUint(e.b, ev.Seq, 10)
		}
		switch ev.Kind {
		case pmemtrace.KindFence, pmemtrace.KindCrash, pmemtrace.KindCrashInject:
			// No meaningful range.
		case pmemtrace.KindViolation:
			e.argInt("off", ev.Off)
		default:
			e.argInt("off", ev.Off)
			e.argInt("len", ev.Len)
		}
		if ev.Key >= 0 {
			e.argInt("key", int64(ev.Key))
		}
		if ev.Kind == pmemtrace.KindViolation {
			e.argStr("cause", ev.Cause)
		}
		if err := emit(); err != nil {
			return err
		}
		before := dirty.Len()
		dirty.Apply(ev, nil)
		if after := dirty.Len(); after != before || (ev.Kind == pmemtrace.KindCrash && lastDirty != 0) {
			e.head("dirty_lines", "nvm", "C", usec(ev.TS))
			e.thread(0, "")
			e.argInt("dirty", int64(after))
			if err := emit(); err != nil {
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

// chromeEnc builds one event in its buffer, which each event reuses. The
// calls come in the event's field order: head, then dur, thread, and the
// args, the first of which opens the args object unless openArgs has.
type chromeEnc struct {
	b    []byte
	args int // the args written so far, -1 before the args object opens
}

func (e *chromeEnc) head(name, cat, ph string, ts float64) {
	e.b = append(e.b[:0], `{"name":`...)
	e.b = appendJSONString(e.b, name)
	e.b = append(e.b, `,"cat":"`...)
	e.b = append(e.b, cat...)
	e.b = append(e.b, `","ph":"`...)
	e.b = append(e.b, ph...)
	e.b = append(e.b, `","ts":`...)
	e.b = appendJSONFloat(e.b, ts)
	e.args = -1
}

func (e *chromeEnc) dur(d float64) {
	e.b = append(e.b, `,"dur":`...)
	e.b = appendJSONFloat(e.b, d)
}

// thread writes the pid, the tid and the instant scope ("" for none).
func (e *chromeEnc) thread(tid int32, scope string) {
	e.b = append(e.b, `,"pid":`...)
	e.b = strconv.AppendInt(e.b, chromePID, 10)
	e.b = append(e.b, `,"tid":`...)
	e.b = strconv.AppendInt(e.b, int64(tid), 10)
	if scope != "" {
		e.b = append(e.b, `,"s":"`...)
		e.b = append(e.b, scope...)
		e.b = append(e.b, '"')
	}
}

// openArgs opens the args object, which stays in the event even if empty.
func (e *chromeEnc) openArgs() {
	if e.args < 0 {
		e.b = append(e.b, `,"args":{`...)
		e.args = 0
	}
}

// arg writes an argument's key; its value is the caller's to append.
func (e *chromeEnc) arg(key string) {
	e.openArgs()
	if e.args > 0 {
		e.b = append(e.b, ',')
	}
	e.args++
	e.b = append(e.b, '"')
	e.b = append(e.b, key...)
	e.b = append(e.b, `":`...)
}

func (e *chromeEnc) argInt(key string, v int64) {
	e.arg(key)
	e.b = strconv.AppendInt(e.b, v, 10)
}

func (e *chromeEnc) argNonZero(key string, v int64) {
	if v != 0 {
		e.argInt(key, v)
	}
}

// argStr writes a string argument unless it is empty.
func (e *chromeEnc) argStr(key, v string) {
	if v != "" {
		e.arg(key)
		e.b = appendJSONString(e.b, v)
	}
}

// comp writes a breakdown's positive components by name, if it has any.
func (e *chromeEnc) comp(b Breakdown) {
	open := false
	for _, c := range compByName {
		if b[c] <= 0 {
			continue
		}
		if open {
			e.b = append(e.b, ',')
		} else {
			e.arg("comp")
			e.b = append(e.b, '{')
			open = true
		}
		e.b = append(e.b, '"')
		e.b = append(e.b, c.Name()...)
		e.b = append(e.b, `":`...)
		e.b = strconv.AppendInt(e.b, b[c], 10)
	}
	if open {
		e.b = append(e.b, '}')
	}
}

// end closes the event and returns its bytes.
func (e *chromeEnc) end() []byte {
	if e.args >= 0 {
		e.b = append(e.b, '}')
	}
	return append(e.b, '}')
}

// appendJSONFloat appends f as encoding/json writes a float64: the shortest
// decimal that reads back as f, in exponent form (which usec never yields)
// only below 1e-6 or from 1e21 up.
func appendJSONFloat(b []byte, f float64) []byte {
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		q, _ := json.Marshal(f)
		return append(b, q...)
	}
	return strconv.AppendFloat(b, f, 'f', -1, 64)
}

// appendJSONString appends s quoted as encoding/json quotes a string. Names,
// causes and details are printable ASCII that needs no escape; anything else
// goes through encoding/json itself.
func appendJSONString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= utf8.RuneSelf || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(s)
			return append(b, q...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}
