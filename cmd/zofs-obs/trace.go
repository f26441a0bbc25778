package main

import (
	"fmt"
	"io"
	"math"
	"sort"

	"zofs/internal/obsfs"
	"zofs/internal/pmemtrace"
	"zofs/internal/series"
	"zofs/internal/spans"
	"zofs/internal/telemetry"
)

// cmdTrace decodes the record logs of an observation directory (zofs-bench
// -obs DIR): its root spans and the flight recorder's event stream.
//
//	zofs-obs trace audit  [-max-lost N] DIR
//	zofs-obs trace export [-o chrome.json] DIR
//	zofs-obs trace worst  DIR
//
// audit replays the directory's event log through the crash-consistency
// auditor — lost-update lines at crash points, redundant flushes/fences,
// epoch shape — naming the ops from the directory's span roots. With
// -max-lost it exits 1 when more lines were lost than allowed, making it
// usable as a CI gate.
//
// export draws the directory on one virtual-time axis as Chrome trace-event
// JSON for chrome://tracing or Perfetto: root op spans as slices with their
// child layer spans nested inside, device events as instants plus a
// dirty-line counter track, lock waits as slices on the waiter's track and
// the series window boundaries.
//
// worst lists each op kind's worstK longest roots with their component
// attribution, child spans and every event recorded while they ran.
func cmdTrace(args []string, stdout, stderr io.Writer) int {
	return dispatch("zofs-obs trace", []command{
		{"audit", "replay a directory's event log through the crash-consistency auditor", traceAudit},
		{"export", "draw an observation directory as Chrome trace-event JSON", traceExport},
		{"worst", "list each op kind's longest roots with the events recorded while they ran", traceWorst},
	}, args, stdout, stderr)
}

func traceAudit(args []string, stdout, stderr io.Writer) int {
	fs := newFlags("trace audit", stderr)
	fs.Usage = func() { fmt.Fprintln(stderr, "usage: zofs-obs trace audit [-max-lost N] DIR") }
	maxLost := fs.Int("max-lost", -1, "exit 1 if more than N lost lines are found (-1 = report only)")
	if !parse(fs, args, 1, 1) {
		return 2
	}
	events, err := readLog(fs.Arg(0), obsfs.EventsLog, false, pmemtrace.ReadEvents)
	if err != nil {
		return fail(stderr, err)
	}
	roots, err := readLog(fs.Arg(0), obsfs.SpansLog, true, spans.ReadRoots)
	if err != nil {
		return fail(stderr, err)
	}
	opSpans := make([]pmemtrace.OpSpan, len(roots))
	for i, r := range roots {
		opSpans[i] = pmemtrace.OpSpan{TID: r.TID, Op: r.Op, Start: r.Start, Dur: r.Dur}
	}
	rep := pmemtrace.Audit(events, opSpans)
	rep.WriteText(stdout)
	if *maxLost >= 0 && len(rep.LostLines) > *maxLost {
		return fail(stderr, fmt.Errorf("%d lost lines exceed -max-lost %d", len(rep.LostLines), *maxLost))
	}
	return 0
}

func traceExport(args []string, stdout, stderr io.Writer) int {
	fs := newFlags("trace export", stderr)
	fs.Usage = func() { fmt.Fprintln(stderr, "usage: zofs-obs trace export [-o chrome.json] DIR") }
	out := fs.String("o", "chrome.json", "output Chrome trace-event JSON path")
	if !parse(fs, args, 1, 1) {
		return 2
	}
	tl, err := loadTimeline(fs.Arg(0))
	if err == nil {
		tl.Windows = windows(tl.Roots)
		err = create(*out, stdout, func(w io.Writer) error { return spans.WriteChromeTrace(w, tl) })
	}
	if err != nil {
		return fail(stderr, err)
	}
	fmt.Fprintf(stdout, "wrote %s (%d events, %d causal spans, %d windows)\n",
		*out, len(tl.Events), len(tl.Roots), len(tl.Windows))
	return 0
}

func traceWorst(args []string, stdout, stderr io.Writer) int {
	fs := newFlags("trace worst", stderr)
	fs.Usage = func() { fmt.Fprintln(stderr, "usage: zofs-obs trace worst DIR") }
	if !parse(fs, args, 1, 1) {
		return 2
	}
	tl, err := loadTimeline(fs.Arg(0))
	if err != nil {
		return fail(stderr, err)
	}
	for _, e := range worst(tl.Roots, tl.Events, worstK) {
		r := e.root
		fmt.Fprintf(stdout, "%s tid %d start %d ns dur %d ns", r.Op, r.TID, r.Start, r.Dur)
		if r.Aborted {
			fmt.Fprint(stdout, " aborted")
		}
		for c, ns := range r.Comp {
			if ns > 0 {
				fmt.Fprintf(stdout, " %s %d", spans.Component(c).Name(), ns)
			}
		}
		fmt.Fprintln(stdout)
		for _, ch := range r.Children {
			fmt.Fprintf(stdout, "  span %s start %d ns dur %d ns %s\n", ch.Name, ch.Start, ch.Dur, ch.Detail)
		}
		for _, ev := range e.events {
			fmt.Fprintf(stdout, "  event %d %s ts %d off %d len %d tid %d key %d %s\n",
				ev.Seq, ev.Kind, ev.TS, ev.Off, ev.Len, ev.TID, ev.Key, ev.Cause)
		}
	}
	return 0
}

// loadTimeline decodes an observation directory's record logs: the span
// roots (required) and, when the run recorded them, the events.
func loadTimeline(dir string) (tl spans.Timeline, err error) {
	if tl.Roots, err = readLog(dir, obsfs.SpansLog, false, spans.ReadRoots); err != nil {
		return tl, err
	}
	if tl.Events, err = readLog(dir, obsfs.EventsLog, true, pmemtrace.ReadEvents); err != nil {
		return tl, err
	}
	return tl, nil
}

// opIndex maps op names to their telemetry.Op, the dispatch order.
func opIndex() map[string]telemetry.Op {
	m := make(map[string]telemetry.Op, telemetry.NumOps)
	for i := 0; i < telemetry.NumOps; i++ {
		m[telemetry.Op(i).Name()] = telemetry.Op(i)
	}
	return m
}

// windows folds roots into virtual-time windows by their start, as the run's
// series collector did, keeping every window.
func windows(roots []spans.Root) []series.Window {
	ops, c := opIndex(), series.NewCollector(series.Config{MaxWindows: math.MaxInt})
	for _, r := range roots {
		if op, ok := ops[r.Op]; ok {
			c.Observe(op, r.Start, r.Dur)
		}
	}
	return c.Windows()
}

// worstK is how many of each op kind's longest roots the worst ops hold.
const worstK = 8

// exemplar is one of a run's worst operations: a root among the longest of
// its op kind, with the events of every thread (concurrent traffic is usually
// the explanation) recorded while it ran, lock waits and their blamed
// holders among them.
type exemplar struct {
	root   spans.Root
	events []pmemtrace.Event
}

// worst returns each op kind's k longest roots, op kinds in dispatch order
// and the longest first; among equal durations the first recorded wins.
func worst(roots []spans.Root, events []pmemtrace.Event, k int) []exemplar {
	ops := opIndex()
	byOp := make([][]spans.Root, telemetry.NumOps)
	for _, r := range roots {
		if op, ok := ops[r.Op]; ok {
			byOp[op] = append(byOp[op], r)
		}
	}
	var out []exemplar
	for _, rs := range byOp {
		sort.SliceStable(rs, func(i, j int) bool { return rs[i].Dur > rs[j].Dur })
		for _, r := range rs[:min(k, len(rs))] {
			e := exemplar{root: r}
			for _, ev := range events {
				if ev.TS >= r.Start && ev.TS <= r.Start+r.Dur {
					e.events = append(e.events, ev)
				}
			}
			out = append(out, e)
		}
	}
	return out
}
