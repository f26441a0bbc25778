package main

import (
	"fmt"
	"io"

	"zofs/internal/obsfs"
	"zofs/internal/pmemtrace"
	"zofs/internal/series"
	"zofs/internal/spans"
)

// cmdTrace audits and exports the event log of an observation directory
// (zofs-bench -obs DIR), the flight recorder's stream in internal/pmemtrace.
//
//	zofs-obs trace audit  [-max-lost N] DIR
//	zofs-obs trace export [-o chrome.json] DIR
//
// audit replays the directory's events.jsonl through the crash-consistency
// auditor — lost-update lines at crash points, redundant flushes/fences,
// epoch shape — naming the ops from the directory's span roots. With
// -max-lost it exits 1 when more lines were lost than allowed, making it
// usable as a CI gate.
//
// export draws the directory on one virtual-time axis as Chrome trace-event
// JSON for chrome://tracing or Perfetto: root op spans as slices with their
// child layer spans nested inside, device events as instants plus a
// dirty-line counter track, lock waits as slices on the waiter's track,
// series window boundaries and worst-op exemplar slices.
func cmdTrace(args []string, stdout, stderr io.Writer) int {
	return dispatch("zofs-obs trace", []command{
		{"audit", "replay a directory's event log through the crash-consistency auditor", traceAudit},
		{"export", "draw an observation directory as Chrome trace-event JSON", traceExport},
	}, args, stdout, stderr)
}

func traceAudit(args []string, stdout, stderr io.Writer) int {
	fs := newFlags("trace audit", stderr)
	fs.Usage = func() { fmt.Fprintln(stderr, "usage: zofs-obs trace audit [-max-lost N] DIR") }
	maxLost := fs.Int("max-lost", -1, "exit 1 if more than N lost lines are found (-1 = report only)")
	if !parse(fs, args, 1, 1) {
		return 2
	}
	events, err := readLog[pmemtrace.Event](fs.Arg(0), obsfs.EventsLog, false)
	if err != nil {
		return fail(stderr, err)
	}
	roots, err := readLog[spans.Root](fs.Arg(0), obsfs.SpansLog, true)
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
		err = create(*out, stdout, func(w io.Writer) error { return spans.WriteChromeTrace(w, tl) })
	}
	if err != nil {
		return fail(stderr, err)
	}
	fmt.Fprintf(stdout, "wrote %s (%d events, %d causal spans, %d windows, %d exemplars)\n",
		*out, len(tl.Events), len(tl.Roots), len(tl.Windows), len(tl.Exemplars))
	return 0
}

// loadTimeline reads an observation directory's raw logs: the span roots
// (required) and, when the run collected them, the events, the series
// windows and the worst-op exemplars.
func loadTimeline(dir string) (tl spans.Timeline, err error) {
	if tl.Roots, err = readLog[spans.Root](dir, obsfs.SpansLog, false); err != nil {
		return tl, err
	}
	if tl.Events, err = readLog[pmemtrace.Event](dir, obsfs.EventsLog, true); err != nil {
		return tl, err
	}
	if tl.Windows, err = readLog[series.Window](dir, obsfs.SeriesLog, true); err != nil {
		return tl, err
	}
	tl.Exemplars, err = readLog[spans.Exemplar](dir, obsfs.ExemplarsLog, true)
	return tl, err
}
