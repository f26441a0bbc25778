package main

import (
	"errors"
	"fmt"
	"io"
	"os"
	"strings"

	"zofs/internal/coffer"
	"zofs/internal/kernfs"
	"zofs/internal/lockprof"
	"zofs/internal/nvm"
	"zofs/internal/obsfs"
	"zofs/internal/pmemtrace"
	"zofs/internal/proc"
	"zofs/internal/series"
	"zofs/internal/spans"
	"zofs/internal/sysfactory"
	"zofs/internal/vfs"
	"zofs/internal/zofs"
)

// cmdTrace records, audits and exports persistence event logs from the
// simulated NVM stack (the flight recorder in internal/pmemtrace).
//
//	zofs-obs trace record [-workload append|create|crash] [-system <name>|all]
//	                      [-o trace.jsonl] [-chrome out.json] [-threads N]
//	                      [-ops N] [-size bytes] [-fsync-every K] [-device-mb N]
//	zofs-obs trace audit  [-max-lost N] <trace.jsonl>
//	zofs-obs trace export -obs DIR [-o chrome.json] [trace.jsonl]
//
// record drives a small fig7-style workload against one or all of the §6
// comparison file systems with the flight recorder on, spills every device
// event to a JSONL log (one log per system: "-o base.jsonl" becomes
// "base-<system>.jsonl" when recording several), appends the run's op spans
// (its causal-span roots), and prints the crash-consistency audit per system.
//
// audit replays a recorded log through the auditor: lost-update lines at
// crash points, redundant flushes/fences, epoch shape. With -max-lost it
// exits 1 when more lines were lost than allowed, making it usable as a CI
// gate.
//
// export draws an observation directory on one virtual-time axis as Chrome
// trace-event JSON for chrome://tracing or Perfetto: root op spans as slices
// with their child layer spans nested inside, per-thread blocked-on lanes,
// series window boundaries and worst-op exemplar slices — and, given an
// event log of the same run, the device events as instants plus a
// dirty-line counter track.
func cmdTrace(args []string, stdout, stderr io.Writer) int {
	return dispatch("zofs-obs trace", []command{
		{"record", "run a workload with the flight recorder on and write a JSONL log", traceRecord},
		{"audit", "replay a log through the crash-consistency auditor", traceAudit},
		{"export", "draw an observation directory (and a log) as Chrome trace-event JSON", traceExport},
	}, args, stdout, stderr)
}

// ---- record --------------------------------------------------------------

type recordOpts struct {
	workload   string
	threads    int
	ops        int
	size       int
	fsyncEvery int
	deviceMB   int64
	image      string
}

func traceRecord(args []string, stdout, stderr io.Writer) int {
	fs := newFlags("trace record", stderr)
	var opts recordOpts
	fs.StringVar(&opts.workload, "workload", "append", "append | create | crash")
	system := fs.String("system", "all", "file system to drive, or \"all\" (the fig7 comparison set)")
	out := fs.String("o", "trace.jsonl", "output JSONL event log (suffixed per system when recording several)")
	chrome := fs.String("chrome", "", "also export Chrome trace-event JSON to this path (same suffix rule)")
	fs.IntVar(&opts.threads, "threads", 2, "simulated threads")
	fs.IntVar(&opts.ops, "ops", 50, "operations per thread")
	fs.IntVar(&opts.size, "size", 4096, "append size in bytes")
	fs.IntVar(&opts.fsyncEvery, "fsync-every", 8, "fsync after every K appends (0 = never)")
	fs.Int64Var(&opts.deviceMB, "device-mb", 256, "device size in MiB")
	fs.StringVar(&opts.image, "image", "", "crash workload only: save the post-crash device image here (feed to zofs-fsck -trace)")
	if !parse(fs, args, 0, 0) {
		return 2
	}
	if opts.image != "" && opts.workload != "crash" {
		return fail(stderr, errors.New("-image is only meaningful with -workload crash"))
	}

	var systems []sysfactory.System
	if opts.workload == "crash" {
		// The crash workload needs dirty-line tracking to revert unflushed
		// stores; it runs on a purpose-built ZoFS stack.
		systems = []sysfactory.System{{Name: "ZoFS"}}
	} else if *system == "all" {
		systems = sysfactory.Comparison
	} else {
		for _, s := range sysfactory.Comparison {
			if strings.EqualFold(s.Name, *system) {
				systems = []sysfactory.System{s}
			}
		}
		if len(systems) == 0 {
			return fail(stderr, fmt.Errorf("unknown system %q (want one of the fig7 set or \"all\")", *system))
		}
	}

	for _, sys := range systems {
		path := suffixed(*out, sys.Name, len(systems) > 1)
		roots, err := recordOne(sys, opts, path)
		if err != nil {
			return fail(stderr, fmt.Errorf("record %s: %w", sys.Name, err))
		}
		fmt.Fprintf(stdout, "== %s -> %s ==\n", sys.Name, path)
		events, opSpans, err := loadLog(path)
		if err != nil {
			return fail(stderr, err)
		}
		pmemtrace.Audit(events, opSpans).WriteText(stdout)
		if *chrome != "" {
			cpath := suffixed(*chrome, sys.Name, len(systems) > 1)
			tl := spans.Timeline{Roots: roots, Events: events}
			if err := create(cpath, stdout, func(w io.Writer) error { return spans.WriteChromeTrace(w, tl) }); err != nil {
				return fail(stderr, fmt.Errorf("export %s: %w", cpath, err))
			}
			fmt.Fprintf(stdout, "chrome trace: %s\n", cpath)
		}
		fmt.Fprintln(stdout)
	}
	return 0
}

// suffixed inserts "-<system>" before the extension when multi is set.
func suffixed(path, system string, multi bool) string {
	if !multi {
		return path
	}
	dot := strings.LastIndex(path, ".")
	if dot <= strings.LastIndex(path, "/") {
		return path + "-" + system
	}
	return path[:dot] + "-" + system + path[dot:]
}

// recordOne runs one workload against one system with a fresh flight
// recorder spilling to path and a fresh span collector, then appends the
// collected root spans to the log as its op spans and returns them.
func recordOne(sys sysfactory.System, opts recordOpts, path string) ([]spans.Root, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()

	prev := spans.Active()
	col := spans.Enable(spans.Config{RingCap: 1 << 20})
	defer spans.Install(prev)
	tr := pmemtrace.Enable(pmemtrace.Config{Spill: f})
	defer pmemtrace.Disable()

	if opts.workload == "crash" {
		err = runCrashWorkload(opts)
	} else {
		err = runWorkload(sys, opts)
	}
	if err != nil {
		return nil, err
	}
	if err := tr.FlushSpill(); err != nil {
		return nil, err
	}
	roots := col.Roots()
	opSpans := make([]pmemtrace.OpSpan, len(roots))
	for i, r := range roots {
		opSpans[i] = pmemtrace.OpSpan{TID: r.TID, Op: r.Op, Start: r.Start, Dur: r.Dur}
	}
	return roots, pmemtrace.WriteSpansJSONL(f, opSpans)
}

func runWorkload(sys sysfactory.System, opts recordOpts) error {
	in, err := sys.New(opts.deviceMB << 20)
	if err != nil {
		return err
	}
	wfs := obsfs.Wrap(in.FS, nil)
	buf := make([]byte, opts.size)
	for i := range buf {
		buf[i] = byte(i)
	}
	for t := 0; t < opts.threads; t++ {
		th := in.Proc.NewThread()
		switch opts.workload {
		case "append":
			// The fig7 DWAL pattern — private-file appends — plus periodic
			// fsync, which is where kernel FSs pay their writeback tax.
			h, err := wfs.Create(th, fmt.Sprintf("/app-%d", t), 0o644)
			if err != nil {
				return err
			}
			for i := 0; i < opts.ops; i++ {
				if _, err := h.Append(th, buf); err != nil {
					return err
				}
				if opts.fsyncEvery > 0 && (i+1)%opts.fsyncEvery == 0 {
					if err := h.Sync(th); err != nil {
						return err
					}
				}
			}
			if err := h.Close(th); err != nil {
				return err
			}
		case "create":
			// The fig7 MWCL pattern — private-directory file creates.
			dir := fmt.Sprintf("/dir-%d", t)
			if err := wfs.Mkdir(th, dir, 0o755); err != nil {
				return err
			}
			for i := 0; i < opts.ops; i++ {
				h, err := wfs.Create(th, fmt.Sprintf("%s/f%d", dir, i), 0o644)
				if err != nil {
					return err
				}
				if err := h.Close(th); err != nil {
					return err
				}
			}
		default:
			return fmt.Errorf("unknown workload %q", opts.workload)
		}
	}
	return nil
}

// runCrashWorkload appends on a persistence-tracked ZoFS stack, injects a
// device crash mid-stream, and records the power failure — the resulting
// log shows every line the crash lost.
func runCrashWorkload(opts recordOpts) error {
	dev := nvm.NewDevice(opts.deviceMB << 20)
	if err := kernfs.Mkfs(dev, kernfs.MkfsOptions{RootMode: 0o755}); err != nil {
		return err
	}
	k, err := kernfs.Mount(dev)
	if err != nil {
		return err
	}
	p := proc.NewProcess(dev, 0, 0)
	th := p.NewThread()
	if err := k.FSMount(th); err != nil {
		return err
	}
	f := zofs.New(k, zofs.Options{})
	if err := f.EnsureRootDir(th); err != nil {
		return err
	}
	var h vfs.Handle
	if h, err = f.Create(th, "/crash-victim", coffer.Mode(0o644)); err != nil {
		return err
	}
	buf := make([]byte, opts.size)
	// Let half the workload land, then fail on a later persisting store.
	for i := 0; i < opts.ops/2; i++ {
		if _, err := h.Append(th, buf); err != nil {
			return err
		}
	}
	dev.FailAfter(int64(opts.ops)/4 + 1)
	func() {
		defer func() {
			if r := recover(); r != nil && !nvm.IsInjectedCrash(r) {
				panic(r)
			}
		}()
		for i := 0; i < opts.ops; i++ {
			if _, err := h.Append(th, buf); err != nil {
				return
			}
		}
	}()
	dev.FailAfter(0)
	dev.Crash()
	if opts.image != "" {
		out, err := os.Create(opts.image)
		if err != nil {
			return err
		}
		defer out.Close()
		if err := dev.SaveImage(out); err != nil {
			return err
		}
	}
	return nil
}

// ---- audit ---------------------------------------------------------------

func traceAudit(args []string, stdout, stderr io.Writer) int {
	fs := newFlags("trace audit", stderr)
	fs.Usage = func() { fmt.Fprintln(stderr, "usage: zofs-obs trace audit [-max-lost N] <trace.jsonl>") }
	maxLost := fs.Int("max-lost", -1, "exit 1 if more than N lost lines are found (-1 = report only)")
	if !parse(fs, args, 1, 1) {
		return 2
	}
	events, opSpans, err := loadLog(fs.Arg(0))
	if err != nil {
		return fail(stderr, err)
	}
	rep := pmemtrace.Audit(events, opSpans)
	rep.WriteText(stdout)
	if *maxLost >= 0 && len(rep.LostLines) > *maxLost {
		return fail(stderr, fmt.Errorf("%d lost lines exceed -max-lost %d", len(rep.LostLines), *maxLost))
	}
	return 0
}

// ---- export --------------------------------------------------------------

func traceExport(args []string, stdout, stderr io.Writer) int {
	fs := newFlags("trace export", stderr)
	fs.Usage = func() {
		fmt.Fprintln(stderr, "usage: zofs-obs trace export -obs DIR [-o chrome.json] [trace.jsonl]")
	}
	out := fs.String("o", "chrome.json", "output Chrome trace-event JSON path")
	dir := fs.String("obs", "", "observation directory to draw (zofs-bench -obs)")
	if !parse(fs, args, 0, 1) {
		return 2
	}
	if *dir == "" {
		fs.Usage()
		return 2
	}
	tl, err := loadTimeline(*dir)
	if err == nil && fs.NArg() == 1 {
		tl.Events, _, err = loadLog(fs.Arg(0))
	}
	if err == nil {
		err = create(*out, stdout, func(w io.Writer) error { return spans.WriteChromeTrace(w, tl) })
	}
	if err != nil {
		return fail(stderr, err)
	}
	fmt.Fprintf(stdout, "wrote %s (%d events, %d causal spans, %d lock waits, %d windows, %d exemplars)\n",
		*out, len(tl.Events), len(tl.Roots), len(tl.Waits), len(tl.Windows), len(tl.Exemplars))
	return 0
}

// loadTimeline reads an observation directory's raw logs: the span roots
// (required) and, when the run collected them, the blocked intervals, the
// series windows and the worst-op exemplars.
func loadTimeline(dir string) (tl spans.Timeline, err error) {
	if tl.Roots, err = readLog[spans.Root](dir, obsfs.SpansLog, false); err != nil {
		return tl, err
	}
	if tl.Waits, err = readLog[lockprof.BlockedInterval](dir, obsfs.WaitsLog, true); err != nil {
		return tl, err
	}
	if tl.Windows, err = readLog[series.Window](dir, obsfs.SeriesLog, true); err != nil {
		return tl, err
	}
	tl.Exemplars, err = readLog[spans.Exemplar](dir, obsfs.ExemplarsLog, true)
	return tl, err
}

func loadLog(path string) ([]pmemtrace.Event, []pmemtrace.OpSpan, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	return pmemtrace.ReadJSONL(f)
}
