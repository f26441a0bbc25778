// Command zofs-bench regenerates the paper's evaluation artifacts: every
// table and figure of §6 plus the motivating surveys of §2.
//
// Usage:
//
//	zofs-bench [-quick] [-obs dir] [-threads 1,2,4,8,12,16,20] [experiment ...]
//
// Experiments: the names of harness.Experiments (zofs-bench -h lists them),
// or "all" (the default). The paper cells the experiments return are scored
// into BENCH_fidelity.json in the working directory (harness.WriteFidelity),
// which the run reports on standard error; the committed file is the one
// "zofs-bench table2 fig8 fig11 table9 recovery" writes.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"slices"
	"strconv"
	"strings"
	"time"

	"zofs/internal/harness"
	"zofs/internal/obsfs"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is main without the exit: 0 when every experiment passed, 1 when one
// failed or an output could not be written, 2 on a usage error. Teardown is
// deferred and reports through the status, so a failing experiment still
// leaves its observation directory and profiles complete.
func run(args []string, stdout, stderr io.Writer) (status int) {
	fl := flag.NewFlagSet("zofs-bench", flag.ContinueOnError)
	fl.SetOutput(stderr)
	quick := fl.Bool("quick", false, "smaller, faster runs")
	threads := fl.String("threads", "", "comma-separated thread sweep (default 1,2,4,8,12,16,20)")
	devGB := fl.Int64("device-gb", 8, "simulated device size in GiB")
	obsDir := fl.String("obs", "", "observe the whole run — telemetry, causal spans, the event log (device events, MPK faults, lock waits), windowed series, lock profile: print each benchmark cell's counter, latency and span tables, and publish obs.json, the cell log and the span and event record logs into this directory (watch live with zofs-obs top, audit with zofs-obs trace audit)")
	cpuProfile := fl.String("cpuprofile", "", "write a pprof CPU profile of the run to this file")
	memProfile := fl.String("memprofile", "", "write a pprof heap profile at exit to this file")
	fl.Usage = func() {
		fmt.Fprintf(stderr, "usage: zofs-bench [flags] [experiment ...]\n\nexperiments:\n")
		pad := len("all")
		for _, e := range harness.Experiments {
			pad = max(pad, len(e.Name))
		}
		for _, e := range harness.Experiments {
			fmt.Fprintf(stderr, "  %-*s %s\n", pad, e.Name, e.Desc)
		}
		fmt.Fprintf(stderr, "  %-*s everything above (default)\n", pad, "all")
		fl.PrintDefaults()
	}
	if err := fl.Parse(args); err != nil {
		return 2
	}
	// fail reports an error that does not stop the run (teardown included).
	fail := func(what string, err error) {
		fmt.Fprintf(stderr, "zofs-bench: %s: %v\n", what, err)
		status = 1
	}

	opts := harness.Options{Quick: *quick, DeviceBytes: *devGB << 30}
	if *threads != "" {
		for _, part := range strings.Split(*threads, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(part))
			if err != nil || n < 1 {
				fmt.Fprintf(stderr, "zofs-bench: bad -threads %q\n", *threads)
				return 2
			}
			opts.Threads = append(opts.Threads, n)
		}
	}
	want := harness.Experiments
	if names := fl.Args(); len(names) > 0 && !(len(names) == 1 && names[0] == "all") {
		want = nil
		for _, name := range names {
			i := slices.IndexFunc(harness.Experiments, func(e harness.Experiment) bool { return e.Name == name })
			if i < 0 {
				fmt.Fprintf(stderr, "zofs-bench: unknown experiment %q\n", name)
				return 2
			}
			want = append(want, harness.Experiments[i])
		}
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err == nil {
			if err = pprof.StartCPUProfile(f); err != nil {
				f.Close()
			}
		}
		if err != nil {
			fail("-cpuprofile", err)
			return
		}
		defer func() {
			pprof.StopCPUProfile()
			if err := f.Close(); err != nil {
				fail("-cpuprofile", err)
			}
		}()
	}
	if *memProfile != "" {
		f, err := os.Create(*memProfile)
		if err != nil {
			fail("-memprofile", err)
			return
		}
		defer func() {
			runtime.GC()
			err := pprof.WriteHeapProfile(f)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
			if err != nil {
				fail("-memprofile", err)
			}
		}()
	}

	var sess *obsfs.Session
	if *obsDir != "" {
		var err error
		if sess, err = obsfs.Start(*obsDir); err != nil {
			fail("-obs", err)
			return
		}
		defer func() {
			doc, err := sess.Stop()
			if err != nil {
				fail("-obs", err)
			}
			fmt.Fprintf(stdout, "==== observation -> %s ====\n", *obsDir)
			if err := doc.WriteText(stdout); err != nil {
				fail("-obs", err)
			}
		}()
	}

	var cells []harness.Cell
	for _, e := range want {
		fmt.Fprintf(stdout, "==== %s ====\n", e.Name)
		start := time.Now()
		c, err := e.Run(stdout, opts)
		if werr := sess.WriteCells(stdout); err == nil {
			err = werr
		}
		if err != nil {
			fail(e.Name, err)
			return
		}
		cells = append(cells, c...)
		fmt.Fprintf(stdout, "---- %s done in %v ----\n\n", e.Name, time.Since(start).Round(time.Millisecond))
	}
	if len(cells) > 0 {
		if err := harness.WriteFidelity(stderr, cells); err != nil {
			fail("fidelity", err)
		}
	}
	return
}
