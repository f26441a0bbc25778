// Command zofs-bench regenerates the paper's evaluation artifacts: every
// table and figure of §6 plus the motivating surveys of §2.
//
// Usage:
//
//	zofs-bench [-quick] [-stats] [-obs dir] [-threads 1,2,4,8,12,16,20] [experiment ...]
//
// Experiments: table1 table2 table3 table4 fig7 fig8 fig9 fig10 table7
// fig11 table9 safety recovery crashmc spans series wa fxmark-scale chaos —
// or "all" (the default).
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
	"zofs/internal/pmemtrace"
)

type experiment struct {
	name string
	desc string
	run  func(io.Writer, harness.Options) error
}

var experiments = []experiment{
	{"table1", "DRAM vs Optane latency/bandwidth", harness.RunTable1},
	{"table2", "shared append/create latency (Strata/NOVA/ZoFS)", harness.RunTable2},
	{"table3", "application permission survey", harness.RunTable3},
	{"table4", "FSL-Homes grouping analysis", harness.RunTable4},
	{"fig7", "FxMark sweep over all file systems", harness.RunFig7},
	{"fig8", "DWOL throughput breakdown", harness.RunFig8},
	{"fig9", "Filebench sweep", harness.RunFig9},
	{"fig10", "Filebench customized configs", harness.RunFig10},
	{"table7", "LevelDB db_bench latencies", harness.RunTable7},
	{"fig11", "TPC-C SQLite throughput", harness.RunFig11},
	{"table9", "worst-case chmod/rename", harness.RunTable9},
	{"safety", "stray-write and malicious-metadata tests", harness.RunSafety},
	{"recovery", "coffer recovery timing", harness.RunRecovery},
	{"crashmc", "crash-state model checker and fault injection", harness.RunCrashMC},
	{"spans", "causal-span overhead/attribution/OpenMetrics gate", harness.RunSpans},
	{"series", "tail observatory gate: merge-exact windows, exemplars, SLO burn", harness.RunSeries},
	{"wa", "write-amplification and byte-conservation gate", harness.RunWA},
	{"fxmark-scale", "FxMark scalability matrix with per-lock contention attribution", harness.RunFxmarkScale},
	{"chaos", "adversarial campaign: byzantine clients, lease steal, quarantine containment", harness.RunChaos},
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is main without the exit: 0 when every experiment passed, 1 when one
// failed or an output could not be written, 2 on a usage error. Teardown is
// deferred and reports through the status, so a failing experiment still
// leaves its observation directory, event log and profiles complete.
func run(args []string, stdout, stderr io.Writer) (status int) {
	fl := flag.NewFlagSet("zofs-bench", flag.ContinueOnError)
	fl.SetOutput(stderr)
	quick := fl.Bool("quick", false, "smaller, faster runs")
	threads := fl.String("threads", "", "comma-separated thread sweep (default 1,2,4,8,12,16,20)")
	devGB := fl.Int64("device-gb", 8, "simulated device size in GiB")
	stats := fl.Bool("stats", false, "per-layer telemetry: print counter/latency tables per cell and write metrics sidecar JSON")
	scaleGate := fl.Bool("scale-gate", false, "fxmark-scale only: widen the sweep to 64 and 512 threads and fail if ZoFS MWCL/MWRL peak before 64T or any of DWAL/MWCL/MWRL holds <50% of peak at 512T")
	statsDir := fl.String("statsdir", "results", "directory for metrics-<experiment>-<config>.json sidecars")
	traceFile := fl.String("trace", "", "record every NVM persistence event to this JSONL file (audit with zofs-obs trace audit; best with -quick and a single experiment)")
	obsDir := fl.String("obs", "", "observe the whole run — causal spans, windowed series, lock profile — and publish obs.json, obs.prom and the event logs into this directory (watch live with zofs-obs top)")
	cpuProfile := fl.String("cpuprofile", "", "write a pprof CPU profile of the run to this file")
	memProfile := fl.String("memprofile", "", "write a pprof heap profile at exit to this file")
	fl.Usage = func() {
		fmt.Fprintf(stderr, "usage: zofs-bench [flags] [experiment ...]\n\nexperiments:\n")
		pad := len("all")
		for _, e := range experiments {
			pad = max(pad, len(e.name))
		}
		for _, e := range experiments {
			fmt.Fprintf(stderr, "  %-*s %s\n", pad, e.name, e.desc)
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

	opts := harness.Options{Quick: *quick, DeviceBytes: *devGB << 30, Stats: *stats, StatsDir: *statsDir, ScaleGate: *scaleGate}
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
	want := experiments
	if names := fl.Args(); len(names) > 0 && !(len(names) == 1 && names[0] == "all") {
		want = nil
		for _, name := range names {
			i := slices.IndexFunc(experiments, func(e experiment) bool { return e.name == name })
			if i < 0 {
				fmt.Fprintf(stderr, "zofs-bench: unknown experiment %q\n", name)
				return 2
			}
			want = append(want, experiments[i])
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

	if *obsDir != "" {
		sess, err := obsfs.Start(*obsDir)
		if err != nil {
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

	if *traceFile != "" {
		f, err := os.Create(*traceFile)
		if err != nil {
			fail("-trace", err)
			return
		}
		tracer := pmemtrace.Enable(pmemtrace.Config{RingCap: 1 << 20, Spill: f})
		defer func() {
			pmemtrace.Disable()
			err := tracer.FlushSpill()
			if cerr := f.Close(); err == nil {
				err = cerr
			}
			if err != nil {
				fail("-trace", err)
			}
			fmt.Fprintf(stdout, "==== persistence audit (%d events -> %s) ====\n", tracer.Total(), *traceFile)
			pmemtrace.Audit(tracer.Events(), nil).WriteText(stdout)
		}()
	}

	for _, e := range want {
		fmt.Fprintf(stdout, "==== %s ====\n", e.name)
		start := time.Now()
		if err := e.run(stdout, opts); err != nil {
			fail(e.name, err)
			return
		}
		fmt.Fprintf(stdout, "---- %s done in %v ----\n\n", e.name, time.Since(start).Round(time.Millisecond))
	}
	return
}
