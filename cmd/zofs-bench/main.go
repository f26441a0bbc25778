// Command zofs-bench regenerates the paper's evaluation artifacts: every
// table and figure of §6 plus the motivating surveys of §2.
//
// Usage:
//
//	zofs-bench [-quick] [-stats] [-threads 1,2,4,8,12,16,20] [experiment ...]
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
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"zofs/internal/harness"
	"zofs/internal/lockprof"
	"zofs/internal/openmetrics"
	"zofs/internal/pmemtrace"
	"zofs/internal/series"
	"zofs/internal/spans"
)

var experiments = []struct {
	name string
	desc string
	run  func(io.Writer, harness.Options) error
}{
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

func main() {
	quick := flag.Bool("quick", false, "smaller, faster runs")
	threads := flag.String("threads", "", "comma-separated thread sweep (default 1,2,4,8,12,16,20)")
	devGB := flag.Int64("device-gb", 8, "simulated device size in GiB")
	stats := flag.Bool("stats", false, "per-layer telemetry: print counter/latency tables per cell and write metrics sidecar JSON")
	scaleGate := flag.Bool("scale-gate", false, "fxmark-scale only: widen the sweep to 64 and 512 threads and fail if ZoFS MWCL/MWRL peak before 64T or any of DWAL/MWCL/MWRL holds <50% of peak at 512T")
	statsDir := flag.String("statsdir", "results", "directory for metrics-<experiment>-<config>.json sidecars")
	traceFile := flag.String("trace", "", "record every NVM persistence event to this JSONL file (audit/export with zofs-trace; best with -quick and a single experiment)")
	spansDir := flag.String("spans", "", "collect causal spans for the whole run and write spans.jsonl, spans.json and spans.prom into this directory (watch live with zofs-top)")
	seriesDir := flag.String("series", "", "collect virtual-time windowed series for the whole run and write series.jsonl, series.prom and exemplars.jsonl into this directory (timeline in zofs-top, deltas with zofs-perfdiff)")
	lockDir := flag.String("lockprof", "", "profile named-lock contention for the whole run and write locks.json, locks.prom and waits.jsonl into this directory (inspect with zofs-locks)")
	cpuProfile := flag.String("cpuprofile", "", "write a pprof CPU profile of the run to this file")
	memProfile := flag.String("memprofile", "", "write a pprof heap profile at exit to this file")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: zofs-bench [flags] [experiment ...]\n\nexperiments:\n")
		pad := len("all")
		for _, e := range experiments {
			pad = max(pad, len(e.name))
		}
		for _, e := range experiments {
			fmt.Fprintf(os.Stderr, "  %-*s %s\n", pad, e.name, e.desc)
		}
		fmt.Fprintf(os.Stderr, "  %-*s everything above (default)\n", pad, "all")
		flag.PrintDefaults()
	}
	flag.Parse()

	opts := harness.Options{Quick: *quick, DeviceBytes: *devGB << 30, Stats: *stats, StatsDir: *statsDir, ScaleGate: *scaleGate}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "zofs-bench: -cpuprofile: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "zofs-bench: -cpuprofile: %v\n", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		f, err := os.Create(*memProfile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "zofs-bench: -memprofile: %v\n", err)
			os.Exit(1)
		}
		defer func() {
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "zofs-bench: -memprofile: %v\n", err)
			}
			f.Close()
		}()
	}

	if *spansDir != "" {
		if err := os.MkdirAll(*spansDir, 0o755); err != nil {
			fmt.Fprintf(os.Stderr, "zofs-bench: -spans: %v\n", err)
			os.Exit(1)
		}
		jf, err := os.Create(filepath.Join(*spansDir, "spans.jsonl"))
		if err != nil {
			fmt.Fprintf(os.Stderr, "zofs-bench: -spans: %v\n", err)
			os.Exit(1)
		}
		defer jf.Close()
		cfg := spans.Config{JSONL: jf}
		if *seriesDir != "" {
			// The series feed pushes adaptive exemplar thresholds; give the
			// shared collector worst-K rings so they have somewhere to land.
			cfg.ExemplarK = spans.DefaultExemplarK
		}
		col := spans.Enable(cfg)
		stop := openmetrics.PublishEvery(500*time.Millisecond, func() error { return spans.Publish(col, *spansDir) })
		defer func() {
			stop()
			spans.Disable()
			if err := col.FlushSink(); err != nil {
				fmt.Fprintf(os.Stderr, "zofs-bench: -spans sink: %v\n", err)
				os.Exit(1)
			}
			if err := spans.Publish(col, *spansDir); err != nil {
				fmt.Fprintf(os.Stderr, "zofs-bench: -spans: %v\n", err)
				os.Exit(1)
			}
			fmt.Printf("==== span attribution (%d spans -> %s) ====\n", col.Finished(), *spansDir)
			col.Snapshot().WriteText(os.Stdout)
		}()
	}

	if *seriesDir != "" {
		if err := os.MkdirAll(*seriesDir, 0o755); err != nil {
			fmt.Fprintf(os.Stderr, "zofs-bench: -series: %v\n", err)
			os.Exit(1)
		}
		// The series feed sharpens exemplar capture with adaptive thresholds,
		// so make sure a span collector with exemplar rings is live — unless
		// -spans already enabled one, in which case exemplars ride its sink.
		if spans.Active() == nil {
			spans.Enable(spans.Config{RingCap: -1, ExemplarK: spans.DefaultExemplarK})
			defer spans.Disable()
		}
		sc := series.Enable(series.Config{})
		dir := *seriesDir
		stop := openmetrics.PublishEvery(500*time.Millisecond, func() error { return series.Publish(sc, dir) })
		defer func() {
			stop()
			series.Disable()
			if err := series.Publish(sc, dir); err != nil {
				fmt.Fprintf(os.Stderr, "zofs-bench: -series: %v\n", err)
				os.Exit(1)
			}
			if col := spans.Active(); col != nil {
				ef, err := os.Create(filepath.Join(dir, "exemplars.jsonl"))
				if err == nil {
					err = col.WriteExemplarsJSONL(ef)
					if cerr := ef.Close(); err == nil {
						err = cerr
					}
				}
				if err != nil {
					fmt.Fprintf(os.Stderr, "zofs-bench: -series exemplars: %v\n", err)
					os.Exit(1)
				}
			}
			fmt.Printf("==== tail series (%d observations, %d windows -> %s) ====\n",
				sc.Total(), len(sc.Windows()), dir)
		}()
	}

	if *lockDir != "" {
		if err := os.MkdirAll(*lockDir, 0o755); err != nil {
			fmt.Fprintf(os.Stderr, "zofs-bench: -lockprof: %v\n", err)
			os.Exit(1)
		}
		reg := lockprof.Enable(lockprof.Config{})
		// The span snapshot (and zofs-top, which renders it) carries the
		// contention panel whenever both layers are on.
		spans.OnLockReport(func() *lockprof.Report {
			rep := reg.Snapshot()
			return &rep
		})
		stop := openmetrics.PublishEvery(500*time.Millisecond, func() error { return lockprof.Publish(reg, *lockDir) })
		defer func() {
			stop()
			lockprof.Disable()
			spans.OnLockReport(nil)
			if err := lockprof.Publish(reg, *lockDir); err != nil {
				fmt.Fprintf(os.Stderr, "zofs-bench: -lockprof: %v\n", err)
				os.Exit(1)
			}
			rep := reg.Snapshot()
			fmt.Printf("==== lock contention (%d acquires -> %s) ====\n", rep.Acquires, *lockDir)
			rep.WriteText(os.Stdout)
		}()
	}

	var tracer *pmemtrace.Recorder
	if *traceFile != "" {
		f, err := os.Create(*traceFile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "zofs-bench: -trace: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		tracer = pmemtrace.Enable(pmemtrace.Config{RingCap: 1 << 20, Spill: f})
		defer func() {
			pmemtrace.Disable()
			if err := tracer.FlushSpill(); err != nil {
				fmt.Fprintf(os.Stderr, "zofs-bench: -trace spill: %v\n", err)
				os.Exit(1)
			}
			fmt.Printf("==== persistence audit (%d events -> %s) ====\n", tracer.Total(), *traceFile)
			pmemtrace.Audit(tracer.Events(), nil).WriteText(os.Stdout)
		}()
	}
	if *threads != "" {
		for _, part := range strings.Split(*threads, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(part))
			if err != nil || n < 1 {
				fmt.Fprintf(os.Stderr, "zofs-bench: bad -threads %q\n", *threads)
				os.Exit(2)
			}
			opts.Threads = append(opts.Threads, n)
		}
	}

	want := flag.Args()
	if len(want) == 0 || (len(want) == 1 && want[0] == "all") {
		want = nil
		for _, e := range experiments {
			want = append(want, e.name)
		}
	}
	known := map[string]func(io.Writer, harness.Options) error{}
	for _, e := range experiments {
		known[e.name] = e.run
	}
	for _, name := range want {
		run, ok := known[name]
		if !ok {
			fmt.Fprintf(os.Stderr, "zofs-bench: unknown experiment %q\n", name)
			os.Exit(2)
		}
		fmt.Printf("==== %s ====\n", name)
		start := time.Now()
		if err := run(os.Stdout, opts); err != nil {
			fmt.Fprintf(os.Stderr, "zofs-bench: %s: %v\n", name, err)
			os.Exit(1)
		}
		fmt.Printf("---- %s done in %v ----\n\n", name, time.Since(start).Round(time.Millisecond))
	}
}
