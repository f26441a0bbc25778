// Command zofs-e2e is the repository's benchmark (see benchmark/README.md).
//
//	zofs-e2e                                   all five workloads, end-to-end metrics
//	zofs-e2e -workload W -seed N -seconds S    one workload (the form BENCHMARK.json's driver uses)
//	zofs-e2e -workload W -trace 1              that workload's per-layer metrics (ledger + traced run)
//	zofs-e2e -workload W -trace DIR            same, and write the traced run's spans to DIR
//	zofs-e2e -layers                           the workload-independent layer ledger only
//	zofs-e2e -repeat N -out DIR                noise study over N full runs; rewrites benchmark/NOISE.{json,md}
//	zofs-e2e -compare A B                      judge result set B against result set A
//	zofs-e2e -spec                             print BENCHMARK.json as the tables in package e2e define it
//
// A single-workload run prints, as the last line of standard output, one
// JSON object {"correct","attempted","failed","metrics"}.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"text/tabwriter"
	"time"

	"zofs/benchmark/e2e"
)

var (
	workload = flag.String("workload", "", "workload to run (default: all, each in its own child process)")
	seed     = flag.Uint64("seed", 1, "workload seed: the same seed generates the same op streams")
	seconds  = flag.Float64("seconds", e2e.RunSeconds, "timed budget per workload; determinism-check passes repeat until it is spent (at least 3 passes)")
	trace    = flag.String("trace", "0", "0 = end-to-end metrics; 1 = per-layer metrics; a directory = per-layer metrics and spans written there")
	layers   = flag.Bool("layers", false, "print the layer ledger and exit")
	repeat   = flag.Int("repeat", 0, "noise study: run the full benchmark this many times, seeds seed..seed+N-1")
	compare  = flag.Bool("compare", false, "compare two result directories given as arguments")
	out      = flag.String("out", "", "directory to write result files into")
	spec     = flag.Bool("spec", false, "print BENCHMARK.json and exit")
)

// noiseDir is where -repeat writes NOISE.json and NOISE.md, relative to the
// root of the repository, from where run.sh and `go run` start the command.
const noiseDir = "benchmark"

func main() {
	flag.Parse()
	procs, gogc := e2e.Configure()
	var err error
	switch {
	case *spec:
		var blob []byte
		if blob, err = json.MarshalIndent(e2e.Spec(), "", "  "); err == nil {
			fmt.Println(string(blob))
		}
	case *compare:
		err = runCompare(flag.Args())
	case *layers:
		err = runLayers()
	case *repeat > 0 && *workload != "":
		err = fmt.Errorf("-repeat runs all five workloads; it cannot be combined with -workload")
	case *repeat > 0:
		err = runRepeat()
	case *workload == "" && *trace != "0":
		err = fmt.Errorf("-trace needs -workload: a traced run covers one workload")
	case *workload == "":
		fmt.Printf("zofs-e2e: seed %d, GOMAXPROCS=%d GOGC=%d, one child process per workload\n", *seed, procs, gogc)
		err = runAll(*seed, *out)
	case *trace != "0":
		err = runTraced()
	default:
		err = runOne()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "zofs-e2e:", err)
		os.Exit(1)
	}
}

// contractLine is the last line of a single-workload run.
type contractLine struct {
	Correct   bool                     `json:"correct"`
	Attempted int64                    `json:"attempted"`
	Failed    int64                    `json:"failed"`
	Metrics   map[string]contractValue `json:"metrics"`
}

type contractValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// finish prints the contract line; an incorrect run also fails the process.
func finish(r e2e.Result, specs []e2e.MetricSpec) error {
	line := contractLine{Correct: r.Correct, Attempted: r.Attempted, Failed: r.Failed, Metrics: map[string]contractValue{}}
	for _, s := range specs {
		line.Metrics[s.Name] = contractValue{Value: r.Metrics[s.Name], Unit: s.Unit}
	}
	blob, err := json.Marshal(line)
	if err != nil {
		return err
	}
	fmt.Println(string(blob))
	if !r.Correct {
		return fmt.Errorf("%s: %d of %d checks failed %s", r.Workload, r.Failed, r.Attempted, strings.Join(r.Notes, "; "))
	}
	return nil
}

func printMetrics(r e2e.Result, specs []e2e.MetricSpec, bounds bool) {
	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	if bounds {
		fmt.Fprintln(tw, "metric\tvalue\tunit\tbetter\tbound")
	} else {
		fmt.Fprintln(tw, "metric\tvalue\tunit\tbetter")
	}
	for _, s := range specs {
		if bounds {
			fmt.Fprintf(tw, "%s\t%.6g\t%s\t%s\t%.2f%%\n", s.Name, r.Metrics[s.Name], s.Unit, s.Better, 100*s.Bound)
		} else {
			fmt.Fprintf(tw, "%s\t%.6g\t%s\t%s\n", s.Name, r.Metrics[s.Name], s.Unit, s.Better)
		}
	}
	tw.Flush()
}

func runOne() error {
	r, err := e2e.Run(*workload, *seed, time.Duration(*seconds*float64(time.Second)))
	if err != nil {
		return err
	}
	fmt.Printf("%s: seed %d, %d ops/pass × %d passes, stream %s, %s GOMAXPROCS=%d GOGC=%d\n",
		r.Workload, r.Seed, r.Ops, r.Passes, r.StreamHash, r.GoVersion, r.GOMAXPROCS, r.GOGC)
	printMetrics(r, e2e.EndToEnd, true)
	fmt.Printf("%s = %.6g %s (measured every run, not gated: see README)\n", e2e.HostTime.Name, r.Metrics[e2e.HostTime.Name], e2e.HostTime.Unit)
	if *out != "" {
		if err := e2e.WriteResult(*out, r); err != nil {
			return err
		}
	}
	return finish(r, e2e.EndToEnd)
}

func runLayers() error {
	m, err := e2e.Ledger()
	if err != nil {
		return err
	}
	printMetrics(e2e.Result{Metrics: m}, e2e.LedgerSpecs(), false)
	fmt.Println("\nfslibs self cost = fslibs.<op> − zofs.<op>:")
	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "op\thost ns\tvns\tallocs")
	for _, op := range e2e.LedgerOps {
		d := func(suffix string) float64 { return m["fslibs."+op+suffix] - m["zofs."+op+suffix] }
		fmt.Fprintf(tw, "%s\t%.1f\t%.1f\t%.2f\n", op, d(".host_ns"), d(".vns"), d(".allocs"))
	}
	return tw.Flush()
}

func runTraced() error {
	ledger, err := e2e.Ledger()
	if err != nil {
		return err
	}
	spanDir := ""
	if *trace != "1" {
		spanDir = *trace
	}
	t, err := e2e.Traced(*workload, *seed, ledger, spanDir)
	if err != nil {
		return err
	}
	for k, v := range ledger {
		t.Metrics[k] = v
	}
	fmt.Printf("%s traced: seed %d, %d ops/pass, %d passes (tracing off and on alternately)\n", t.Workload, t.Seed, t.Ops, t.Passes)
	printMetrics(t.Result, e2e.PerLayer(), false)
	fmt.Println("\nper-kind means in the traced run, against the ledger's price of the same call at the fslibs boundary:")
	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "kind\tn\tvns/op\thost ns/op\tledger op\tledger vns\tvns residual\tledger host ns")
	for _, k := range t.Kinds {
		if k.LedgerOp == "" {
			fmt.Fprintf(tw, "%s\t%d\t%.1f\t%.1f\t-\t-\t-\t-\n", k.Kind, k.N, k.VNS, k.HostNS)
			continue
		}
		fmt.Fprintf(tw, "%s\t%d\t%.1f\t%.1f\t%s\t%.1f\t%+.2f%%\t%.1f\n", k.Kind, k.N, k.VNS, k.HostNS, k.LedgerOp, k.LedgerVNS, 100*(k.VNS/k.LedgerVNS-1), k.LedgerHostNS)
	}
	tw.Flush()
	if t.Dropped > 0 {
		fmt.Printf("%d spans beyond the in-memory store were timed but not kept\n", t.Dropped)
	}
	return finish(t.Result, e2e.PerLayer())
}

// runAll runs every workload in a child process of its own, so that peak
// RSS and GC state are per workload, and prints the combined table. The
// children hand their results over in a fresh directory, so the table shows
// this run whatever outDir already holds; with outDir set they are then kept
// there.
func runAll(seed uint64, outDir string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	tmp, err := os.MkdirTemp("", "zofs-e2e")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)
	for _, c := range e2e.Catalog {
		t0 := time.Now()
		cmd := exec.Command(self, "-workload", c.Name, "-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(*seconds), "-out", tmp)
		cmd.Stderr = os.Stderr
		stdout, err := cmd.Output()
		lines := strings.Split(strings.TrimSpace(string(stdout)), "\n")
		var line contractLine
		if jerr := json.Unmarshal([]byte(lines[len(lines)-1]), &line); jerr != nil {
			return fmt.Errorf("%s: no result (%v): %s", c.Name, err, stdout)
		}
		fmt.Printf("  %-13s correct=%v attempted=%d failed=%d (%.1fs)\n", c.Name, line.Correct, line.Attempted, line.Failed, time.Since(t0).Seconds())
		if err != nil {
			return fmt.Errorf("%s: %w", c.Name, err)
		}
	}
	rs, err := e2e.LoadResults(tmp)
	if err != nil {
		return err
	}
	if outDir != "" {
		for _, c := range e2e.Catalog {
			if err := e2e.WriteResult(outDir, rs[c.Name][0]); err != nil {
				return err
			}
		}
	}
	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprint(tw, "\nmetric\tunit\tbetter\tbound")
	for _, c := range e2e.Catalog {
		fmt.Fprintf(tw, "\t%s", c.Name)
	}
	fmt.Fprintln(tw)
	row := func(s e2e.MetricSpec, bound string) {
		fmt.Fprintf(tw, "%s\t%s\t%s\t%s", s.Name, s.Unit, s.Better, bound)
		for _, c := range e2e.Catalog {
			fmt.Fprintf(tw, "\t%.6g", rs[c.Name][0].Metrics[s.Name])
		}
		fmt.Fprintln(tw)
	}
	for _, s := range e2e.EndToEnd {
		row(s, fmt.Sprintf("%.2f%%", 100*s.Bound))
	}
	row(e2e.HostTime, "not gated")
	return tw.Flush()
}

func runRepeat() error {
	if *repeat < 10 {
		return fmt.Errorf("-repeat needs at least 10 runs, got %d", *repeat)
	}
	dir := *out
	if dir == "" {
		var err error
		if dir, err = os.MkdirTemp("", "zofs-e2e-noise"); err != nil {
			return err
		}
		defer os.RemoveAll(dir)
	}
	for i := 0; i < *repeat; i++ {
		fmt.Printf("run %d/%d, seed %d\n", i+1, *repeat, *seed+uint64(i))
		if err := runAll(*seed+uint64(i), filepath.Join(dir, fmt.Sprintf("run%02d", i))); err != nil {
			return err
		}
	}
	rs, err := e2e.LoadResults(dir)
	if err != nil {
		return err
	}
	n := e2e.NoiseStudy(rs, fmt.Sprintf("%d..%d", *seed, *seed+uint64(*repeat)-1))
	blob, err := json.MarshalIndent(n, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(noiseDir, "NOISE.json"), append(blob, '\n'), 0o644); err != nil {
		return err
	}
	md, err := os.Create(filepath.Join(noiseDir, "NOISE.md"))
	if err != nil {
		return err
	}
	n.WriteMarkdown(md)
	if err := md.Close(); err != nil {
		return err
	}
	n.WriteMarkdown(os.Stdout)
	return nil
}

func runCompare(args []string) error {
	if len(args) != 2 {
		return fmt.Errorf("-compare needs two result directories")
	}
	a, err := e2e.LoadResults(args[0])
	if err != nil {
		return err
	}
	b, err := e2e.LoadResults(args[1])
	if err != nil {
		return err
	}
	rows := e2e.Compare(a, b)
	counts := map[string]int{}
	for _, r := range rows {
		counts[r.Verdict]++
	}
	regressed := e2e.WriteCompare(os.Stdout, rows)
	var keys []string
	for k := range counts {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Printf("%s: %d  ", k, counts[k])
	}
	fmt.Println()
	if regressed > 0 {
		return fmt.Errorf("%d metric × workload pairs regressed", regressed)
	}
	return nil
}
