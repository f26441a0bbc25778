// Package harness drives every experiment of the paper's evaluation (§6)
// and prints the corresponding table or figure series. Each Run* function
// regenerates one artifact; Experiments is the one list of them, which
// cmd/zofs-bench exposes on the command line, bench_test.go wraps as Go
// benchmarks and the package's test runs entry by entry. Experiments
// measure: what a collector must not disturb is asserted by the tests, and
// an observed run (obsfs.Start) is recorded by the session, cell by cell.
package harness

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"text/tabwriter"

	"zofs/internal/nvm"
	"zofs/internal/perfmodel"
	"zofs/internal/simclock"
	"zofs/internal/sysfactory"
	"zofs/internal/trace"
)

// Options controls experiment scale.
type Options struct {
	// Quick trades precision for speed (CI-sized runs).
	Quick bool
	// DeviceBytes sizes the simulated NVM device.
	DeviceBytes int64
	// Threads overrides the thread sweep of the figure experiments.
	Threads []int
	// TargetNS is the virtual measurement window per thread.
	TargetNS int64
}

// Experiment is one entry of the evaluation: an artifact of the paper, or
// one of the repository's own campaigns.
type Experiment struct {
	Name string
	Desc string
	Run  func(io.Writer, Options) error
}

// Experiments lists every experiment, in the order "all" runs them.
var Experiments = []Experiment{
	{"table1", "DRAM vs Optane latency/bandwidth", RunTable1},
	{"table2", "shared append/create latency (Strata/NOVA/ZoFS)", RunTable2},
	{"table3", "application permission survey", RunTable3},
	{"table4", "FSL-Homes grouping analysis", RunTable4},
	{"fig7", "FxMark sweep over all file systems", RunFig7},
	{"fig8", "DWOL throughput breakdown", RunFig8},
	{"fig9", "Filebench sweep", RunFig9},
	{"fig10", "Filebench customized configs", RunFig10},
	{"table7", "LevelDB db_bench latencies", RunTable7},
	{"fig11", "TPC-C SQLite throughput", RunFig11},
	{"table9", "worst-case chmod/rename", RunTable9},
	{"safety", "stray-write and malicious-metadata tests", RunSafety},
	{"recovery", "coffer recovery timing", RunRecovery},
	{"crashmc", "crash-state model checker and fault injection", RunCrashMC},
	{"wa", "write amplification per system and workload, byte conservation checked per cell", RunWA},
	{"fxmark-scale", "FxMark scalability matrix with per-lock contention attribution", RunFxmarkScale},
	{"chaos", "adversarial campaign: byzantine clients, lease steal, quarantine containment", RunChaos},
}

func (o *Options) fill() {
	if o.DeviceBytes <= 0 {
		o.DeviceBytes = 8 << 30
	}
	if len(o.Threads) == 0 {
		if o.Quick {
			o.Threads = []int{1, 2, 4, 8}
		} else {
			o.Threads = []int{1, 2, 4, 8, 12, 16, 20}
		}
	}
	if o.TargetNS <= 0 {
		if o.Quick {
			o.TargetNS = 2_000_000
		} else {
			o.TargetNS = 10_000_000
		}
	}
}

func tw(w io.Writer) *tabwriter.Writer {
	return tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
}

// writeBench records an experiment's result document in the working
// directory, under the committed artifact's name — indented JSON with a
// trailing newline — and says so.
func writeBench(w io.Writer, name string, v any) error {
	blob, err := json.MarshalIndent(v, "", "  ")
	if err == nil {
		err = os.WriteFile(name, append(blob, '\n'), 0o644)
	}
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "wrote", name)
	return nil
}

// RunTable1 prints the DRAM vs Optane characteristics (paper Table 1):
// the model parameters plus latencies measured against the simulated
// device.
func RunTable1(w io.Writer, _ Options) error {
	dev := nvm.New(nvm.Config{Size: 1 << 20})
	measure := func(write bool) int64 {
		clk := simclock.NewClock()
		buf := make([]byte, 64)
		if write {
			dev.WriteNT(clk, 0, buf)
		} else {
			dev.Read(clk, 0, buf)
		}
		return clk.Now()
	}
	t := tw(w)
	fmt.Fprintln(w, "Table 1: DRAM and Optane DC PM latency and bandwidth (model vs measured)")
	fmt.Fprintln(t, "Memory\tOperation\tBandwidth\tLatency (model)\tLatency (measured 64B)")
	fmt.Fprintf(t, "DRAM\tread\t%.0f GB/s\t%d ns\t-\n", perfmodel.DRAMReadBandwidth/1e9, int(perfmodel.DRAMReadLatency))
	fmt.Fprintf(t, "DRAM\twrite\t%.0f GB/s\t%d ns\t-\n", perfmodel.DRAMWriteBand/1e9, int(perfmodel.DRAMWriteLatency))
	fmt.Fprintf(t, "Optane DC PM\tread\t%.0f GB/s\t%d ns\t%d ns\n", perfmodel.NVMReadBandwidth/1e9, int(perfmodel.NVMReadLatency), measure(false))
	fmt.Fprintf(t, "Optane DC PM\twrite\t%.0f GB/s\t%d ns\t%d ns\n", perfmodel.NVMWriteBandwidth/1e9, int(perfmodel.NVMWriteLatency), measure(true))
	return t.Flush()
}

// RunTable3 prints the application permission survey (paper Table 3) over
// synthesized MySQL/PostgreSQL/DokuWiki trees.
func RunTable3(w io.Writer, _ Options) error {
	fmt.Fprintln(w, "Table 3: File permissions in databases and web servers (synthesized trees)")
	t := tw(w)
	fmt.Fprintln(t, "System\tType\tPerm.\tUid/Gid\t# Files\tSize")
	for _, app := range trace.GenerateAppTrees(2026) {
		for _, r := range trace.Survey(app) {
			fmt.Fprintf(t, "%s\t%s\t%o\t%d/%d\t%d\t%s\n",
				r.System, r.Type, r.Perm, r.UID, r.UID, r.Files, human(r.Bytes))
		}
	}
	if err := t.Flush(); err != nil {
		return err
	}
	fmt.Fprintln(w, "\nMobiGen traces (§2.3): permission-change frequency")
	t2 := tw(w)
	fmt.Fprintln(t2, "Trace\t# Syscalls\tchmod\tchown")
	for _, s := range trace.MobiGen() {
		fmt.Fprintf(t2, "%s\t%d\t%d\t%d\n", s.Trace, s.Syscalls, s.Chmods, s.Chowns)
	}
	return t2.Flush()
}

// RunTable4 prints the FSL-Homes grouping analysis (paper Table 4) over a
// synthesized snapshot matched to the published marginals.
func RunTable4(w io.Writer, opts Options) error {
	opts.fill()
	scale := 1.0
	if opts.Quick {
		scale = 0.1
	}
	root := trace.GenerateFSLHomes(scale, 10)
	reg, sym, dir, bytes := trace.Count(root)
	fmt.Fprintf(w, "Table 4: FSL Homes snapshot (synthesized at scale %.2f): %d regular, %d symlink, %d directory, %s total\n",
		scale, reg, sym, dir, human(bytes))
	groups := trace.GroupByPermission(root)
	fmt.Fprintf(w, "Top-down permission grouping: %d groups for %d files\n", len(groups), reg+sym+dir)
	t := tw(w)
	fmt.Fprintln(t, "Perm\t# Groups\t# Files\tMin Size\tAvg Size\tMax Size")
	for _, st := range trace.Summarize(groups) {
		fmt.Fprintf(t, "%o\t%d\t%d\t%s\t%s\t%s\n",
			st.Perm, st.Groups, st.Files, human(st.MinSize), human(st.AvgSize), human(st.MaxSize))
	}
	return t.Flush()
}

// human formats a byte count like the paper's tables.
func human(b int64) string {
	switch {
	case b >= 1<<30:
		return fmt.Sprintf("%.1fGB", float64(b)/(1<<30))
	case b >= 1<<20:
		return fmt.Sprintf("%.1fMB", float64(b)/(1<<20))
	case b >= 1<<10:
		return fmt.Sprintf("%.1fKB", float64(b)/(1<<10))
	default:
		return fmt.Sprintf("%dB", b)
	}
}

// comparisonSystems returns the Figure 7/9 system set.
func comparisonSystems() []sysfactory.System { return sysfactory.Comparison }
