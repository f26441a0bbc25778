package harness

import (
	"bytes"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"zofs/internal/filebench"
	"zofs/internal/fxmark"
	"zofs/internal/obsfs"
	"zofs/internal/perfmodel"
	"zofs/internal/spans"
	"zofs/internal/sysfactory"
)

// observed runs one experiment at tiny size inside an observation session
// and returns what it printed followed by the session's rendering of its
// cells, and the cell log the session left in its directory.
func observed(t *testing.T, run func(io.Writer, Options) ([]Cell, error)) (string, []obsfs.Cell) {
	t.Helper()
	dir := t.TempDir()
	sess, err := obsfs.Start(dir)
	if err != nil {
		t.Fatal(err)
	}
	var b bytes.Buffer
	_, err = run(&b, Options{Quick: true, TargetNS: 1_000_000})
	if err == nil {
		err = sess.WriteCells(&b)
	}
	if _, serr := sess.Stop(); err == nil {
		err = serr
	}
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(filepath.Join(dir, obsfs.CellsLog))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	cells, err := obsfs.ReadJSONL[obsfs.Cell](f)
	if err != nil {
		t.Fatalf("%s: %v", obsfs.CellsLog, err)
	}
	if matches, _ := filepath.Glob(filepath.Join(dir, "*.tmp")); len(matches) != 0 {
		t.Errorf("temp files left behind: %v", matches)
	}
	return b.String(), cells
}

// TestStatsFig8 runs the FxMark DWOL breakdown under observation and checks
// the per-cell tables and the cell log carry real per-layer data.
func TestStatsFig8(t *testing.T) {
	out, cells := observed(t, RunFig8)
	for _, w := range []string{"[stats ZoFS/DWOL/1]", "bytes_written", "[spans ZoFS/DWOL/1]", "p99"} {
		if !strings.Contains(out, w) {
			t.Fatalf("observed output missing %q:\n%s", w, out)
		}
	}
	// ZoFS cells must show protection switching; kernel cells syscalls.
	if !strings.Contains(out, "pkru_switches") {
		t.Fatalf("observed output missing PKRU switch counts:\n%s", out)
	}

	if len(cells) != 9 {
		t.Fatalf("fig8 cut %d cells, want one per system (9)", len(cells))
	}
	var zofsCell bool
	for _, c := range cells {
		if !strings.HasPrefix(c.Label, "ZoFS/") {
			continue
		}
		zofsCell = true
		if c.Metrics.Counters["nvm.bytes_written"] == 0 {
			t.Errorf("%s: no NVM bytes written", c.Label)
		}
		if c.Metrics.Counters["mpk.pkru_switches"] == 0 {
			t.Errorf("%s: no PKRU switches", c.Label)
		}
		if w, ok := c.Spans.Ops["write"]; !ok || w.Count == 0 || w.P99NS == 0 || w.P50NS > w.P99NS {
			t.Errorf("%s: bad write latency summary %+v", c.Label, w)
		}
	}
	if !zofsCell {
		t.Fatal("no ZoFS cell in the cell log")
	}
}

// TestStatsFig10 checks the Filebench cells of Figures 9 and 10 produce the
// same telemetry, over trees small enough to build in milliseconds.
func TestStatsFig10(t *testing.T) {
	out, cells := observed(t, unscored(func(_ io.Writer, opts Options) error {
		opts.fill()
		for _, p := range []filebench.Personality{filebench.Fileserver, filebench.Varmail} {
			cfg := filebench.Default(p)
			cfg.Files = 100
			if _, err := observedCell(sysfactory.ZoFS, string(p), 1, opts.DeviceBytes, filebenchKops(cfg, 1, opts.TargetNS)); err != nil {
				return err
			}
		}
		return nil
	}))
	if !strings.Contains(out, "[stats ZoFS/fileserver/1]") {
		t.Fatalf("observed output missing fileserver cell:\n%s", out)
	}
	if len(cells) != 2 || cells[1].Label != "ZoFS/varmail/1" {
		t.Fatalf("two Filebench cells cut %d: %+v", len(cells), cells)
	}
	if cells[1].Metrics.Counters["kernfs.syscalls"] == 0 {
		t.Errorf("%s: no kernfs syscalls recorded", cells[1].Label)
	}
}

// TestStatsRecovery checks the recovery cell carries the experiment's own
// scalars beside the collectors' interval.
func TestStatsRecovery(t *testing.T) {
	out, cells := observed(t, RunRecovery)
	if len(cells) != 1 || !strings.HasPrefix(cells[0].Label, "recovery/") {
		t.Fatalf("recovery cut %d cells: %+v", len(cells), cells)
	}
	c := cells[0]
	if c.Extra["recover_total_ns"] == 0 || c.Extra["recover_total_ns"] != c.Extra["recover_user_ns"]+c.Extra["recover_kernel_ns"] {
		t.Errorf("recovery extras: %v", c.Extra)
	}
	if c.Metrics.Counters["kernfs.recoveries"] != 1 || !strings.Contains(out, "recover_kernel_ns") {
		t.Errorf("recoveries counted %d; printed:\n%s", c.Metrics.Counters["kernfs.recoveries"], out)
	}
}

// TestStatsApps checks Table 7 and Figure 11 observe their cells the way
// the FxMark and Filebench figures do: one record per cell of the printed
// table, each labelled once and carrying the application's file-system ops.
// They run on ZoFS alone: every observed op is encoded into the session's
// span log, which makes all four systems' tables cost seconds (minutes
// under the race detector).
func TestStatsApps(t *testing.T) {
	defer func(all []sysfactory.System) { appSystems = all }(appSystems)
	appSystems = []sysfactory.System{sysfactory.ZoFS}
	for _, e := range []struct {
		name  string
		run   func(io.Writer, Options) ([]Cell, error)
		cells int
	}{
		{"table7", unscored(RunTable7), 8}, // db_bench ops
		{"fig11", RunFig11, 4},             // TPC-C workloads
	} {
		t.Run(e.name, func(t *testing.T) {
			_, cells := observed(t, e.run)
			if len(cells) != e.cells {
				t.Fatalf("%s cut %d cells, want %d", e.name, len(cells), e.cells)
			}
			seen := map[string]bool{}
			for _, c := range cells {
				if seen[c.Label] {
					t.Errorf("cell %s cut twice", c.Label)
				}
				seen[c.Label] = true
				if len(c.Spans.Ops) == 0 || c.Metrics.Counters["nvm.bytes_written"] == 0 {
					t.Errorf("%s: no ops or no NVM bytes written: %d op kinds, %d bytes",
						c.Label, len(c.Spans.Ops), c.Metrics.Counters["nvm.bytes_written"])
				}
			}
		})
	}
}

// TestFig8TwoWays checks Fig. 8's ablations against the span attribution:
// each ZoFS variant's write costs ZoFS's write plus exactly the components its
// mechanism charges. ZoFS-sysempty issues one empty system call per write;
// ZoFS-kwrite enters the kernel per write, pays the generic VFS path, and
// skips the two WRPKRU switches of the MPK window. A cost is a marginal: the
// difference between a 1 ms and a 2 ms DWOL run on fresh instances, per write
// between them, so the first write's block allocation cancels out.
func TestFig8TwoWays(t *testing.T) {
	// Every steady-state overwrite costs the same whole virtual nanoseconds,
	// so a marginal is exact: the tolerance admits the rounding of a
	// quotient, never a charge.
	const tol = 0.5
	systems := []sysfactory.System{sysfactory.ZoFS, sysfactory.ZoFSSysEmpty, sysfactory.ZoFSKWrite}
	_, cells := observed(t, unscored(func(_ io.Writer, _ Options) error {
		for _, sys := range systems {
			for _, ns := range []int64{1_000_000, 2_000_000} {
				if _, err := observedCell(sys, string(fxmark.DWOL), 1, 1<<30, fxmarkMops(fxmark.DWOL, 1, ns)); err != nil {
					return err
				}
			}
		}
		return nil
	}))
	if len(cells) != 2*len(systems) {
		t.Fatalf("%d cells, want %d", len(cells), 2*len(systems))
	}
	// marginal returns the write's ns and components per write between a
	// system's two runs.
	marginal := func(i int) (float64, map[string]float64) {
		a, b := cells[2*i].Spans.Ops["write"], cells[2*i+1].Spans.Ops["write"]
		n := float64(b.Count - a.Count)
		if n <= 0 {
			t.Fatalf("%s: %d writes in 1 ms, %d in 2 ms", cells[2*i].Label, a.Count, b.Count)
		}
		comp := map[string]float64{}
		for c := spans.Component(0); c < spans.NumComponents; c++ {
			comp[c.Name()] = float64(b.Comp[c.Name()].SumNS-a.Comp[c.Name()].SumNS) / n
		}
		return float64(b.SumNS-a.SumNS) / n, comp
	}
	base, baseComp := marginal(0)
	if baseComp["pkru"] == 0 {
		t.Fatal("ZoFS's write switches no PKRU: kwrite's saving is unmeasured")
	}
	for i, want := range []map[string]float64{
		{"kernel": perfmodel.Syscall},
		{"kernel": perfmodel.Syscall, "other": perfmodel.VFSOverhead, "pkru": -baseComp["pkru"]},
	} {
		name := systems[i+1].Name
		got, comp := marginal(i + 1)
		var sum float64
		for c, d := range want {
			sum += d
			if delta := comp[c] - baseComp[c]; math.Abs(delta-d) > tol {
				t.Errorf("%s − ZoFS: %s %+.1f ns/write, its mechanism charges %+.1f", name, c, delta, d)
			}
		}
		for c := range comp {
			if _, charged := want[c]; !charged && math.Abs(comp[c]-baseComp[c]) > tol {
				t.Errorf("%s − ZoFS: %s %+.1f ns/write, its mechanism charges none", name, c, comp[c]-baseComp[c])
			}
		}
		if math.Abs(got-base-sum) > tol {
			t.Errorf("%s − ZoFS: %+.1f ns/write, the charged components sum to %+.1f", name, got-base, sum)
		}
	}
}
