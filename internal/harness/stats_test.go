package harness

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"zofs/internal/filebench"
	"zofs/internal/obsfs"
	"zofs/internal/sysfactory"
)

// observed runs one experiment at tiny size inside an observation session
// and returns what it printed followed by the session's rendering of its
// cells, and the cell log the session left in its directory.
func observed(t *testing.T, run func(io.Writer, Options) error) (string, []obsfs.Cell) {
	t.Helper()
	dir := t.TempDir()
	sess, err := obsfs.Start(dir)
	if err != nil {
		t.Fatal(err)
	}
	var b bytes.Buffer
	err = run(&b, Options{Quick: true, TargetNS: 1_000_000})
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
	out, cells := observed(t, func(_ io.Writer, opts Options) error {
		opts.fill()
		for _, p := range []filebench.Personality{filebench.Fileserver, filebench.Varmail} {
			cfg := filebench.Default(p)
			cfg.Files = 100
			if _, err := runFilebenchCell(sysfactory.ZoFS, cfg, 1, opts); err != nil {
				return err
			}
		}
		return nil
	})
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
