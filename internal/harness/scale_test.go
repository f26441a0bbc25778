package harness_test

import (
	"bytes"
	"encoding/json"
	"os"
	"testing"

	"zofs/internal/harness"
)

// TestRunFxmarkScale runs the scalability matrix at tiny size and checks the
// observatory's gates held (they are hard errors inside the run), the curves
// carry fits, and the artifact is well-formed.
func TestRunFxmarkScale(t *testing.T) {
	t.Chdir(t.TempDir())
	runAndCheck(t, "fxmark-scale", func() (*bytes.Buffer, error) {
		var b bytes.Buffer
		return &b, harness.RunFxmarkScale(&b, tiny())
	}, "gate ok: bit-identical", "gate ok: cross-check DWOM 4T: lock_wait events == spans lock_wait == lockprof wait sum", "wrote BENCH_fxmark_scale.json")

	blob, err := os.ReadFile("BENCH_fxmark_scale.json")
	if err != nil {
		t.Fatal(err)
	}
	var out harness.ScaleReport
	if err := json.Unmarshal(blob, &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Gates) != 3 {
		t.Fatalf("want 3 gate records, got %+v", out.Gates)
	}
	if len(out.Curves) != 6 { // quick: 2 systems x 3 workloads
		t.Fatalf("want 6 curves, got %d", len(out.Curves))
	}
	for _, c := range out.Curves {
		if len(c.Cells) != 2 {
			t.Fatalf("curve %s/%s: want 2 cells, got %+v", c.System, c.Workload, c.Cells)
		}
		if c.Fit.SigmaAmdahl < 0 || c.Fit.SigmaAmdahl > 1 {
			t.Errorf("curve %s/%s: serial fraction %v out of [0,1]", c.System, c.Workload, c.Fit.SigmaAmdahl)
		}
		for _, cell := range c.Cells {
			if cell.Ops == 0 {
				t.Errorf("curve %s/%s %dT made no progress", c.System, c.Workload, cell.Threads)
			}
		}
	}
	// The contended shared-file cell must name its bottleneck lock.
	for _, c := range out.Curves {
		if c.System == "ZoFS" && c.Workload == "DWOM" {
			last := c.Cells[len(c.Cells)-1]
			if len(last.TopLocks) == 0 {
				t.Fatalf("ZoFS/DWOM widest cell has no attributed locks: %+v", last)
			}
		}
	}
}
