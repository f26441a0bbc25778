package harness_test

import (
	"bytes"
	"encoding/json"
	"os"
	"testing"

	"zofs/internal/harness"
)

// TestRunHotpath runs the zero-copy-vs-copy-path experiment at quick size
// and gates on the optimization target: every metadata and small-I/O cell at
// least 2x the copy-path baseline, the large-I/O cell (where both variants
// spend most of the op in the same media transfer) at least 1.5x, with the
// JSON artifact written and well-formed.
func TestRunHotpath(t *testing.T) {
	t.Chdir(t.TempDir())
	runAndCheck(t, "hotpath", func() (*bytes.Buffer, error) {
		var b bytes.Buffer
		return &b, harness.RunHotpath(&b, tiny())
	}, "Speedup", "create", "lookup", "read4k", "readdir", "unlink", "read64k", "truncate", "ZoFS-copypath")

	blob, err := os.ReadFile("BENCH_hotpath.json")
	if err != nil {
		t.Fatal(err)
	}
	var out struct {
		Baseline  string `json:"baseline"`
		Optimized string `json:"optimized"`
		Cells     []struct {
			Cell    string  `json:"cell"`
			Speedup float64 `json:"speedup"`
		} `json:"cells"`
	}
	if err := json.Unmarshal(blob, &out); err != nil {
		t.Fatal(err)
	}
	if out.Baseline != "ZoFS-copypath" || out.Optimized != "ZoFS" {
		t.Fatalf("unexpected variants: %+v", out)
	}
	if len(out.Cells) != 7 {
		t.Fatalf("want 7 cells, got %+v", out.Cells)
	}
	for _, c := range out.Cells {
		target := 2.0
		if c.Cell == "read64k" {
			target = 1.5
		}
		if c.Speedup < target {
			t.Errorf("cell %s: speedup %.2fx below the %.1fx target", c.Cell, c.Speedup, target)
		}
	}
}
