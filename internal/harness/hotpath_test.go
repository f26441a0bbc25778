package harness_test

import (
	"bytes"
	"encoding/json"
	"os"
	"testing"

	"zofs/internal/harness"
)

// TestRunHotpath runs the zero-copy-vs-copy-path experiment at quick size
// and gates on the optimization target: every cell at least 2x the
// copy-path baseline, with the JSON artifact written and well-formed.
func TestRunHotpath(t *testing.T) {
	t.Chdir(t.TempDir())
	runAndCheck(t, "hotpath", func() (*bytes.Buffer, error) {
		var b bytes.Buffer
		return &b, harness.RunHotpath(&b, tiny())
	}, "Speedup", "create", "lookup", "read4k", "readdir", "unlink", "ZoFS-copypath")

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
	if len(out.Cells) != 5 {
		t.Fatalf("want 5 cells, got %+v", out.Cells)
	}
	for _, c := range out.Cells {
		if c.Speedup < 2.0 {
			t.Errorf("cell %s: speedup %.2fx below the 2x target", c.Cell, c.Speedup)
		}
	}
}
