package harness_test

import (
	"bytes"
	"encoding/json"
	"os"
	"testing"

	"zofs/internal/harness"
)

// TestRunWA runs the write-amplification gate at quick size: its own checks
// (class conservation, flow ordering) are hard errors inside the run, and
// the artifact must hold one cell per system and workload.
func TestRunWA(t *testing.T) {
	t.Chdir(t.TempDir())
	runAndCheck(t, "wa", func() (*bytes.Buffer, error) {
		var b bytes.Buffer
		return &b, harness.RunWA(&b, tiny())
	}, "ZoFS", "Ext4-DAX", "append256", "wa gate: conservation and flow ordering checks passed", "wrote BENCH_wa.json")

	blob, err := os.ReadFile("BENCH_wa.json")
	if err != nil {
		t.Fatal(err)
	}
	var out struct {
		Cells []struct {
			System   string `json:"system"`
			Workload string `json:"workload"`
			App      int64  `json:"app_bytes"`
			Issued   int64  `json:"issued_bytes"`
			Media    int64  `json:"media_bytes"`
		} `json:"cells"`
	}
	if err := json.Unmarshal(blob, &out); err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, c := range out.Cells {
		seen[c.System+"/"+c.Workload] = true
		if c.Issued <= 0 || c.Media < c.Issued || c.Issued < c.App {
			t.Errorf("cell %s/%s: app %d, issued %d, media %d", c.System, c.Workload, c.App, c.Issued, c.Media)
		}
	}
	if len(out.Cells) != 12 || len(seen) != 12 {
		t.Fatalf("want 4 systems x 3 workloads, got %d cells: %v", len(out.Cells), seen)
	}
}
