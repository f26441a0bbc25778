package harness_test

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"zofs/internal/harness"
	"zofs/internal/proc"
)

// tiny returns the smallest meaningful options for integration smoke runs.
func tiny() harness.Options {
	return harness.Options{
		Quick:       true,
		DeviceBytes: 2 << 30,
		Threads:     []int{1, 2},
		TargetNS:    1_000_000,
	}
}

func runAndCheck(t *testing.T, name string, fn func() (*bytes.Buffer, error), want ...string) {
	t.Helper()
	buf, err := fn()
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	out := buf.String()
	if len(out) == 0 {
		t.Fatalf("%s produced no output", name)
	}
	for _, w := range want {
		if !strings.Contains(out, w) {
			t.Fatalf("%s output missing %q:\n%s", name, w, out)
		}
	}
}

// slow marks the sweeps -short skips.
var slow = map[string]bool{"fig7": true, "fig9": true, "table7": true, "fig11": true}

var update = flag.Bool("update", false, "rewrite the experiments' golden outputs")

// TestExperiments runs every entry of the one experiment list at tiny size,
// in a scratch directory (some record a BENCH_*.json where they run), and
// compares its output byte for byte with testdata/<name>.golden. Virtual
// time makes every run print the same tables, so a moved cell fails here;
// refresh the goldens deliberately with -update. An entry without a golden
// file fails: nothing is listed without being run.
func TestExperiments(t *testing.T) {
	for _, e := range harness.Experiments {
		t.Run(e.Name, func(t *testing.T) {
			if slow[e.Name] && testing.Short() {
				t.Skip("sweep in -short mode")
			}
			golden, err := filepath.Abs(filepath.Join("testdata", e.Name+".golden"))
			if err != nil {
				t.Fatal(err)
			}
			t.Chdir(t.TempDir())
			// Boot the simulated machine afresh, as a zofs-bench process
			// does: allocator shards are picked by TID, so a cell must not
			// depend on which tests ran before it.
			proc.ResetIDs()
			var got bytes.Buffer
			if _, err := e.Run(&got, tiny()); err != nil {
				t.Fatalf("%s: %v", e.Name, err)
			}
			if *update {
				if err := os.WriteFile(golden, got.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("missing golden output (run with -update): %v", err)
			}
			if !bytes.Equal(got.Bytes(), want) {
				t.Fatalf("%s output drifted from %s:\n%s", e.Name, golden, lineDiff(string(want), got.String()))
			}
		})
	}
}

// lineDiff lists the lines that differ between want and got, position by
// position, and the surplus of the longer one.
func lineDiff(want, got string) string {
	w, g := strings.Split(want, "\n"), strings.Split(got, "\n")
	var b strings.Builder
	for i := range max(len(w), len(g)) {
		var wl, gl string
		if i < len(w) {
			wl = w[i]
		}
		if i < len(g) {
			gl = g[i]
		}
		if wl != gl {
			fmt.Fprintf(&b, "line %d:\n- %s\n+ %s\n", i+1, wl, gl)
		}
	}
	return b.String()
}
