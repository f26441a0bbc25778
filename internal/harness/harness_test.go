package harness_test

import (
	"bytes"
	"strings"
	"testing"

	"zofs/internal/harness"
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

// experimentOutput is, per entry of harness.Experiments, what its tiny run
// must print; slow marks the sweeps -short skips.
var experimentOutput = map[string]struct {
	want []string
	slow bool
}{
	"table1":       {want: []string{"Optane DC PM", "DRAM"}},
	"table2":       {want: []string{"append", "create", "ZoFS"}},
	"table3":       {want: []string{"MySQL", "PostgreSQL", "DokuWiki", "Twitter"}},
	"table4":       {want: []string{"groups", "644"}},
	"fig7":         {want: []string{"DWOL", "MWCL", "Ext4-DAX"}, slow: true},
	"fig8":         {want: []string{"ZoFS-sysempty", "PMFS-nocache", "NOVAi-noindex"}},
	"fig9":         {want: []string{"fileserver", "varmail", "ZoFS-20dirwidth"}, slow: true},
	"fig10":        {want: []string{"Fileserver", "Varmail"}},
	"table7":       {want: []string{"Write sync.", "Read rand.", "Delete rand."}, slow: true},
	"fig11":        {want: []string{"mixed", "NEW", "PAY"}, slow: true},
	"table9":       {want: []string{"chmod", "rename", "ZoFS-1coffer"}},
	"safety":       {want: []string{"PASS", "caught by MPK", "graceful errors"}},
	"recovery":     {want: []string{"Recovery of a coffer", "kernel"}},
	"crashmc":      {want: []string{"ZoFS", "Ext4-DAX", "inject slotless", "PASS: all crash-state and fault-injection invariants held"}},
	"wa":           {want: []string{"append256", "wa gate: conservation and flow ordering checks passed"}},
	"fxmark-scale": {want: []string{"gate ok: bit-identical", "wrote BENCH_fxmark_scale.json"}},
	"chaos":        {want: []string{"containment: OK", "gate ok: byte-identical replay", "wrote BENCH_chaos.json"}},
}

// TestExperiments runs every entry of the one experiment list at tiny size,
// in a scratch directory (some record a BENCH_*.json where they run). An
// entry without a row here fails: nothing is listed without being run.
func TestExperiments(t *testing.T) {
	for _, e := range harness.Experiments {
		t.Run(e.Name, func(t *testing.T) {
			row, ok := experimentOutput[e.Name]
			if !ok {
				t.Fatalf("experiment %q has no expected output in experimentOutput", e.Name)
			}
			if row.slow && testing.Short() {
				t.Skip("sweep in -short mode")
			}
			t.Chdir(t.TempDir())
			runAndCheck(t, e.Name, func() (*bytes.Buffer, error) {
				var b bytes.Buffer
				return &b, e.Run(&b, tiny())
			}, row.want...)
		})
	}
}
