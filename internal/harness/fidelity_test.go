package harness_test

import (
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"testing"

	"zofs/internal/harness"
	"zofs/internal/proc"
)

// reason is one row of the reasons table: a change that moved a scored
// cell away from the paper, from one value of full-size runs to another.
// change is the number of that change's entry in CHANGES.md.
type reason struct {
	cell     string
	change   int
	from, to float64
	why      string
}

// reasons is the history of every scored cell that moved away from the
// paper, and the licence for the next one to: a cell may score worse than
// BENCH_fidelity.json records only when a row here moves it to the value
// it now has.
var reasons = []reason{
	// An append stopped zero-filling what it leaves past EOF: 41 KB less
	// written per TPC-C transaction, all by ZoFS.
	{"table8/mixed/ZoFS/PMFS", 36, 2.8150, 3.3194, "ZoFS appends stop zeroing past EOF"},
	{"table8/mixed/ZoFS/NOVA", 36, 2.8179, 3.3228, "ZoFS appends stop zeroing past EOF"},
	{"table8/OS/ZoFS/PMFS", 36, 1.9653, 2.2432, "ZoFS appends stop zeroing past EOF"},
	{"table8/OS/ZoFS/NOVA", 36, 2.5329, 2.8910, "ZoFS appends stop zeroing past EOF"},
	// An unlinked inode page is scrubbed over what it holds, not 4 KiB: the
	// rollback journal's unlink, once per transaction.
	{"table8/mixed/ZoFS/PMFS", 37, 3.3194, 3.3554, "unlink scrubs what the inode page holds"},
	{"table8/mixed/ZoFS/NOVA", 37, 3.3228, 3.3589, "unlink scrubs what the inode page holds"},
	{"table8/OS/ZoFS/PMFS", 37, 2.2432, 2.4620, "unlink scrubs what the inode page holds"},
	{"table8/OS/ZoFS/NOVA", 37, 2.8910, 3.1730, "unlink scrubs what the inode page holds"},
	// A kernel grant scrubs only pages granted before: the cells' creates
	// on a fresh device take grants that need no scrub.
	{"table2/append/2/ZoFS", 39, 1567, 1520, "grants skip pages never granted since mkfs"},
	{"table2/create/1/ZoFS", 39, 1570, 1003, "grants skip pages never granted since mkfs"},
	{"table2/create/2/ZoFS", 39, 1385, 913, "grants skip pages never granted since mkfs"},
	{"table9/chmod/ZoFS", 39, 10779, 10495, "grants skip pages never granted since mkfs"},
	{"table9/rename/ZoFS", 39, 11401, 10834, "grants skip pages never granted since mkfs"},
	{"table9/rename/ZoFS-1coffer", 39, 1468, 1184, "grants skip pages never granted since mkfs"},
	// Path-table updates read and write the entry, not its 4 KiB page.
	{"table9/chmod/ZoFS", 40, 10495, 10208, "path-table entries located by the mirror"},
	{"table9/rename/ZoFS", 40, 10834, 10547, "path-table entries located by the mirror"},
	// Unlink reads the indirect words and the direct slots the file's size
	// covers, not all 392: the rollback journal's unlink reads 24 bytes of
	// its inode instead of 3,152, a chmod split of a 64-page file 528.
	{"table8/mixed/ZoFS/PMFS", 41, 3.3554, 3.3695, "unlink reads only the pointers the size covers"},
	{"table8/mixed/ZoFS/NOVA", 41, 3.3587, 3.3729, "unlink reads only the pointers the size covers"},
	{"table8/OS/ZoFS/PMFS", 41, 2.4620, 2.5590, "unlink reads only the pointers the size covers"},
	{"table8/OS/ZoFS/NOVA", 41, 3.1730, 3.2980, "unlink reads only the pointers the size covers"},
	{"table9/chmod/ZoFS", 41, 10208, 10141, "unlink reads only the pointers the size covers"},
	{"table9/rename/ZoFS", 41, 10547, 10480, "unlink reads only the pointers the size covers"},
}

// excused reports whether a row of the reasons table moves the cell to
// ours (to four significant digits, as the rows are written).
func excused(cell string, ours float64) bool {
	for _, r := range reasons {
		if r.cell == cell && math.Abs(r.to-ours) <= 5e-4*math.Abs(ours) {
			return true
		}
	}
	return false
}

// loadFidelity reads the cells of a scoreboard harness.WriteFidelity wrote.
func loadFidelity(t *testing.T) []harness.Cell {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "..", harness.FidelityFile))
	if err != nil {
		t.Fatal(err)
	}
	var doc struct{ Cells []harness.Cell }
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("%s: %v", harness.FidelityFile, err)
	}
	return doc.Cells
}

// heapMedia is set when device media live on the Go heap (fidelity_race_test.go).
var heapMedia bool

// TestFidelityHolds reruns the scored experiments as the committed
// scoreboard was made — a freshly booted machine, full size, in the order
// "zofs-bench table2 fig8 fig11 table9 recovery" runs them — and fails
// when a cell scores worse than BENCH_fidelity.json records and no row of
// the reasons table moves it to its new value, or when the two hold
// different cells. A cell that scores better passes: check.sh's cmp asks
// for the file to be regenerated.
func TestFidelityHolds(t *testing.T) {
	if testing.Short() {
		t.Skip("full-size runs in -short mode")
	}
	if heapMedia {
		t.Skip("the 1,000-file recovery would hold 2 GiB of device media on the Go heap")
	}
	committed := loadFidelity(t)
	was := map[string]harness.Cell{}
	for _, c := range committed {
		was[c.Name] = c
	}
	t.Chdir(t.TempDir())
	proc.ResetIDs()
	var fresh []harness.Cell
	for _, e := range harness.Experiments {
		switch e.Name {
		case "table2", "fig8", "fig11", "table9", "recovery":
			cells, err := e.Run(io.Discard, harness.Options{})
			if err != nil {
				t.Fatalf("%s: %v", e.Name, err)
			}
			fresh = append(fresh, cells...)
		}
	}
	for _, c := range fresh {
		old, ok := was[c.Name]
		delete(was, c.Name)
		switch {
		case !ok:
			t.Errorf("%s is not on the committed scoreboard: regenerate %s", c.Name, harness.FidelityFile)
		case c.Scored() && c.Score() > old.Score() && !excused(c.Name, c.Ours):
			t.Errorf("%s moved away from the paper's %g: %g (score %.4f) -> %g (score %.4f), and no reasons row moves it there",
				c.Name, c.Paper, old.Ours, old.Score(), c.Ours, c.Score())
		}
	}
	for name := range was {
		t.Errorf("%s is on the committed scoreboard but no experiment returned it", name)
	}
}

// TestReasonsNameScoredCells: every row of the reasons table names a cell
// of the committed scoreboard that has a paper value, and moves it away
// from that value.
func TestReasonsNameScoredCells(t *testing.T) {
	paper := map[string]float64{}
	for _, c := range loadFidelity(t) {
		if c.Scored() {
			paper[c.Name] = c.Paper
		}
	}
	for _, r := range reasons {
		p, ok := paper[r.cell]
		switch {
		case !ok:
			t.Errorf("reasons row of change %d names %q, which is not a scored cell", r.change, r.cell)
		case math.Abs(math.Log(r.to/p)) <= math.Abs(math.Log(r.from/p)):
			t.Errorf("reasons row of change %d for %s moves it toward the paper's %g (%g -> %g)", r.change, r.cell, p, r.from, r.to)
		case r.why == "":
			t.Errorf("reasons row of change %d for %s gives no reason", r.change, r.cell)
		}
	}
}
