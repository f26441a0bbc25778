package main

import (
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestExitCodes is the tool's exit-code contract, one row per way in: 0 every
// containment invariant held, 1 the report could not be written, 2 a usage
// error, 3 a containment violation.
func TestExitCodes(t *testing.T) {
	report := filepath.Join(t.TempDir(), "report.json")
	for _, c := range []struct {
		args string
		want int
	}{
		{"-ops 120 -json " + report, 0},
		{"-ops 40 -json /no/such/dir/report.json", 1},
		{"stray-operand", 2},
		{"-no-such-flag", 2},
		{"-ops many", 2},
		// Seeded: ten ops end before the stalled holder's lease can expire, so
		// its resume is not fenced and the fence invariants report it.
		{"-ops 10", 3},
	} {
		if got := run(strings.Fields(c.args), io.Discard, io.Discard); got != c.want {
			t.Errorf("zofs-chaos %s exits %d, want %d", c.args, got, c.want)
		}
	}
	if st, err := os.Stat(report); err != nil || st.Size() == 0 {
		t.Errorf("-json left no report: %v", err)
	}
}
