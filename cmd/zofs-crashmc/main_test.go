package main

import (
	"io"
	"strings"
	"testing"
)

// TestExitCodes is the tool's exit-code contract, one row per way in: 0 every
// invariant held, 1 a failed check, 2 a usage error or a run that cannot be
// set up, 3 an injected fault was detected (and repaired).
func TestExitCodes(t *testing.T) {
	for _, c := range []struct {
		args string
		want int
	}{
		{"-system ZoFS -points 4 -ops 12", 0},
		{"-system Ext4-DAX -points 3 -ops 8 -model drop -edges after", 0},
		{"-system LogFS -points 3 -ops 8", 0},
		{"-system NOVA -points 3 -ops 8 -model torn -edges before", 0},
		{"-system NOVA -inject lease", 2},
		{"-points 2 -ops 8 -min-states 100000", 1},
		{"stray-operand", 2},
		{"-no-such-flag", 2},
		{"-system NoSuchFS", 2},
		{"-model bogus", 2},
		{"-edges bogus", 2},
		{"-inject bogus", 2},
		{"-points 2 -ops 8 -json /no/such/dir/report.json", 2},
		{"-inject bitflip -ops 16", 3},
		{"-inject slotless -ops 16", 3},
		{"-inject lease -ops 16", 3},
	} {
		if got := run(strings.Fields(c.args), io.Discard, io.Discard); got != c.want {
			t.Errorf("zofs-crashmc %s exits %d, want %d", c.args, got, c.want)
		}
	}
}
