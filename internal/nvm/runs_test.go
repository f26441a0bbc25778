package nvm

import (
	"fmt"
	"testing"
)

// TestForEachRun pins the run rule: consecutive pages merge, anything else —
// a gap, a step back, a hole boundary, the end of the range — cuts, and the
// pieces tile the requested byte range exactly.
func TestForEachRun(t *testing.T) {
	const P = PageSize
	for _, c := range []struct {
		name     string
		pages    []int64
		first    int64
		from, to int64
		want     string
	}{
		{"one page, inner bytes", []int64{7}, 0, 100, 300, "7+100:100-300"},
		{"ascending pages are one run", []int64{7, 8, 9, 10}, 0, 0, 4 * P, "7+0:0-16384"},
		{"partial head and tail", []int64{7, 8, 9}, 0, 10, 2*P + 5, "7+10:10-8197"},
		{"descending pages never merge", []int64{9, 8, 7}, 0, 0, 3 * P, "9+0:0-4096 8+0:4096-8192 7+0:8192-12288"},
		{"a gap cuts", []int64{7, 8, 10, 11}, 0, 0, 4 * P, "7+0:0-8192 10+0:8192-16384"},
		{"a repeated page cuts", []int64{7, 7}, 0, 0, 2 * P, "7+0:0-4096 7+0:4096-8192"},
		{"holes merge with holes only", []int64{0, 0, 5, 0}, 0, 0, 4 * P, "hole:0-8192 5+0:8192-12288 hole:12288-16384"},
		{"page 1 after a hole is not its successor", []int64{0, 1}, 0, 0, 2 * P, "hole:0-4096 1+0:4096-8192"},
		{"past the slice is a hole", []int64{7}, 0, 0, 3 * P, "7+0:0-4096 hole:4096-12288"},
		{"first shifts the block numbers", []int64{7, 8}, 10, 10*P + 1, 12 * P, "7+1:40961-49152"},
		{"empty range", []int64{7}, 0, 50, 50, ""},
	} {
		t.Run(c.name, func(t *testing.T) {
			got, next := "", c.from
			ForEachRun(c.pages, c.first, c.from, c.to, func(dev, from, to int64) {
				if from != next || to <= from {
					t.Fatalf("run %d-%d does not continue at %d", from, to, next)
				}
				next = to
				if got != "" {
					got += " "
				}
				if dev < 0 {
					got += fmt.Sprintf("hole:%d-%d", from, to)
				} else {
					got += fmt.Sprintf("%d+%d:%d-%d", dev/P, dev%P, from, to)
				}
			})
			if got != c.want {
				t.Fatalf("runs %q, want %q", got, c.want)
			}
			if next != c.to {
				t.Fatalf("runs end at %d, want %d", next, c.to)
			}
		})
	}
}
