package slab

import "testing"

// TestCarve: every pointer is fresh and zero, chunks grow from Min to Max,
// and what one carve returned is never handed out again.
func TestCarve(t *testing.T) {
	var s Slab[[2]int]
	seen := map[*[2]int]bool{}
	for i := 0; i < 4*Max; i++ {
		p := s.Carve()
		if seen[p] || *p != [2]int{} {
			t.Fatalf("carve %d: reused %v or not zero (%v)", i, seen[p], *p)
		}
		seen[p] = true
		p[0] = i + 1
	}
	if got := testing.AllocsPerRun(Max, func() { s.Carve() }); got > 1.0/Max*2 {
		t.Errorf("%v allocs a carve at full chunk size, want one per %d", got, Max)
	}
}
