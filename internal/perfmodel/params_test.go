package perfmodel

import "testing"

// TestCycles: cycles become virtual nanoseconds at 2.5 GHz, rounded down.
func TestCycles(t *testing.T) {
	for _, c := range []struct{ cycles, ns int64 }{
		{0, 0}, {1, 0}, {2, 0}, {3, 1}, {5, 2}, {16, 6}, {2500, 1000}, {1_000_000_007, 400_000_002},
	} {
		if got := Cycles(c.cycles); got != c.ns {
			t.Errorf("Cycles(%d) = %d ns, want %d", c.cycles, got, c.ns)
		}
	}
}

// TestDerivedCosts pins the two charges the Figure 8 groups are calibrated
// on: one kernel crossing and one PKRU update (§3.4.1: about 16 cycles).
func TestDerivedCosts(t *testing.T) {
	if Syscall != 650 {
		t.Errorf("Syscall = %d ns, want 650 (entry/exit 400 + pollution 250)", Syscall)
	}
	if got := WRPKRUCost(); got != 6 {
		t.Errorf("WRPKRUCost() = %d ns, want 6", got)
	}
}

// TestWriteBWDegradation walks every step of the write-bandwidth roll-off,
// on both sides of each edge.
func TestWriteBWDegradation(t *testing.T) {
	for _, c := range []struct {
		threads int
		want    float64
	}{
		{0, 1.0}, {1, 1.0}, {8, 1.0}, {9, 0.97}, {12, 0.97}, {13, 0.88}, {16, 0.88}, {17, 0.80}, {512, 0.80},
	} {
		if got := WriteBWDegradation(c.threads); got != c.want {
			t.Errorf("WriteBWDegradation(%d) = %v, want %v", c.threads, got, c.want)
		}
	}
}
