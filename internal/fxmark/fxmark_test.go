package fxmark_test

import (
	"testing"

	"zofs/internal/fxmark"
	"zofs/internal/sysfactory"
)

func env(t *testing.T, sys sysfactory.System, size int64) *fxmark.Env {
	t.Helper()
	in, err := sys.New(size, false)
	if err != nil {
		t.Fatal(err)
	}
	return &fxmark.Env{FS: in.FS, Proc: in.Proc, SetConcurrency: in.SetConcurrency}
}

const quickNS = 2_000_000 // 2ms virtual per thread

func TestAllWorkloadsRunOnZoFS(t *testing.T) {
	for _, w := range fxmark.All {
		w := w
		t.Run(string(w), func(t *testing.T) {
			e := env(t, sysfactory.ZoFS, 512<<20)
			r, err := fxmark.Run(e, w, 2, quickNS)
			if err != nil {
				t.Fatal(err)
			}
			if r.Ops == 0 || r.MopsPerSec <= 0 {
				t.Fatalf("no progress: %+v", r)
			}
		})
	}
}

func TestAllWorkloadsRunOnBaselines(t *testing.T) {
	for _, sys := range []sysfactory.System{sysfactory.PMFS, sysfactory.NOVA, sysfactory.Strata, sysfactory.Ext4DAX} {
		sys := sys
		t.Run(sys.Name, func(t *testing.T) {
			for _, w := range fxmark.All {
				e := env(t, sys, 512<<20)
				r, err := fxmark.Run(e, w, 2, quickNS)
				if err != nil {
					t.Fatalf("%s/%s: %v", sys.Name, w, err)
				}
				if r.Ops == 0 {
					t.Fatalf("%s/%s made no progress", sys.Name, w)
				}
			}
		})
	}
}

func TestReadsScaleWithThreads(t *testing.T) {
	// DRBL on ZoFS: 8 threads should deliver far more aggregate throughput
	// than 1 (readers overlap).
	e1 := env(t, sysfactory.ZoFS, 256<<20)
	r1, err := fxmark.Run(e1, fxmark.DRBL, 1, quickNS)
	if err != nil {
		t.Fatal(err)
	}
	e8 := env(t, sysfactory.ZoFS, 256<<20)
	r8, err := fxmark.Run(e8, fxmark.DRBL, 8, quickNS)
	if err != nil {
		t.Fatal(err)
	}
	if r8.MopsPerSec < 4*r1.MopsPerSec {
		t.Fatalf("DRBL does not scale: 1T=%.3f 8T=%.3f Mops/s", r1.MopsPerSec, r8.MopsPerSec)
	}
}

func TestSharedWritesCollapse(t *testing.T) {
	// DWOM: per-file locks mean aggregate throughput cannot scale with
	// threads (Fig. 7f).
	e1 := env(t, sysfactory.ZoFS, 256<<20)
	r1, _ := fxmark.Run(e1, fxmark.DWOM, 1, quickNS)
	e8 := env(t, sysfactory.ZoFS, 256<<20)
	r8, _ := fxmark.Run(e8, fxmark.DWOM, 8, quickNS)
	if r8.MopsPerSec > 1.5*r1.MopsPerSec {
		t.Fatalf("DWOM should not scale: 1T=%.3f 8T=%.3f", r1.MopsPerSec, r8.MopsPerSec)
	}
}

func TestZoFSBeatsKernelFSOnDWOL(t *testing.T) {
	// The headline result: user-space ZoFS outperforms the kernel FSs on
	// private 4KB overwrites (Fig. 7e, Fig. 8).
	run := func(sys sysfactory.System) float64 {
		e := env(t, sys, 256<<20)
		r, err := fxmark.Run(e, fxmark.DWOL, 1, quickNS)
		if err != nil {
			t.Fatal(err)
		}
		return r.MopsPerSec
	}
	z := run(sysfactory.ZoFS)
	for _, sys := range []sysfactory.System{sysfactory.PMFS, sysfactory.NOVA, sysfactory.Ext4DAX} {
		if b := run(sys); b >= z {
			t.Fatalf("%s (%.3f) should not beat ZoFS (%.3f) on DWOL", sys.Name, b, z)
		}
	}
}

func TestMWCLEnlargeKnee(t *testing.T) {
	// MWCL on ZoFS flattens with threads due to coffer_enlarge contention,
	// while NOVA keeps scaling (Fig. 7g): check NOVA's 8-thread speedup
	// exceeds ZoFS's.
	speedup := func(sys sysfactory.System) float64 {
		e1 := env(t, sys, 1<<30)
		r1, err := fxmark.Run(e1, fxmark.MWCL, 1, quickNS)
		if err != nil {
			t.Fatal(err)
		}
		e8 := env(t, sys, 1<<30)
		r8, err := fxmark.Run(e8, fxmark.MWCL, 8, quickNS)
		if err != nil {
			t.Fatal(err)
		}
		return r8.MopsPerSec / r1.MopsPerSec
	}
	z := speedup(sysfactory.ZoFS)
	n := speedup(sysfactory.NOVA)
	if n <= z {
		t.Fatalf("NOVA MWCL speedup (%.2fx) should exceed ZoFS's (%.2fx)", n, z)
	}
}

// TestContendedCellsReproduce: a contended 4-thread cell run twice gives
// the same Ops and VirtualNS. In both, PMFS creates and Ext4-DAX appends,
// threads meet on the global allocator lock, so any dependence of the
// interleaving on host scheduling shows up as a different count.
func TestContendedCellsReproduce(t *testing.T) {
	for _, c := range []struct {
		sys sysfactory.System
		w   fxmark.Workload
	}{{sysfactory.PMFS, fxmark.MWCL}, {sysfactory.Ext4DAX, fxmark.DWAL}} {
		var runs [2]fxmark.Result
		for i := range runs {
			r, err := fxmark.Run(env(t, c.sys, 512<<20), c.w, 4, quickNS)
			if err != nil {
				t.Fatalf("%s %s: %v", c.sys.Name, c.w, err)
			}
			runs[i] = r
		}
		if runs[0].Ops != runs[1].Ops || runs[0].VirtualNS != runs[1].VirtualNS {
			t.Errorf("%s %s 4T: ops %d then %d, virtual ns %d then %d",
				c.sys.Name, c.w, runs[0].Ops, runs[1].Ops, runs[0].VirtualNS, runs[1].VirtualNS)
		}
	}
}
