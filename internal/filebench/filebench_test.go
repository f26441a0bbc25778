package filebench_test

import (
	"testing"

	"zofs/internal/filebench"
	"zofs/internal/sysfactory"
)

const quickNS = 2_000_000

func TestAllPersonalitiesOnZoFS(t *testing.T) {
	for _, p := range filebench.All {
		p := p
		t.Run(string(p), func(t *testing.T) {
			in, err := sysfactory.ZoFS.New(4<<30, false)
			if err != nil {
				t.Fatal(err)
			}
			r, err := filebench.Run(in.FS, in.Proc, filebench.Default(p), 2, quickNS)
			if err != nil {
				t.Fatal(err)
			}
			if r.Ops == 0 || r.KopsPerSec <= 0 {
				t.Fatalf("no progress: %+v", r)
			}
		})
	}
}

func TestAllPersonalitiesOnBaselines(t *testing.T) {
	for _, sys := range []sysfactory.System{sysfactory.PMFS, sysfactory.NOVA, sysfactory.Strata, sysfactory.Ext4DAX} {
		sys := sys
		t.Run(sys.Name, func(t *testing.T) {
			for _, p := range filebench.All {
				in, err := sys.New(4<<30, false)
				if err != nil {
					t.Fatal(err)
				}
				r, err := filebench.Run(in.FS, in.Proc, filebench.Default(p), 2, quickNS)
				if err != nil {
					t.Fatalf("%s/%s: %v", sys.Name, p, err)
				}
				if r.Ops == 0 {
					t.Fatalf("%s/%s made no progress", sys.Name, p)
				}
			}
		})
	}
}

func TestDirWidthEffectOnZoFS(t *testing.T) {
	// Figure 10(b)/§6.2: reducing varmail's dir width to 20 (deep paths)
	// lowers ZoFS throughput versus the flat default. Pinned on the
	// configuration EXPERIMENTS.md reports: each extra path component costs
	// a directory-index probe and an inode-header check, so the slowdown is
	// a few percent (the paper's scan-based lookups lose more: EXPERIMENTS.md
	// deviation 3).
	run := func(width int) float64 {
		in, err := sysfactory.ZoFS.New(2<<30, false)
		if err != nil {
			t.Fatal(err)
		}
		cfg := filebench.Default(filebench.Varmail)
		cfg.DirWidth = width
		r, err := filebench.Run(in.FS, in.Proc, cfg, 2, quickNS)
		if err != nil {
			t.Fatal(err)
		}
		return r.KopsPerSec
	}
	flat := run(1000000)
	deep := run(20)
	if deep >= flat {
		t.Fatalf("deep dirs should be slower on ZoFS: flat=%.1f deep=%.1f kops/s", flat, deep)
	}
}

// TestStrataDeepVarmailReproduces: Fig. 10(b)'s Strata cell at 4 threads —
// varmail over dir-width 20 — run twice gives the same Ops and VirtualNS.
// Its threads unlink and re-create names the others read and share the
// digestion worker, so any dependence of the interleaving on host
// scheduling shows up as a different count.
func TestStrataDeepVarmailReproduces(t *testing.T) {
	cfg := filebench.Default(filebench.Varmail)
	cfg.DirWidth = 20
	var runs [2]filebench.Result
	for i := range runs {
		in, err := sysfactory.Strata.New(4<<30, false)
		if err != nil {
			t.Fatal(err)
		}
		in.SetConcurrency(4)
		if runs[i], err = filebench.Run(in.FS, in.Proc, cfg, 4, quickNS); err != nil {
			t.Fatal(err)
		}
	}
	if runs[0].Ops != runs[1].Ops || runs[0].VirtualNS != runs[1].VirtualNS {
		t.Fatalf("ops %d then %d, virtual ns %d then %d",
			runs[0].Ops, runs[1].Ops, runs[0].VirtualNS, runs[1].VirtualNS)
	}
}
