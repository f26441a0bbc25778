package baselines_test

import (
	"bytes"
	"fmt"
	"testing"

	"zofs/internal/baselines"
	"zofs/internal/nvm"
	"zofs/internal/perfmodel"
	"zofs/internal/proc"
	"zofs/internal/vfs"
	"zofs/internal/vfs/vfstest"
)

func factoryFor(build func(dev *nvm.Device) *baselines.Engine) vfstest.Factory {
	return func(t *testing.T) (vfs.FileSystem, *proc.Thread) {
		dev := nvm.New(nvm.Config{Size: 256 << 20, TrackPersistence: false})
		p := proc.NewProcess(dev, 0, 0)
		return build(dev), p.NewThread()
	}
}

func TestPMFSConformance(t *testing.T) {
	vfstest.Run(t, factoryFor(func(dev *nvm.Device) *baselines.Engine {
		return baselines.NewPMFS(dev, baselines.PMFSOptions{})
	}))
}

func TestPMFSNocacheConformance(t *testing.T) {
	vfstest.Run(t, factoryFor(func(dev *nvm.Device) *baselines.Engine {
		return baselines.NewPMFS(dev, baselines.PMFSOptions{Nocache: true})
	}))
}

func TestNOVAConformance(t *testing.T) {
	vfstest.Run(t, factoryFor(func(dev *nvm.Device) *baselines.Engine {
		return baselines.NewNOVA(dev, baselines.NOVAOptions{})
	}))
}

func TestNOVAiConformance(t *testing.T) {
	vfstest.Run(t, factoryFor(func(dev *nvm.Device) *baselines.Engine {
		return baselines.NewNOVA(dev, baselines.NOVAOptions{InPlace: true})
	}))
}

func TestStrataConformance(t *testing.T) {
	vfstest.Run(t, factoryFor(baselines.NewStrata))
}

func TestExt4DAXConformance(t *testing.T) {
	vfstest.Run(t, factoryFor(baselines.NewExt4DAX))
}

// TestKernelFSChargesSyscalls verifies the central cost asymmetry: kernel
// file systems pay a syscall per op, Strata's data path does not.
func TestKernelFSChargesSyscalls(t *testing.T) {
	perOp := func(e *baselines.Engine, p *proc.Process) int64 {
		th := p.NewThread()
		h, err := e.Create(th, "/f", 0o644)
		if err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, 4096)
		h.WriteAt(th, buf, 0)
		start := th.Clk.Now()
		const ops = 20
		for i := 0; i < ops; i++ {
			h.WriteAt(th, buf, 0)
		}
		return (th.Clk.Now() - start) / ops
	}
	devK := nvm.New(nvm.Config{Size: 64 << 20})
	pK := proc.NewProcess(devK, 0, 0)
	kcost := perOp(baselines.NewPMFS(devK, baselines.PMFSOptions{Nocache: true}), pK)

	devU := nvm.New(nvm.Config{Size: 64 << 20})
	pU := proc.NewProcess(devU, 0, 0)
	ucost := perOp(baselines.NewStrata(devU), pU)

	if kcost <= ucost {
		t.Fatalf("kernel FS op (%d ns) should cost more than user-space log write (%d ns)", kcost, ucost)
	}
	// Strata spends part of the saved syscall on its own user-level work
	// (lease validation + log-record construction), so the visible gap is
	// a fraction of the full syscall cost.
	if kcost-ucost < perfmodel.Syscall/4 {
		t.Fatalf("syscall gap too small: %d vs %d", kcost, ucost)
	}
}

// TestStrataSharingCollapse reproduces the Table 2 effect: alternating
// appends from two processes force digestion and lease handoff on every
// operation, inflating latency by more than an order of magnitude.
func TestStrataSharingCollapse(t *testing.T) {
	dev := nvm.New(nvm.Config{Size: 256 << 20})
	e := baselines.NewStrata(dev)
	p1 := proc.NewProcess(dev, 0, 0)
	p2 := proc.NewProcess(dev, 0, 0)
	t1, t2 := p1.NewThread(), p2.NewThread()

	h1, err := e.Create(t1, "/shared", 0o644)
	if err != nil {
		t.Fatal(err)
	}
	h2, err := e.Open(t2, "/shared", vfs.O_RDWR)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 4096)

	// Warm single-process appends.
	start := t1.Clk.Now()
	const ops = 20
	for i := 0; i < ops; i++ {
		h1.Append(t1, buf)
	}
	solo := (t1.Clk.Now() - start) / ops

	// Alternating appends between two processes.
	s1, s2 := t1.Clk.Now(), t2.Clk.Now()
	for i := 0; i < ops; i++ {
		h1.Append(t1, buf)
		h2.Append(t2, buf)
	}
	shared := ((t1.Clk.Now() - s1) + (t2.Clk.Now() - s2)) / (2 * ops)
	if shared < 5*solo {
		t.Fatalf("sharing should collapse Strata: solo=%dns shared=%dns", solo, shared)
	}
}

// TestGlobalVsPerCoreAllocator verifies PMFS's allocator serializes in
// virtual time while NOVA's per-core allocator does not.
func TestGlobalVsPerCoreAllocator(t *testing.T) {
	parallelAppendTime := func(e *baselines.Engine, p *proc.Process) int64 {
		const workers = 8
		done := make(chan int64, workers)
		for w := 0; w < workers; w++ {
			go func(w int) {
				th := p.NewThread()
				h, _ := e.Create(th, "/f"+string(rune('a'+w)), 0o644)
				buf := make([]byte, 4096)
				for i := 0; i < 50; i++ {
					h.Append(th, buf)
				}
				done <- th.Clk.Now()
			}(w)
		}
		var max int64
		for w := 0; w < workers; w++ {
			if v := <-done; v > max {
				max = v
			}
		}
		return max
	}
	devP := nvm.New(nvm.Config{Size: 512 << 20, TrackPersistence: false})
	pmfsT := parallelAppendTime(baselines.NewPMFS(devP, baselines.PMFSOptions{Nocache: true}), proc.NewProcess(devP, 0, 0))
	devN := nvm.New(nvm.Config{Size: 512 << 20, TrackPersistence: false})
	novaT := parallelAppendTime(baselines.NewNOVA(devN, baselines.NOVAOptions{}), proc.NewProcess(devN, 0, 0))
	// Both have costs; we only require that the global allocator doesn't
	// come out *cheaper* under parallel allocation pressure.
	if pmfsT < novaT/2 {
		t.Fatalf("global allocator unexpectedly faster: pmfs=%d nova=%d", pmfsT, novaT)
	}
}

// TestFig8VariantOrdering checks NOVA-noindex beats NOVA on overwrites.
func TestFig8VariantOrdering(t *testing.T) {
	perOp := func(e *baselines.Engine, p *proc.Process) int64 {
		th := p.NewThread()
		h, _ := e.Create(th, "/f", 0o644)
		buf := make([]byte, 4096)
		h.WriteAt(th, buf, 0)
		start := th.Clk.Now()
		const ops = 30
		for i := 0; i < ops; i++ {
			h.WriteAt(th, buf, 0)
		}
		return (th.Clk.Now() - start) / ops
	}
	mk := func(o baselines.NOVAOptions) int64 {
		dev := nvm.New(nvm.Config{Size: 512 << 20, TrackPersistence: false})
		return perOp(baselines.NewNOVA(dev, o), proc.NewProcess(dev, 0, 0))
	}
	nova := mk(baselines.NOVAOptions{})
	noindex := mk(baselines.NOVAOptions{NoIndex: true})
	if noindex >= nova {
		t.Fatalf("index update should cost: nova=%d noindex=%d", nova, noindex)
	}
	// PMFS-nocache beats stock PMFS (non-temporal vs clwb, Figure 8).
	perPMFS := func(o baselines.PMFSOptions) int64 {
		dev := nvm.New(nvm.Config{Size: 512 << 20, TrackPersistence: false})
		return perOp(baselines.NewPMFS(dev, o), proc.NewProcess(dev, 0, 0))
	}
	stock := perPMFS(baselines.PMFSOptions{})
	nocache := perPMFS(baselines.PMFSOptions{Nocache: true})
	if nocache >= stock {
		t.Fatalf("nocache should beat stock PMFS: %d vs %d", nocache, stock)
	}
}

// TestUnlinkedOpenFileKeepsItsPages: a file unlinked while a handle is open
// keeps its pages until that handle closes, as POSIX orphans do: files
// created after the unlink get other pages, so the open handle still reads
// its own contents.
func TestUnlinkedOpenFileKeepsItsPages(t *testing.T) {
	for name, build := range map[string]func(*nvm.Device) *baselines.Engine{
		"PMFS":     func(d *nvm.Device) *baselines.Engine { return baselines.NewPMFS(d, baselines.PMFSOptions{}) },
		"NOVA":     func(d *nvm.Device) *baselines.Engine { return baselines.NewNOVA(d, baselines.NOVAOptions{}) },
		"Strata":   baselines.NewStrata,
		"Ext4-DAX": baselines.NewExt4DAX,
	} {
		fs, th := factoryFor(build)(t)
		old := bytes.Repeat([]byte{'o'}, 3*4096)
		h, err := fs.Create(th, "/victim", 0o644)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := h.WriteAt(th, old, 0); err != nil {
			t.Fatal(err)
		}
		if err := fs.Unlink(th, "/victim"); err != nil {
			t.Fatal(err)
		}
		for i := range 4 {
			g, err := fs.Create(th, fmt.Sprintf("/new%d", i), 0o644)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := g.WriteAt(th, bytes.Repeat([]byte{'n'}, len(old)), 0); err != nil {
				t.Fatal(err)
			}
			g.Close(th)
		}
		got := make([]byte, len(old))
		if _, err := h.ReadAt(th, got, 0); err != nil || !bytes.Equal(got, old) {
			t.Fatalf("%s: the open handle of an unlinked file reads %q… (err %v), want its own data", name, got[:8], err)
		}
		h.Close(th)
	}
}
