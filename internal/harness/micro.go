package harness

import (
	"fmt"
	"io"

	"zofs/internal/fxmark"
	"zofs/internal/obsfs"
	"zofs/internal/proc"
	"zofs/internal/sysfactory"
	"zofs/internal/vfs"
)

// RunTable2 reproduces the shared-file/shared-directory latency comparison
// (paper Table 2): average latency of a 4KB append to a shared file and of
// an empty-file create in a shared directory, with one process and with
// two processes alternating — the experiment that exposes Strata's
// digestion cost. Every cell is scored against the paper's.
func RunTable2(w io.Writer, opts Options) ([]Cell, error) {
	opts.fill()
	systems := []sysfactory.System{sysfactory.Strata, sysfactory.NOVA, sysfactory.ZoFS}
	ops := 200
	if opts.Quick {
		ops = 60
	}

	type cell struct {
		op    string
		procs int
	}
	rows := []cell{{"append", 1}, {"append", 2}, {"create", 1}, {"create", 2}}
	// The paper's Table 2, row by row, in the order of systems.
	paper := [][3]float64{{1653, 2172, 1147}, {34551, 3882, 1703}, {4195, 3534, 2494}, {283972, 6167, 3459}}
	results := map[string]map[cell]int64{}

	for _, sys := range systems {
		results[sys.Name] = map[cell]int64{}
		for _, c := range rows {
			lat, err := table2Latency(sys, c.op, c.procs, ops)
			if err != nil {
				return nil, fmt.Errorf("table2 %s/%s/%d: %w", sys.Name, c.op, c.procs, err)
			}
			results[sys.Name][c] = lat
		}
	}
	fmt.Fprintln(w, "Table 2: Latency (ns) of operations on a file/directory shared by multiple processes")
	t := tw(w)
	fmt.Fprintln(t, "Operation\t# Processes\tStrata\tNOVA\tZoFS")
	var cells []Cell
	for i, c := range rows {
		fmt.Fprintf(t, "%s\t%d\t%d\t%d\t%d\n", c.op, c.procs,
			results["Strata"][c], results["NOVA"][c], results["ZoFS"][c])
		for j, sys := range systems {
			cells = append(cells, Cell{fmt.Sprintf("table2/%s/%d/%s", c.op, c.procs, sys.Name),
				paper[i][j], float64(results[sys.Name][c])})
		}
	}
	return cells, t.Flush()
}

// table2Latency measures avg ns/op for appends to one shared file or
// creates in one shared directory, by nProcs processes taking turns.
func table2Latency(sys sysfactory.System, op string, nProcs, ops int) (int64, error) {
	in, err := sys.New(2<<30, false)
	if err != nil {
		return 0, err
	}
	setup := in.Proc.NewThread()

	// Every process gets its own FSLibs-style view. For ZoFS, a second
	// process means a second µFS instance over the same kernel.
	type actor struct {
		th *proc.Thread
		fs vfs.FileSystem
		h  vfs.Handle
	}
	actors := make([]*actor, nProcs)
	actors[0] = &actor{th: in.Proc.NewThread(), fs: in.FS}
	for i := 1; i < nProcs; i++ {
		fs2, p2, err := secondProcess(sys, in)
		if err != nil {
			return 0, err
		}
		actors[i] = &actor{th: p2.NewThread(), fs: fs2}
	}

	if err := in.FS.Mkdir(setup, "/shared", 0o777); err != nil {
		return 0, err
	}
	if op == "append" {
		h, err := in.FS.Create(setup, "/shared/f", 0o666)
		if err != nil {
			return 0, err
		}
		actors[0].h = h
		for i := 1; i < nProcs; i++ {
			h2, err := actors[i].fs.Open(actors[i].th, "/shared/f", vfs.O_RDWR)
			if err != nil {
				return 0, err
			}
			actors[i].h = h2
		}
	}

	// Warm up each actor before timing: the first operations pay one-time
	// costs (allocator lease grants of hundreds of pages, cold hash
	// buckets) that the paper's long steady-state runs amortize away.
	for w := 0; w < 8; w++ {
		for ai, a := range actors {
			switch op {
			case "append":
				if _, err := a.h.Append(a.th, make([]byte, 4096)); err != nil {
					return 0, err
				}
			case "create":
				h, err := a.fs.Create(a.th, fmt.Sprintf("/shared/w-%d-%d", ai, w), 0o666)
				if err != nil {
					return 0, err
				}
				h.Close(a.th)
			}
		}
	}

	// Align clocks past setup. Each round, every process issues its
	// operation at the same virtual instant — the continuous-concurrent-
	// appenders pattern of the paper's experiment. Shared virtual-time
	// resources (per-file locks, Strata's lease/digestion) serialize the
	// round, so measured latency includes contention.
	start := setup.Clk.Now()
	for _, a := range actors {
		if a.th.Clk.Now() > start {
			start = a.th.Clk.Now()
		}
	}
	for _, a := range actors {
		a.th.Clk.AdvanceTo(start)
	}

	block := make([]byte, 4096)
	var total int64
	count := 0
	for i := 0; i < ops; i++ {
		roundStart := int64(0)
		for _, a := range actors {
			if a.th.Clk.Now() > roundStart {
				roundStart = a.th.Clk.Now()
			}
		}
		for ai, a := range actors {
			a.th.Clk.AdvanceTo(roundStart)
			switch op {
			case "append":
				if _, err := a.h.Append(a.th, block); err != nil {
					return 0, err
				}
			case "create":
				p := fmt.Sprintf("/shared/n-%d-%d", ai, i)
				h, err := a.fs.Create(a.th, p, 0o666)
				if err != nil {
					return 0, err
				}
				h.Close(a.th)
			}
			total += a.th.Clk.Now() - roundStart
			count++
		}
	}
	return total / int64(count), nil
}

// secondProcess attaches another process to an existing instance.
func secondProcess(sys sysfactory.System, in *sysfactory.Instance) (vfs.FileSystem, *proc.Process, error) {
	p2 := proc.NewProcess(in.Dev, 0, 0)
	switch fs := in.FS.(type) {
	case secondMounter:
		f2, err := fs.SecondMount(p2)
		return f2, p2, err
	default:
		// Kernel FSs: the same engine serves every process.
		return in.FS, p2, nil
	}
}

// secondMounter lets a file system produce a per-process instance.
type secondMounter interface {
	SecondMount(p *proc.Process) (vfs.FileSystem, error)
}

// fxmarkCell runs one FxMark cell on a fresh instance. Benchmarks drive the
// vfs interface directly (bypassing FSLibs), so a run under observation sees
// its ops through the obsfs wrapper and closes its cell of the session's
// log; with nothing collecting, both calls do nothing.
func fxmarkCell(in *sysfactory.Instance, wl fxmark.Workload, threads int, targetNS int64) (fxmark.Result, error) {
	env := &fxmark.Env{FS: obsfs.Wrap(in.FS, nil), Proc: in.Proc, SetConcurrency: in.SetConcurrency}
	r, err := fxmark.Run(env, wl, threads, targetNS)
	if err == nil {
		obsfs.EndCell(fmt.Sprintf("%s/%s/%d", in.Name, wl, threads), nil)
	}
	return r, err
}

// RunFig7 sweeps the FxMark workloads over the thread counts for every
// compared file system (paper Figure 7).
func RunFig7(w io.Writer, opts Options) error {
	opts.fill()
	fmt.Fprintln(w, "Figure 7: FxMark throughput (Mops/s), 4KB units")
	for _, wl := range fxmark.All {
		fmt.Fprintf(w, "\n(%s)\n", wl)
		t := tw(w)
		fmt.Fprint(t, "threads")
		for _, sys := range comparisonSystems() {
			fmt.Fprintf(t, "\t%s", sys.Name)
		}
		fmt.Fprintln(t)
		for _, th := range opts.Threads {
			fmt.Fprintf(t, "%d", th)
			for _, sys := range comparisonSystems() {
				in, err := sys.New(opts.DeviceBytes, false)
				if err != nil {
					return err
				}
				r, err := fxmarkCell(in, wl, th, opts.TargetNS)
				if err != nil {
					return fmt.Errorf("fig7 %s/%s/%d: %w", sys.Name, wl, th, err)
				}
				fmt.Fprintf(t, "\t%.3f", r.MopsPerSec)
			}
			fmt.Fprintln(t)
		}
		if err := t.Flush(); err != nil {
			return err
		}
	}
	return nil
}

// RunFig8 reproduces the DWOL breakdown (paper Figure 8): ZoFS and its
// instrumented variants against the NOVA/PMFS variants, single-threaded.
// Its bars are cells without a paper value: the repository records the
// paper's grouping of them, not their heights.
func RunFig8(w io.Writer, opts Options) ([]Cell, error) {
	opts.fill()
	systems := []sysfactory.System{
		sysfactory.ZoFS, sysfactory.ZoFSSysEmpty,
		sysfactory.NOVANoIndex, sysfactory.PMFSNocache, sysfactory.ZoFSKWrite, sysfactory.NOVAiNoIndex,
		sysfactory.PMFS, sysfactory.NOVA, sysfactory.NOVAi,
	}
	fmt.Fprintln(w, "Figure 8: Throughput breakdown of DWOL (Mops/s, 1 thread)")
	t := tw(w)
	fmt.Fprintln(t, "System\tMops/s")
	var cells []Cell
	for _, sys := range systems {
		in, err := sys.New(1<<30, false)
		if err != nil {
			return nil, err
		}
		r, err := fxmarkCell(in, fxmark.DWOL, 1, opts.TargetNS)
		if err != nil {
			return nil, fmt.Errorf("fig8 %s: %w", sys.Name, err)
		}
		fmt.Fprintf(t, "%s\t%.3f\n", sys.Name, r.MopsPerSec)
		cells = append(cells, Cell{Name: "fig8/" + sys.Name, Ours: r.MopsPerSec})
	}
	return cells, t.Flush()
}
