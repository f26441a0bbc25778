package harness

import (
	"fmt"
	"io"

	"zofs/internal/fxmark"
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

	rows := []struct {
		op    string
		procs int
	}{{"append", 1}, {"append", 2}, {"create", 1}, {"create", 2}}
	// The paper's Table 2, row by row, in the order of systems.
	paper := [][3]float64{{1653, 2172, 1147}, {34551, 3882, 1703}, {4195, 3534, 2494}, {283972, 6167, 3459}}
	labels := make([]string, len(rows))
	for i, c := range rows {
		labels[i] = fmt.Sprintf("%s\t%d", c.op, c.procs)
	}
	lat := make([][3]float64, len(rows)) // by row, then system
	for j, sys := range systems {
		for i, c := range rows {
			ns, err := table2Latency(sys, c.op, c.procs, ops)
			if err != nil {
				return nil, fmt.Errorf("%s/%s/%d: %w", sys.Name, c.op, c.procs, err)
			}
			lat[i][j] = float64(ns)
		}
	}
	var cells []Cell
	err := table(w, "Table 2: Latency (ns) of operations on a file/directory shared by multiple processes", "Operation\t# Processes", names(systems), labels, "%.0f", func(r, c int) (float64, error) {
		cells = append(cells, Cell{fmt.Sprintf("table2/%s/%d/%s", rows[r].op, rows[r].procs, systems[c].Name), paper[r][c], lat[r][c]})
		return lat[r][c], nil
	})
	return cells, err
}

// table2Latency measures avg ns/op for appends to one shared file or
// creates in one shared directory, by nProcs processes taking turns.
func table2Latency(sys sysfactory.System, op string, nProcs, ops int) (int64, error) {
	in, err := sys.New(2<<30, false)
	if err != nil {
		return 0, err
	}
	setup := in.Proc.NewThread()

	// Every process gets its own view: for ZoFS, a spawned process's own
	// µFS instance over the same kernel.
	type actor struct {
		th *proc.Thread
		fs vfs.FileSystem
		h  vfs.Handle
	}
	actors := make([]*actor, nProcs)
	actors[0] = &actor{th: in.Proc.NewThread(), fs: in.FS}
	for i := 1; i < nProcs; i++ {
		sp, err := in.Spawn(0, 0)
		if err != nil {
			return 0, err
		}
		actors[i] = &actor{th: sp.Proc.NewThread(), fs: sp.FS}
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
		start = max(start, a.th.Clk.Now())
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
			roundStart = max(roundStart, a.th.Clk.Now())
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

// fxmarkMops is the observedCell run of one FxMark cell: its throughput.
func fxmarkMops(wl fxmark.Workload, threads int, targetNS int64) func(*sysfactory.Instance) (float64, error) {
	return func(in *sysfactory.Instance) (float64, error) {
		r, err := fxmark.Run(&fxmark.Env{FS: in.FS, Proc: in.Proc, SetConcurrency: in.SetConcurrency}, wl, threads, targetNS)
		return r.MopsPerSec, err
	}
}

// RunFig7 sweeps the FxMark workloads over the thread counts for every
// compared file system (paper Figure 7).
func RunFig7(w io.Writer, opts Options) error {
	opts.fill()
	fmt.Fprintln(w, "Figure 7: FxMark throughput (Mops/s), 4KB units")
	systems := sysfactory.Comparison
	for _, wl := range fxmark.All {
		err := table(w, "\n("+string(wl)+")", "threads", names(systems), strs(opts.Threads), "%.3f", func(r, c int) (float64, error) {
			return observedCell(systems[c], string(wl), opts.Threads[r], opts.DeviceBytes, fxmarkMops(wl, opts.Threads[r], opts.TargetNS))
		})
		if err != nil {
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
	var cells []Cell
	err := table(w, "Figure 8: Throughput breakdown of DWOL (Mops/s, 1 thread)", "System", []string{"Mops/s"}, names(systems), "%.3f", func(r, _ int) (float64, error) {
		mops, err := observedCell(systems[r], string(fxmark.DWOL), 1, 1<<30, fxmarkMops(fxmark.DWOL, 1, opts.TargetNS))
		cells = append(cells, Cell{Name: "fig8/" + systems[r].Name, Ours: mops})
		return mops, err
	})
	return cells, err
}
