package harness

import (
	"fmt"
	"io"

	"zofs/internal/lsmdb"
	"zofs/internal/sysfactory"
	"zofs/internal/tpcc"
)

// appSystems is the Table 7/Figure 11 comparison set (Strata could not run
// the application experiments in the paper either).
func appSystems() []sysfactory.System {
	return []sysfactory.System{sysfactory.Ext4DAX, sysfactory.PMFS, sysfactory.NOVA, sysfactory.ZoFS}
}

// RunTable7 runs the LevelDB-style db_bench rows on every system (paper
// Table 7), reporting µs/op.
func RunTable7(w io.Writer, opts Options) error {
	opts.fill()
	n := 50000
	if opts.Quick {
		n = 5000
	}
	fmt.Fprintln(w, "Table 7: Latency of LevelDB db_bench (µs/op)")
	t := tw(w)
	fmt.Fprint(t, "Latency/µs")
	for _, sys := range appSystems() {
		fmt.Fprintf(t, "\t%s", sys.Name)
	}
	fmt.Fprintln(t)
	for _, op := range lsmdb.BenchOps {
		fmt.Fprintf(t, "%s", op)
		for _, sys := range appSystems() {
			in, err := sys.New(opts.DeviceBytes, false)
			if err != nil {
				return err
			}
			r, err := lsmdb.RunBench(in.FS, in.Proc, op, n)
			if err != nil {
				return fmt.Errorf("table7 %s/%s: %w", sys.Name, op, err)
			}
			fmt.Fprintf(t, "\t%.3f", r.MicrosPerOp)
		}
		fmt.Fprintln(t)
	}
	return t.Flush()
}

// RunFig11 runs TPC-C on the SQLite-like engine for the four workloads of
// the paper (mixed per Table 8's 44/44/4/4/4, then NEW, OS and PAY alone),
// single-threaded with 1 warehouse and 10 districts. Its cells are the ZoFS
// leads over PMFS and NOVA that Table 8's text states for mixed and OS, as
// ratios of throughput.
func RunFig11(w io.Writer, opts Options) ([]Cell, error) {
	opts.fill()
	cfg := tpcc.Default()
	n := 2000
	if opts.Quick {
		cfg = tpcc.Config{Warehouses: 1, Districts: 10, CustomersPerDistrict: 300, Items: 2000}
		n = 300
	}
	fmt.Fprintf(w, "Figure 11: TPC-C SQLite throughput (tx/s); mix NEW/PAY/OS/DLY/SL = 44/44/4/4/4 (Table 8)\n")
	t := tw(w)
	fmt.Fprintln(t, "System\tmixed\tNEW\tOS\tPAY")
	tps := map[string]float64{}
	for _, sys := range appSystems() {
		fmt.Fprintf(t, "%s", sys.Name)
		for _, wl := range []string{"mixed", "NEW", "OS", "PAY"} {
			in, err := sys.New(opts.DeviceBytes, false)
			if err != nil {
				return nil, err
			}
			th := in.Proc.NewThread()
			db, err := tpcc.Setup(in.FS, th, cfg)
			if err != nil {
				return nil, fmt.Errorf("fig11 %s setup: %w", sys.Name, err)
			}
			r, err := tpcc.RunWorkload(db, in.Proc, cfg, wl, n)
			if err != nil {
				return nil, fmt.Errorf("fig11 %s/%s: %w", sys.Name, wl, err)
			}
			fmt.Fprintf(t, "\t%.0f", r.TxPerSec)
			tps[sys.Name+"/"+wl] = r.TxPerSec
		}
		fmt.Fprintln(t)
	}
	// Table 8: ZoFS +9 % over PMFS and +31 % over NOVA on mixed, +7 % and
	// +11 % on OS.
	var cells []Cell
	for _, c := range []struct {
		wl, sys string
		lead    float64
	}{{"mixed", "PMFS", 1.09}, {"mixed", "NOVA", 1.31}, {"OS", "PMFS", 1.07}, {"OS", "NOVA", 1.11}} {
		cells = append(cells, Cell{"table8/" + c.wl + "/ZoFS/" + c.sys, c.lead, tps["ZoFS/"+c.wl] / tps[c.sys+"/"+c.wl]})
	}
	return cells, t.Flush()
}
