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
var appSystems = []sysfactory.System{sysfactory.Ext4DAX, sysfactory.PMFS, sysfactory.NOVA, sysfactory.ZoFS}

// RunTable7 runs the LevelDB-style db_bench rows on every system (paper
// Table 7), reporting µs/op.
func RunTable7(w io.Writer, opts Options) error {
	opts.fill()
	n := 50000
	if opts.Quick {
		n = 5000
	}
	return table(w, "Table 7: Latency of LevelDB db_bench (µs/op)", "Latency/µs", names(appSystems), strs(lsmdb.BenchOps), "%.3f", func(r, c int) (float64, error) {
		return observedCell(appSystems[c], string(lsmdb.BenchOps[r]), 1, opts.DeviceBytes, func(in *sysfactory.Instance) (float64, error) {
			res, err := lsmdb.RunBench(in.FS, in.Proc, lsmdb.BenchOps[r], n)
			return res.MicrosPerOp, err
		})
	})
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
	systems, workloads := appSystems, []string{"mixed", "NEW", "OS", "PAY"}
	tps := map[string]float64{}
	err := table(w, "Figure 11: TPC-C SQLite throughput (tx/s); mix NEW/PAY/OS/DLY/SL = 44/44/4/4/4 (Table 8)", "System", workloads, names(systems), "%.0f", func(r, c int) (float64, error) {
		sys, wl := systems[r], workloads[c]
		v, err := observedCell(sys, wl, 1, opts.DeviceBytes, func(in *sysfactory.Instance) (float64, error) {
			db, err := tpcc.Setup(in.FS, in.Proc.NewThread(), cfg)
			if err != nil {
				return 0, fmt.Errorf("setup: %w", err)
			}
			res, err := tpcc.RunWorkload(db, in.Proc, cfg, wl, n)
			return res.TxPerSec, err
		})
		tps[sys.Name+"/"+wl] = v
		return v, err
	})
	// Table 8: ZoFS +9 % over PMFS and +31 % over NOVA on mixed, +7 % and
	// +11 % on OS.
	var cells []Cell
	for _, c := range []struct {
		wl, sys string
		lead    float64
	}{{"mixed", "PMFS", 1.09}, {"mixed", "NOVA", 1.31}, {"OS", "PMFS", 1.07}, {"OS", "NOVA", 1.11}} {
		cells = append(cells, Cell{"table8/" + c.wl + "/ZoFS/" + c.sys, c.lead, tps["ZoFS/"+c.wl] / tps[c.sys+"/"+c.wl]})
	}
	return cells, err
}
