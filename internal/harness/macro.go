package harness

import (
	"fmt"
	"io"

	"zofs/internal/filebench"
	"zofs/internal/sysfactory"
)

// filebenchKops is the observedCell run of one Filebench cell: its
// throughput.
func filebenchKops(cfg filebench.Config, threads int, targetNS int64) func(*sysfactory.Instance) (float64, error) {
	return func(in *sysfactory.Instance) (float64, error) {
		in.SetConcurrency(threads)
		r, err := filebench.Run(in.FS, in.Proc, cfg, threads, targetNS)
		return r.KopsPerSec, err
	}
}

// RunFig9 sweeps the four Filebench personalities over threads for every
// compared system, plus the ZoFS-20dirwidth lines for webproxy and varmail
// (paper Figure 9).
func RunFig9(w io.Writer, opts Options) error {
	opts.fill()
	fmt.Fprintln(w, "Figure 9: Filebench throughput (kops/s)")
	for _, p := range filebench.All {
		cols := names(sysfactory.Comparison)
		if p == filebench.Webproxy || p == filebench.Varmail {
			cols = append(cols, "ZoFS-20dirwidth")
		}
		err := table(w, "\n("+string(p)+")", "threads", cols, strs(opts.Threads), "%.1f", func(r, c int) (float64, error) {
			sys, cfg, th := sysfactory.ZoFS, filebench.Default(p), opts.Threads[r]
			if c < len(sysfactory.Comparison) {
				sys = sysfactory.Comparison[c]
			} else { // ZoFS at dir-width 20, its cells labelled by the column
				sys.Name, cfg.DirWidth = cols[c], 20
			}
			return observedCell(sys, string(p), th, opts.DeviceBytes, filebenchKops(cfg, th, opts.TargetNS))
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// RunFig10 prints the customized configurations (paper Figure 10):
// single-threaded fileserver and varmail with dir-width 20.
func RunFig10(w io.Writer, opts Options) error {
	opts.fill()
	systems := sysfactory.Comparison
	err := table(w, "Figure 10(a): Fileserver with one thread (kops/s)", "System", []string{"kops/s"}, names(systems), "%.1f", func(r, _ int) (float64, error) {
		return observedCell(systems[r], string(filebench.Fileserver), 1, opts.DeviceBytes,
			filebenchKops(filebench.Default(filebench.Fileserver), 1, opts.TargetNS))
	})
	if err != nil {
		return err
	}

	cfg := filebench.Default(filebench.Varmail)
	cfg.DirWidth = 20
	threads := []int{1, 4}
	return table(w, "\nFigure 10(b): Varmail with dir-width=20 (kops/s)", "System", []string{"threads=1", "threads=4"}, names(systems), "%.1f", func(r, c int) (float64, error) {
		return observedCell(systems[r], string(filebench.Varmail), threads[c], opts.DeviceBytes, filebenchKops(cfg, threads[c], opts.TargetNS))
	})
}
