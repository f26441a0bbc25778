package harness

import (
	"fmt"
	"io"

	"zofs/internal/filebench"
	"zofs/internal/obsfs"
	"zofs/internal/sysfactory"
)

// runFilebenchCell builds a fresh instance and runs one personality cell,
// observed the way fxmarkCell's is.
func runFilebenchCell(sys sysfactory.System, cfg filebench.Config, threads int, opts Options) (filebench.Result, error) {
	in, err := sys.New(opts.DeviceBytes, false)
	if err != nil {
		return filebench.Result{}, err
	}
	in.SetConcurrency(threads)
	r, err := filebench.Run(obsfs.Wrap(in.FS, nil), in.Proc, cfg, threads, opts.TargetNS)
	if err == nil {
		obsfs.EndCell(fmt.Sprintf("%s/%s/%d", sys.Name, cfg.Personality, threads), nil)
	}
	return r, err
}

// RunFig9 sweeps the four Filebench personalities over threads for every
// compared system, plus the ZoFS-20dirwidth lines for webproxy and varmail
// (paper Figure 9).
func RunFig9(w io.Writer, opts Options) error {
	opts.fill()
	fmt.Fprintln(w, "Figure 9: Filebench throughput (kops/s)")
	for _, p := range filebench.All {
		fmt.Fprintf(w, "\n(%s)\n", p)
		t := tw(w)
		fmt.Fprint(t, "threads")
		for _, sys := range comparisonSystems() {
			fmt.Fprintf(t, "\t%s", sys.Name)
		}
		withNarrow := p == filebench.Webproxy || p == filebench.Varmail
		if withNarrow {
			fmt.Fprint(t, "\tZoFS-20dirwidth")
		}
		fmt.Fprintln(t)
		for _, th := range opts.Threads {
			fmt.Fprintf(t, "%d", th)
			for _, sys := range comparisonSystems() {
				r, err := runFilebenchCell(sys, filebench.Default(p), th, opts)
				if err != nil {
					return fmt.Errorf("fig9 %s/%s/%d: %w", sys.Name, p, th, err)
				}
				fmt.Fprintf(t, "\t%.1f", r.KopsPerSec)
			}
			if withNarrow {
				cfg := filebench.Default(p)
				cfg.DirWidth = 20
				r, err := runFilebenchCell(sysfactory.ZoFS, cfg, th, opts)
				if err != nil {
					return err
				}
				fmt.Fprintf(t, "\t%.1f", r.KopsPerSec)
			}
			fmt.Fprintln(t)
		}
		if err := t.Flush(); err != nil {
			return err
		}
	}
	return nil
}

// RunFig10 prints the customized configurations (paper Figure 10):
// single-threaded fileserver and varmail with dir-width 20.
func RunFig10(w io.Writer, opts Options) error {
	opts.fill()
	fmt.Fprintln(w, "Figure 10(a): Fileserver with one thread (kops/s)")
	t := tw(w)
	fmt.Fprintln(t, "System\tkops/s")
	for _, sys := range comparisonSystems() {
		r, err := runFilebenchCell(sys, filebench.Default(filebench.Fileserver), 1, opts)
		if err != nil {
			return err
		}
		fmt.Fprintf(t, "%s\t%.1f\n", sys.Name, r.KopsPerSec)
	}
	if err := t.Flush(); err != nil {
		return err
	}

	fmt.Fprintln(w, "\nFigure 10(b): Varmail with dir-width=20 (kops/s)")
	t = tw(w)
	fmt.Fprintln(t, "System\tthreads=1\tthreads=4")
	cfg := filebench.Default(filebench.Varmail)
	cfg.DirWidth = 20
	for _, sys := range comparisonSystems() {
		r1, err := runFilebenchCell(sys, cfg, 1, opts)
		if err != nil {
			return err
		}
		r4, err := runFilebenchCell(sys, cfg, 4, opts)
		if err != nil {
			return err
		}
		fmt.Fprintf(t, "%s\t%.1f\t%.1f\n", sys.Name, r1.KopsPerSec, r4.KopsPerSec)
	}
	return t.Flush()
}
