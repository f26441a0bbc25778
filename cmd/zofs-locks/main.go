// Command zofs-locks is the terminal front end of the lock-contention
// profiler: it reads the locks.json report that a running
// `zofs-bench -lockprof <dir>` publishes and renders the named-lock
// contention table, the hold-while-waiting wait-for edges, any lock-order
// inversions and the busiest waiter threads — once, or redrawn in place,
// top(1)-style.
//
// Usage:
//
//	zofs-locks [-dir results] [-interval 1s] [-once]
//	zofs-locks -om out.prom [-dir results]
//	zofs-locks -dot waitfor.dot [-dir results]
//
// -om re-renders the report as OpenMetrics (the same bytes the publisher
// writes to locks.prom, which zofs-perfdiff -validate checks); -dot exports
// the wait-for graph for Graphviz, with inversion-implicated lock classes
// highlighted.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"zofs/internal/lockprof"
)

func main() {
	dir := flag.String("dir", "results", "directory being published by zofs-bench -lockprof")
	interval := flag.Duration("interval", time.Second, "refresh interval")
	once := flag.Bool("once", false, "render one frame and exit")
	om := flag.String("om", "", "write the report as OpenMetrics to this file ('-' for stdout) and exit")
	dot := flag.String("dot", "", "write the wait-for graph as Graphviz DOT to this file ('-' for stdout) and exit")
	flag.Parse()

	if *om != "" || *dot != "" {
		rep, err := load(*dir)
		if err != nil {
			fatal(err)
		}
		if *om != "" {
			if err := emit(*om, func(w *os.File) error { return lockprof.WriteOpenMetrics(w, *rep) }); err != nil {
				fatal(err)
			}
		}
		if *dot != "" {
			if err := emit(*dot, func(w *os.File) error { return rep.WriteDOT(w) }); err != nil {
				fatal(err)
			}
		}
		return
	}

	if *once {
		if err := render(*dir, false); err != nil {
			fatal(err)
		}
		return
	}
	for {
		if err := render(*dir, true); err != nil {
			fmt.Printf("zofs-locks: %v (waiting)\n", err)
		}
		time.Sleep(*interval)
	}
}

func load(dir string) (*lockprof.Report, error) {
	blob, err := os.ReadFile(filepath.Join(dir, "locks.json"))
	if err != nil {
		return nil, err
	}
	var rep lockprof.Report
	if err := json.Unmarshal(blob, &rep); err != nil {
		return nil, fmt.Errorf("%s: %v", filepath.Join(dir, "locks.json"), err)
	}
	return &rep, nil
}

func render(dir string, clear bool) error {
	rep, err := load(dir)
	if err != nil {
		return err
	}
	if clear {
		fmt.Print("\x1b[2J\x1b[H")
		fmt.Printf("zofs-locks · %s · %s\n\n", filepath.Join(dir, "locks.json"), time.Now().Format("15:04:05"))
	}
	return rep.WriteText(os.Stdout)
}

func emit(path string, write func(*os.File) error) error {
	if path == "-" {
		return write(os.Stdout)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "zofs-locks: %v\n", err)
	os.Exit(1)
}
