// Command zofs-top is a terminal monitor for the causal-span layer: it polls
// the spans.json snapshot that a running `zofs-bench -spans <dir>` publishes
// and redraws the latency-attribution tables in place, top(1)-style — per-op
// component percentages, the critical-path summary and the lock-contention
// table, live while the benchmark runs. When the same directory carries a
// series.jsonl (zofs-bench -series), a virtual-time timeline panel rides
// below: the latest windows with op counts, p99s and SLO burn.
//
// Usage:
//
//	zofs-top [-dir results] [-interval 1s] [-once]
//	zofs-top -json [-dir results]
//
// -once renders a single frame and exits (scripts, CI). -json emits one
// machine-readable frame — the span snapshot plus the windowed series —
// and exits. The published spans.prom is checked by zofs-perfdiff -validate.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"text/tabwriter"
	"time"

	"zofs/internal/series"
	"zofs/internal/spans"
)

// timelineRows bounds the timeline panel to the latest windows.
const timelineRows = 12

func main() {
	dir := flag.String("dir", "results", "directory being published by zofs-bench -spans/-series")
	interval := flag.Duration("interval", time.Second, "refresh interval")
	once := flag.Bool("once", false, "render one frame and exit")
	jsonOut := flag.Bool("json", false, "emit one frame as JSON (spans snapshot + series windows) and exit")
	flag.Parse()

	if *jsonOut {
		if err := renderJSON(*dir); err != nil {
			fatal(err)
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
		// Clear screen + home, like top; stale-file errors just wait for the
		// publisher to catch up.
		if err := render(*dir, true); err != nil {
			fmt.Printf("zofs-top: %v (waiting)\n", err)
		}
		time.Sleep(*interval)
	}
}

// loadSnapshot reads the published spans.json, nil when absent.
func loadSnapshot(dir string) (*spans.Snapshot, time.Time, error) {
	path := filepath.Join(dir, "spans.json")
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, time.Time{}, err
	}
	var snap spans.Snapshot
	if err := json.Unmarshal(raw, &snap); err != nil {
		return nil, time.Time{}, fmt.Errorf("%s: %w", path, err)
	}
	st, err := os.Stat(path)
	if err != nil {
		return nil, time.Time{}, err
	}
	return &snap, st.ModTime(), nil
}

// loadWindows reads the published series.jsonl; nil (no error) when the
// directory has no series feed.
func loadWindows(dir string) ([]series.Window, error) {
	f, err := os.Open(filepath.Join(dir, "series.jsonl"))
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, err
	}
	defer f.Close()
	return series.ReadJSONL(f)
}

func render(dir string, clear bool) error {
	snap, mod, snapErr := loadSnapshot(dir)
	wins, winErr := loadWindows(dir)
	if snapErr != nil && wins == nil {
		// Nothing published at all — report the primary feed's error.
		return snapErr
	}
	if clear {
		fmt.Print("\x1b[2J\x1b[H")
	}
	if snap != nil {
		fmt.Printf("zofs-top — %s (published %s ago)\n\n", filepath.Join(dir, "spans.json"),
			time.Since(mod).Round(100*time.Millisecond))
		if err := snap.WriteText(os.Stdout); err != nil {
			return err
		}
	}
	if winErr != nil {
		return winErr
	}
	if len(wins) > 0 {
		fmt.Println()
		if err := writeTimeline(os.Stdout, wins); err != nil {
			return err
		}
	}
	return nil
}

// writeTimeline renders the latest windows: per-window op volume, the
// slowest op kind by p99, and the worst windowed SLO burn.
func writeTimeline(w *os.File, wins []series.Window) error {
	fmt.Fprintf(w, "timeline (virtual time, %d windows total)\n", len(wins))
	if len(wins) > timelineRows {
		wins = wins[len(wins)-timelineRows:]
	}
	t := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(t, "window\tstart ms\tops\tworst op\tp99 ns\tmax burn")
	for _, win := range wins {
		var total int64
		worstOp, worstP99 := "-", int64(0)
		var maxBurn float64
		names := make([]string, 0, len(win.Ops))
		for name := range win.Ops {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			ow := win.Ops[name]
			total += ow.Count
			if ow.P99NS > worstP99 {
				worstOp, worstP99 = name, ow.P99NS
			}
			if ow.SLOBurn > maxBurn {
				maxBurn = ow.SLOBurn
			}
		}
		fmt.Fprintf(t, "%d\t%.3f\t%d\t%s\t%d\t%.2f\n",
			win.Index, float64(win.StartNS)/1e6, total, worstOp, worstP99, maxBurn)
	}
	return t.Flush()
}

// renderJSON emits one combined machine-readable frame.
func renderJSON(dir string) error {
	snap, _, snapErr := loadSnapshot(dir)
	wins, winErr := loadWindows(dir)
	if winErr != nil {
		return winErr
	}
	if snap == nil && wins == nil {
		return fmt.Errorf("nothing published in %s: %v", dir, snapErr)
	}
	doc := struct {
		Spans   *spans.Snapshot `json:"spans,omitempty"`
		Windows []series.Window `json:"windows,omitempty"`
	}{snap, wins}
	raw, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	_, err = fmt.Printf("%s\n", raw)
	return err
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "zofs-top: %v\n", err)
	os.Exit(1)
}
