package harness

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"zofs/internal/obsfs"
	"zofs/internal/series"
	"zofs/internal/spans"
	"zofs/internal/telemetry"
	"zofs/internal/vfs"
)

// statsCell is one benchmark cell's telemetry interval in the sidecar JSON.
// Extra carries experiment-specific scalars (e.g. recovery timing) that the
// telemetry counters do not capture.
type statsCell struct {
	Label   string             `json:"label"`
	Metrics telemetry.Snapshot `json:"metrics"`
	Spans   *spans.Snapshot    `json:"spans,omitempty"`
	Extra   map[string]int64   `json:"extra,omitempty"`
}

// statsRun collects per-cell telemetry for one experiment when Options.Stats
// is set. The nil *statsRun is a valid no-op, so experiment code calls it
// unconditionally.
type statsRun struct {
	name      string
	tag       string // run-configuration suffix keeping sweep sidecars distinct
	dir       string
	rec       *telemetry.Recorder
	prev      telemetry.Snapshot
	spansPrev spans.Snapshot
	cells     []statsCell
}

// sidecarTag derives a filename suffix from the run's configuration so
// repeated runs of one experiment under different configs (quick vs full,
// different thread sweeps) do not overwrite each other's sidecars.
func sidecarTag(opts Options) string {
	tag := "full"
	if opts.Quick {
		tag = "quick"
	}
	if spans.Active() != nil {
		// Span collection perturbs nothing in virtual time, but the sidecar
		// should say how its numbers were gathered.
		tag += "-spans"
	}
	if series.Active() != nil {
		tag += "-series"
	}
	if len(opts.Threads) == 0 {
		return tag
	}
	parts := make([]string, len(opts.Threads))
	for i, n := range opts.Threads {
		parts[i] = strconv.Itoa(n)
	}
	return tag + "-t" + strings.Join(parts, "x")
}

// newStatsRun enables process-wide telemetry for an experiment; devices
// created afterwards attach to the returned recorder. Returns nil (no-op)
// when stats are off.
func newStatsRun(opts Options, name string) *statsRun {
	if !opts.Stats {
		return nil
	}
	dir := opts.StatsDir
	if dir == "" {
		dir = "results"
	}
	return &statsRun{name: name, tag: sidecarTag(opts), dir: dir, rec: telemetry.Enable()}
}

// wrap instruments a file system for per-op latency observation. Benchmarks
// drive the vfs interface directly (bypassing FSLibs), so op histograms come
// from this wrapper. Must be applied after any concrete-type assertions on
// the instance's FS.
func (s *statsRun) wrap(fs vfs.FileSystem) vfs.FileSystem {
	if s == nil {
		// No -stats: still observe ops when span collection is active
		// (obsfs.Wrap is the identity when both sinks are off).
		return obsfs.Wrap(fs, nil)
	}
	return obsfs.Wrap(fs, s.rec)
}

// endCell closes one benchmark cell, recording the telemetry delta since the
// previous cell under the given label (e.g. "ZoFS/DWOL/4").
func (s *statsRun) endCell(label string) {
	s.endCellExtra(label, nil)
}

// endCellExtra is endCell plus experiment-specific scalars attached to the
// cell (written to the sidecar and printed alongside the telemetry tables).
func (s *statsRun) endCellExtra(label string, extra map[string]int64) {
	if s == nil {
		return
	}
	cur := s.rec.Snapshot()
	cell := statsCell{Label: label, Metrics: cur.Diff(s.prev), Extra: extra}
	s.prev = cur
	if col := spans.Active(); col != nil {
		sc := col.Snapshot()
		d := sc.Diff(s.spansPrev)
		cell.Spans = &d
		s.spansPrev = sc
	}
	s.cells = append(s.cells, cell)
}

// finish disables telemetry, prints each cell's tables and writes the
// experiment's metrics sidecar (results/metrics-<name>-<config>.json).
func (s *statsRun) finish(w io.Writer) error {
	if s == nil {
		return nil
	}
	telemetry.Disable()
	for _, c := range s.cells {
		fmt.Fprintf(w, "\n[stats %s]\n", c.Label)
		if err := c.Metrics.WriteText(w); err != nil {
			return err
		}
		if c.Spans != nil {
			fmt.Fprintf(w, "\n[spans %s]\n", c.Label)
			if err := c.Spans.WriteText(w); err != nil {
				return err
			}
		}
		if len(c.Extra) > 0 {
			keys := make([]string, 0, len(c.Extra))
			for k := range c.Extra {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			for _, k := range keys {
				fmt.Fprintf(w, "  %-24s %d\n", k, c.Extra[k])
			}
		}
	}
	if err := os.MkdirAll(s.dir, 0o755); err != nil {
		return err
	}
	doc := struct {
		Experiment string      `json:"experiment"`
		Cells      []statsCell `json:"cells"`
	}{Experiment: s.name, Cells: s.cells}
	path := filepath.Join(s.dir, "metrics-"+s.name+"-"+s.tag+".json")
	if err := writeJSON(path, doc); err != nil {
		return err
	}
	fmt.Fprintf(w, "\nmetrics sidecar: %s\n", path)
	return nil
}
