package obsfs

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"zofs/internal/byteflow"
	"zofs/internal/lockprof"
	"zofs/internal/pmemtrace"
	"zofs/internal/series"
	"zofs/internal/spans"
	"zofs/internal/telemetry"
	"zofs/internal/vfs"
)

// The files of an observation directory. The document and the cell log are
// rewritten whole, through a temp file and a rename, on every publish; the
// two record logs are streamed, one binary record per root span
// (spans.ReadRoots) and per device event (pmemtrace.ReadEvents), and every
// other per-op view — the Chrome trace, the audit, the worst ops, the
// windows — is decoded from them by zofs-obs.
const (
	DocFile   = "obs.json"    // the Doc
	SpansLog  = "spans.rec"   // every finished root span
	EventsLog = "events.rec"  // the run's pmemtrace event log
	CellsLog  = "cells.jsonl" // a session's document cut per benchmark cell, one JSON object a line
)

// Doc is the observation document: one panel per collector that was active
// when it was collected.
type Doc struct {
	// Telemetry is the per-layer counters and gauges.
	Telemetry *telemetry.Snapshot `json:"telemetry,omitempty"`
	// Spans is the per-op record: counts, latency quantiles and the
	// causal-span attribution of where the time went.
	Spans *spans.Snapshot `json:"spans,omitempty"`
	// Flow is the device byte-flow ledger and Space the per-coffer space
	// rows of the observed file system; absent without byte-flow accounting.
	Flow  *byteflow.Flow `json:"flow,omitempty"`
	Space byteflow.Space `json:"space,omitempty"`
	// Locks is the named-lock contention report.
	Locks *lockprof.Report `json:"locks,omitempty"`
	// Series is the windowed tail view.
	Series *series.Snapshot `json:"series,omitempty"`
}

// Collect asks each active collector for its snapshot. fs is the file system
// whose device ledger and coffer space fill the flow and space panels, and
// nothing may be running on it: the space rows walk its allocator caches and
// free lists unsynchronised. nil means the instance a live Session last saw
// wrapped, if any, which may be mid-run — it gives its flow (atomic
// counters) and no space panel.
func Collect(fs vfs.FileSystem) Doc {
	var d Doc
	if r := telemetry.Active(); r != nil {
		snap := r.Snapshot()
		d.Telemetry = &snap
	}
	if c := spans.Active(); c != nil {
		snap := c.Snapshot()
		d.Spans = &snap
	}
	quiescent := fs != nil // handed over by the caller, not picked up mid-run
	if w := live.Load(); fs == nil && w != nil {
		fs = w.inner
	}
	if dv, ok := fs.(deviced); ok {
		d.Flow = dv.Device().FlowSnapshot()
	}
	if sp, ok := fs.(spacer); ok && d.Flow != nil && quiescent {
		d.Space = sp.SpaceReport()
	}
	if r := lockprof.Active(); r != nil {
		rep := r.Snapshot()
		d.Locks = &rep
	}
	if c := series.Active(); c != nil {
		snap := c.Snapshot()
		d.Series = &snap
	}
	return d
}

// panel is one part of the document, rendered by the package that owns its
// data.
type panel interface{ WriteText(io.Writer) error }

// panels lists the parts the document carries, in rendering order.
func (d Doc) panels() []panel {
	var ps []panel
	if d.Telemetry != nil {
		ps = append(ps, d.Telemetry)
	}
	if d.Spans != nil {
		ps = append(ps, d.Spans)
	}
	if d.Flow != nil {
		ps = append(ps, d.Flow)
	}
	if len(d.Space) > 0 {
		ps = append(ps, d.Space)
	}
	if d.Locks != nil {
		ps = append(ps, d.Locks)
	}
	if d.Series != nil {
		ps = append(ps, d.Series)
	}
	return ps
}

// WriteText renders every panel the document carries.
func (d Doc) WriteText(w io.Writer) error {
	for _, p := range d.panels() {
		if err := p.WriteText(w); err != nil {
			return err
		}
	}
	return nil
}

// Validate runs the invariant checks of every panel the document carries,
// each owned by the package that owns the panel's data (DESIGN.md §7 lists
// them), and returns every violation found.
func (d Doc) Validate() error {
	var errs []error
	if d.Telemetry != nil {
		errs = append(errs, d.Telemetry.Check())
	}
	if d.Spans != nil {
		errs = append(errs, d.Spans.Check())
	}
	if d.Flow != nil {
		errs = append(errs, d.Flow.Conserved())
	}
	if d.Locks != nil {
		errs = append(errs, d.Locks.Check())
	}
	if d.Series != nil {
		errs = append(errs, d.Series.Check())
	}
	return errors.Join(errs...)
}

// Publish collects the document and writes it into dir as DocFile, and
// beside it a live session's cells. Both go through a temp file and a
// rename, so a reader never observes a half-written one.
func Publish(dir string, fs vfs.FileSystem) (Doc, error) {
	d := Collect(fs)
	raw, err := json.MarshalIndent(&d, "", "  ")
	if err == nil {
		err = writeAtomic(filepath.Join(dir, DocFile), append(raw, '\n'))
	}
	if s := session.Load(); s != nil && err == nil {
		var buf bytes.Buffer
		if err = WriteJSONL(&buf, s.Cells()); err == nil {
			err = writeAtomic(filepath.Join(dir, CellsLog), buf.Bytes())
		}
	}
	return d, err
}

// Load reads a published document: path names the document's file or the
// observation directory holding it.
func Load(path string) (Doc, error) {
	var d Doc
	if st, err := os.Stat(path); err == nil && st.IsDir() {
		path = filepath.Join(path, DocFile)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		return d, err
	}
	if err := json.Unmarshal(raw, &d); err != nil {
		return d, fmt.Errorf("%s: %w", path, err)
	}
	return d, nil
}

// Session is one run-wide collection: every collector on, the document
// republished into a directory while the run is live, and cut per benchmark
// cell into the directory's CellsLog.
type Session struct {
	dir    string
	rec    *telemetry.Recorder
	col    *spans.Collector
	sink   *os.File
	tr     *pmemtrace.Recorder
	events *os.File
	stop   func()

	// mu guards the cell log against the publisher goroutine.
	mu      sync.Mutex
	cells   []Cell
	printed int // cells WriteCells has rendered
	// Where the next cell's interval starts.
	prevRec   telemetry.Snapshot
	prevSpans spans.Snapshot
}

var (
	// session is the live Session, nil when none is collecting.
	session atomic.Pointer[Session]
	// live is the wrapped instance whose flow and space a session's document
	// reports: the latest Wrap, while it ran, over a device with byte-flow
	// accounting on.
	live atomic.Pointer[FS]
)

// Start switches on the run-wide collectors — telemetry, causal spans
// (recording every root into dir's SpansLog), the flight recorder
// (recording every event into dir's EventsLog), the windowed series and the
// lock profiler — for devices and threads created from now on, and
// republishes the document into dir twice a second until Stop. None of them
// moves a simulated number.
func Start(dir string) (*Session, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	sink, err := os.Create(filepath.Join(dir, SpansLog))
	if err != nil {
		return nil, err
	}
	events, err := os.Create(filepath.Join(dir, EventsLog))
	if err != nil {
		sink.Close()
		return nil, err
	}
	s := &Session{dir: dir, sink: sink, events: events, rec: telemetry.Enable()}
	s.col = spans.Enable(spans.Config{Sink: sink})
	s.tr = pmemtrace.Enable(pmemtrace.Config{Spill: events})
	series.Enable(series.Config{})
	lockprof.Enable(lockprof.Config{})
	session.Store(s)
	s.stop = publishEvery(500*time.Millisecond, func() error {
		_, err := Publish(dir, nil)
		return err
	})
	return s, nil
}

// Stop ends the session, once what it observed has stopped running: the
// publisher goroutine exits, the final document and logs are written while
// every collector is still installed (so the last obs.json carries every
// panel, the live instance's coffer space included), then the collectors are
// switched off and the span and event record logs are drained. It returns that
// final document and the first error met; the later steps run regardless.
func (s *Session) Stop() (Doc, error) {
	s.stop()
	var fs vfs.FileSystem
	if w := live.Load(); w != nil {
		fs = w.inner
	}
	doc, err := Publish(s.dir, fs)
	telemetry.Disable()
	spans.Disable()
	pmemtrace.Disable()
	series.Disable()
	lockprof.Disable()
	session.Store(nil)
	live.Store(nil)
	for _, e := range []error{s.col.FlushSink(), s.sink.Close(), s.tr.FlushSpill(), s.events.Close()} {
		if err == nil {
			err = e
		}
	}
	return doc, err
}

// Cell is the session's document cut to one benchmark cell: what telemetry
// and the span collector recorded since the previous cut.
type Cell struct {
	Label   string             `json:"label"` // e.g. "ZoFS/DWOL/4"
	Metrics telemetry.Snapshot `json:"metrics"`
	Spans   spans.Snapshot     `json:"spans"`
	// Extra carries scalars of the experiment the collectors do not capture
	// (recovery timing).
	Extra map[string]int64 `json:"extra,omitempty"`
}

// interval returns what telemetry and spans recorded since the previous call
// and starts the next interval. Caller holds s.mu.
func (s *Session) interval() (telemetry.Snapshot, spans.Snapshot) {
	rec, sp := s.rec.Snapshot(), s.col.Snapshot()
	dRec, dSp := rec.Diff(s.prevRec), sp.Diff(s.prevSpans)
	s.prevRec, s.prevSpans = rec, sp
	return dRec, dSp
}

// EndCell closes one benchmark cell of the live session under label: the
// interval since the previous cut joins the cell log. Without a session it
// does nothing, so experiments call it unconditionally.
func EndCell(label string, extra map[string]int64) {
	s := session.Load()
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	c := Cell{Label: label, Extra: extra}
	c.Metrics, c.Spans = s.interval()
	s.cells = append(s.cells, c)
}

// Cells returns the cells cut so far.
func (s *Session) Cells() []Cell {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.cells[:len(s.cells):len(s.cells)]
}

// WriteCells renders the cells cut since the last call — one experiment's,
// when called after each — and starts the next cell's interval here, so an
// experiment that cuts none is not billed to its successor's first cell. The
// nil session has no cells.
func (s *Session) WriteCells(w io.Writer) error {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	cells := s.cells[s.printed:]
	s.printed = len(s.cells)
	s.interval()
	s.mu.Unlock()
	for _, c := range cells {
		if err := c.WriteText(w); err != nil {
			return err
		}
	}
	return nil
}

// WriteText renders the cell's counters, its per-op span table and extras.
func (c Cell) WriteText(w io.Writer) error {
	fmt.Fprintf(w, "\n[stats %s]\n", c.Label)
	if err := c.Metrics.WriteText(w); err != nil {
		return err
	}
	fmt.Fprintf(w, "\n[spans %s]\n", c.Label)
	if err := c.Spans.WriteText(w); err != nil {
		return err
	}
	keys := make([]string, 0, len(c.Extra))
	for k := range c.Extra {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(w, "  %-24s %d\n", k, c.Extra[k])
	}
	return nil
}
