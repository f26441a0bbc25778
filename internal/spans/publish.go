package spans

import (
	"bytes"
	"encoding/json"
	"path/filepath"
	"sync/atomic"

	"zofs/internal/lockprof"
	"zofs/internal/openmetrics"
)

// Publishing: periodic snapshot files for live monitoring. zofs-bench -spans
// publishes into a directory; zofs-top polls it. Files are written to a temp
// name and renamed so a reader never observes a half-written snapshot.

// enricher holds the OnSnapshot hook.
var enricher atomic.Pointer[func(*Snapshot)]

// lockReporter holds the OnLockReport hook.
var lockReporter atomic.Pointer[func() *lockprof.Report]

// OnSnapshot installs a hook the publisher applies to every snapshot before
// writing — the place harnesses attach device byte-flow and per-coffer
// space rows, which the collector itself cannot see. Nil uninstalls.
func OnSnapshot(f func(*Snapshot)) {
	if f == nil {
		enricher.Store(nil)
		return
	}
	enricher.Store(&f)
}

// OnLockReport installs a hook producing the named-lock contention panel
// (typically a closure over lockprof.Registry.Snapshot). It is separate from
// OnSnapshot so the lock panel composes with the byte-flow enricher the
// obsfs wrap installs, rather than displacing it. Nil uninstalls.
func OnLockReport(f func() *lockprof.Report) {
	if f == nil {
		lockReporter.Store(nil)
		return
	}
	lockReporter.Store(&f)
}

// Enrich applies the OnSnapshot and OnLockReport hooks (if any) to s.
// Publishers call it automatically; direct Snapshot() consumers (zofs-shell's
// spans dump) call it themselves to pick up the byte-flow, space and lock
// panels.
func Enrich(s *Snapshot) {
	if f := enricher.Load(); f != nil {
		(*f)(s)
	}
	if f := lockReporter.Load(); f != nil {
		s.Locks = (*f)()
	}
}

// Publish writes the collector's current snapshot into dir as spans.json
// (the Snapshot document) and spans.prom (its OpenMetrics rendering).
func Publish(c *Collector, dir string) error {
	snap := c.Snapshot()
	Enrich(&snap)
	raw, err := json.MarshalIndent(&snap, "", "  ")
	if err != nil {
		return err
	}
	if err := openmetrics.WriteAtomic(filepath.Join(dir, "spans.json"), append(raw, '\n')); err != nil {
		return err
	}
	var om bytes.Buffer
	if err := WriteOpenMetrics(&om, snap); err != nil {
		return err
	}
	return openmetrics.WriteAtomic(filepath.Join(dir, "spans.prom"), om.Bytes())
}
