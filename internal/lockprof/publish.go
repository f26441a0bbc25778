package lockprof

import (
	"bytes"
	"encoding/json"
	"path/filepath"

	"zofs/internal/openmetrics"
)

// Publishing mirrors the spans layer: zofs-bench -lockprof writes into a
// directory, zofs-locks polls it. Atomic rename so readers never see a
// half-written file.

// Publish writes the registry's current report into dir as locks.json, its
// OpenMetrics rendering as locks.prom, and the blocked-interval ring as
// waits.jsonl (one interval per line, Chrome-lane input for zofs-trace).
func Publish(r *Registry, dir string) error {
	rep := r.Snapshot()
	raw, err := json.MarshalIndent(&rep, "", "  ")
	if err != nil {
		return err
	}
	if err := openmetrics.WriteAtomic(filepath.Join(dir, "locks.json"), append(raw, '\n')); err != nil {
		return err
	}
	var om bytes.Buffer
	if err := WriteOpenMetrics(&om, rep); err != nil {
		return err
	}
	if err := openmetrics.WriteAtomic(filepath.Join(dir, "locks.prom"), om.Bytes()); err != nil {
		return err
	}
	var wl bytes.Buffer
	enc := json.NewEncoder(&wl)
	for _, b := range r.Blocked() {
		if err := enc.Encode(b); err != nil {
			return err
		}
	}
	return openmetrics.WriteAtomic(filepath.Join(dir, "waits.jsonl"), wl.Bytes())
}
