package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
	"text/tabwriter"
)

// Snapshot is a point-in-time copy of a recorder's state, suitable for
// diffing, JSON export and text rendering.
type Snapshot struct {
	Counters map[string]int64 `json:"counters"`
	Gauges   map[string]int64 `json:"gauges"`
}

// Snapshot captures the recorder's current totals. On a nil recorder it
// returns an empty snapshot.
func (r *Recorder) Snapshot() Snapshot {
	s := Snapshot{Counters: map[string]int64{}, Gauges: map[string]int64{}}
	if r == nil {
		return s
	}
	for c := Counter(0); c < numCounters; c++ {
		if v := r.counterTotal(c); v != 0 {
			s.Counters[c.Name()] = v
		}
	}
	for g := Gauge(0); g < numGauges; g++ {
		if v := r.gauges[g].Load(); v != 0 {
			s.Gauges[g.Name()] = v
		}
	}
	return s
}

// Diff returns the activity between prev and s: counters are subtracted;
// gauges (high-water marks) keep s's values, since they do not subtract
// meaningfully.
func (s Snapshot) Diff(prev Snapshot) Snapshot {
	d := Snapshot{Counters: map[string]int64{}, Gauges: map[string]int64{}}
	for name, v := range s.Counters {
		if dv := v - prev.Counters[name]; dv != 0 {
			d.Counters[name] = dv
		}
	}
	for name, v := range s.Gauges {
		d.Gauges[name] = v
	}
	return d
}

// Check enforces the panel's invariant, which holds of a snapshot taken
// while threads are still running too: no counter is negative (a counter
// that overflows pins at the ceiling, it never wraps).
func (s Snapshot) Check() error {
	names := make([]string, 0, len(s.Counters))
	for name := range s.Counters {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if v := s.Counters[name]; v < 0 {
			return fmt.Errorf("telemetry: counter %s = %d is negative", name, v)
		}
	}
	return nil
}

// JSON renders the snapshot as indented JSON.
func (s Snapshot) JSON() ([]byte, error) { return json.MarshalIndent(s, "", "  ") }

// layerOrder fixes the text rendering order of counter groups.
var layerOrder = []string{"nvm", "mpk", "kernfs", "fslibs", "zofs"}

// WriteText renders the snapshot as a per-layer counter table.
func (s Snapshot) WriteText(w io.Writer) error {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "layer\tcounter\tvalue")
	byLayer := map[string][]string{}
	add := func(name string) {
		layer, _, _ := strings.Cut(name, ".")
		byLayer[layer] = append(byLayer[layer], name)
	}
	for name := range s.Counters {
		add(name)
	}
	for name := range s.Gauges {
		add(name)
	}
	for _, layer := range layerOrder {
		names := byLayer[layer]
		sort.Strings(names)
		for _, name := range names {
			v, ok := s.Counters[name]
			if !ok {
				v = s.Gauges[name]
			}
			fmt.Fprintf(tw, "%s\t%s\t%d\n", layer, strings.TrimPrefix(name, layer+"."), v)
		}
	}
	return tw.Flush()
}
