package spans

import (
	"fmt"
	"io"
	"text/tabwriter"

	"zofs/internal/telemetry"
)

// CompStat is the folded attribution of one component within one op kind.
type CompStat struct {
	SumNS int64   `json:"sum_ns"`
	Pct   float64 `json:"pct"` // share of the op kind's total latency
	P50NS int64   `json:"p50_ns"`
	P95NS int64   `json:"p95_ns"`
	P99NS int64   `json:"p99_ns"`

	Buckets []int64 `json:"-"` // kept for Diff; not serialized
}

// OpBreakdown is the folded latency decomposition of one op kind.
type OpBreakdown struct {
	Count   int64 `json:"count"`
	Aborted int64 `json:"aborted,omitempty"`
	SumNS   int64 `json:"sum_ns"`
	MeanNS  int64 `json:"mean_ns"`
	P50NS   int64 `json:"p50_ns"`
	P95NS   int64 `json:"p95_ns"`
	P99NS   int64 `json:"p99_ns"`

	BytesRead    int64 `json:"nvm_bytes_read,omitempty"`
	BytesWritten int64 `json:"nvm_bytes_written,omitempty"`
	Flushes      int64 `json:"flushes,omitempty"`
	Fences       int64 `json:"fences,omitempty"`

	Comp map[string]CompStat `json:"comp"`

	Buckets []int64 `json:"-"` // kept for Diff; not serialized
}

// Snapshot is a point-in-time copy of a Collector's aggregates.
type Snapshot struct {
	Started         int64 `json:"started"`
	Finished        int64 `json:"finished"`
	Open            int64 `json:"open"` // gauge: in-flight roots at snapshot time
	Aborted         int64 `json:"aborted"`
	Abandoned       int64 `json:"abandoned"`
	DoubleCloses    int64 `json:"double_closes"`
	DroppedChildren int64 `json:"dropped_children,omitempty"`
	OverBilledNS    int64 `json:"over_billed_ns,omitempty"`
	DcacheHits      int64 `json:"dcache_hits"`
	DcacheMisses    int64 `json:"dcache_misses"`

	Ops map[string]OpBreakdown `json:"ops"`

	// CriticalPath is each component's share (percent) of total attributed
	// time across all op kinds.
	CriticalPath map[string]float64 `json:"critical_path"`

	// LockWaitNS is the collector-level total of every virtual lock wait,
	// inside or outside spans — comparable 1:1 with the lock profiler's
	// Report.WaitNS.
	LockWaitNS int64 `json:"lock_wait_ns,omitempty"`
}

// Snapshot copies the collector's aggregates into a Snapshot.
func (c *Collector) Snapshot() Snapshot {
	s := Snapshot{
		Ops:          map[string]OpBreakdown{},
		CriticalPath: map[string]float64{},
	}
	if c == nil {
		return s
	}
	s.Started = c.started.Load()
	s.Finished = c.finished.Load()
	s.Open = c.open.Load()
	s.LockWaitNS = c.lockWaitNS.Load()
	s.Aborted = c.aborted.Load()
	s.Abandoned = c.abandoned.Load()
	s.DoubleCloses = c.doubleClose.Load()
	s.DroppedChildren = c.childDrops.Load()
	s.OverBilledNS = c.overBilled.Load()
	s.DcacheHits = c.dcHits.Load()
	s.DcacheMisses = c.dcMisses.Load()

	for i := range c.ops {
		a := &c.ops[i]
		count := a.count.Load()
		if count <= 0 {
			continue
		}
		b := OpBreakdown{
			Count:        count,
			Aborted:      a.aborted.Load(),
			SumNS:        a.sumNS.Load(),
			BytesRead:    a.bytesRead.Load(),
			BytesWritten: a.bytesWritten.Load(),
			Flushes:      a.flushes.Load(),
			Fences:       a.fences.Load(),
			Comp:         map[string]CompStat{},
		}
		_, _, b.Buckets = a.total.Snapshot()
		for j := Component(0); j < NumComponents; j++ {
			cs := CompStat{SumNS: a.compSum[j].Load()}
			_, _, cs.Buckets = a.comp[j].Snapshot()
			b.Comp[j.Name()] = cs
		}
		s.Ops[telemetry.Op(i).Name()] = b
	}

	s.finalize()
	return s
}

// finalize derives quantiles, percentages and the critical-path summary from
// counts, sums and bucket vectors; Diff reuses it after subtracting.
func (s *Snapshot) finalize() {
	totalByComp := map[string]int64{}
	var totalNS int64
	for name, b := range s.Ops {
		b.MeanNS = b.SumNS / b.Count
		b.P50NS = telemetry.Quantile(b.Buckets, b.Count, 0.50)
		b.P95NS = telemetry.Quantile(b.Buckets, b.Count, 0.95)
		b.P99NS = telemetry.Quantile(b.Buckets, b.Count, 0.99)
		for cn, cs := range b.Comp {
			if b.SumNS > 0 {
				cs.Pct = float64(cs.SumNS) / float64(b.SumNS) * 100
			}
			cs.P50NS = telemetry.Quantile(cs.Buckets, b.Count, 0.50)
			cs.P95NS = telemetry.Quantile(cs.Buckets, b.Count, 0.95)
			cs.P99NS = telemetry.Quantile(cs.Buckets, b.Count, 0.99)
			b.Comp[cn] = cs
			totalByComp[cn] += cs.SumNS
		}
		totalNS += b.SumNS
		s.Ops[name] = b
	}
	s.CriticalPath = map[string]float64{}
	if totalNS > 0 {
		for cn, v := range totalByComp {
			s.CriticalPath[cn] = float64(v) / float64(totalNS) * 100
		}
	}
}

// Diff returns the spans folded between prev and s (s must be the later
// snapshot of the same collector). Open is a gauge and keeps the current
// value; ops whose count did not grow are omitted.
func (s Snapshot) Diff(prev Snapshot) Snapshot {
	d := Snapshot{
		Started:         s.Started - prev.Started,
		Finished:        s.Finished - prev.Finished,
		Open:            s.Open,
		Aborted:         s.Aborted - prev.Aborted,
		Abandoned:       s.Abandoned - prev.Abandoned,
		DoubleCloses:    s.DoubleCloses - prev.DoubleCloses,
		DroppedChildren: s.DroppedChildren - prev.DroppedChildren,
		OverBilledNS:    s.OverBilledNS - prev.OverBilledNS,
		DcacheHits:      s.DcacheHits - prev.DcacheHits,
		DcacheMisses:    s.DcacheMisses - prev.DcacheMisses,
		Ops:             map[string]OpBreakdown{},
	}
	for name, cur := range s.Ops {
		old := prev.Ops[name] // zero value when absent
		count := cur.Count - old.Count
		if count <= 0 {
			continue
		}
		b := OpBreakdown{
			Count:        count,
			Aborted:      cur.Aborted - old.Aborted,
			SumNS:        cur.SumNS - old.SumNS,
			BytesRead:    cur.BytesRead - old.BytesRead,
			BytesWritten: cur.BytesWritten - old.BytesWritten,
			Flushes:      cur.Flushes - old.Flushes,
			Fences:       cur.Fences - old.Fences,
			Comp:         map[string]CompStat{},
			Buckets:      subBuckets(cur.Buckets, old.Buckets),
		}
		for cn, cs := range cur.Comp {
			ocs := old.Comp[cn]
			b.Comp[cn] = CompStat{
				SumNS:   cs.SumNS - ocs.SumNS,
				Buckets: subBuckets(cs.Buckets, ocs.Buckets),
			}
		}
		d.Ops[name] = b
	}
	d.finalize()
	return d
}

// subBuckets subtracts bucket vectors elementwise (nil-safe).
func subBuckets(cur, old []int64) []int64 {
	if cur == nil {
		return nil
	}
	out := make([]int64, len(cur))
	copy(out, cur)
	for i := range old {
		if i < len(out) {
			out[i] -= old[i]
		}
	}
	return out
}

// opOrder returns the snapshot's op names in the canonical telemetry Op
// order (so tables read in dispatch order, not alphabetically).
func (s Snapshot) opOrder() []string {
	var out []string
	for i := 0; i < telemetry.NumOps; i++ {
		name := telemetry.Op(i).Name()
		if _, ok := s.Ops[name]; ok {
			out = append(out, name)
		}
	}
	return out
}

// Check enforces the attribution invariant: for every op kind with samples
// and a nonzero total latency, the component shares sum to 100% within one
// point.
func (s Snapshot) Check() error {
	for _, name := range s.opOrder() {
		b := s.Ops[name]
		if b.Count <= 0 || b.SumNS <= 0 {
			continue // no samples (or all zero-latency): shares are vacuous
		}
		var sum float64
		for _, cs := range b.Comp {
			sum += cs.Pct
		}
		if sum < 99 || sum > 101 {
			return fmt.Errorf("spans: op %q: component shares sum to %.2f%%, want 100±1", name, sum)
		}
	}
	return nil
}

// WriteText renders the attribution tables in the same tabwriter style as
// the telemetry snapshot printer.
func (s Snapshot) WriteText(w io.Writer) error {
	fmt.Fprintf(w, "spans: %d finished, %d open, %d aborted", s.Finished, s.Open, s.Aborted)
	if s.Abandoned > 0 || s.DoubleCloses > 0 {
		fmt.Fprintf(w, " [abandoned %d double-close %d]", s.Abandoned, s.DoubleCloses)
	}
	if s.OverBilledNS > 0 {
		fmt.Fprintf(w, " [OVER-BILLED %dns]", s.OverBilledNS)
	}
	if s.DcacheHits+s.DcacheMisses > 0 {
		fmt.Fprintf(w, "  dcache %d/%d hits", s.DcacheHits, s.DcacheHits+s.DcacheMisses)
	}
	fmt.Fprintln(w)
	if len(s.Ops) == 0 {
		return nil
	}

	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprint(tw, "op\tcount\tmean\tp50\tp95\tp99")
	for _, comp := range compNames {
		fmt.Fprintf(tw, "\t%s%%", comp)
	}
	fmt.Fprintln(tw)
	for _, name := range s.opOrder() {
		b := s.Ops[name]
		fmt.Fprintf(tw, "%s\t%d\t%dns\t%dns\t%dns\t%dns", name, b.Count, b.MeanNS, b.P50NS, b.P95NS, b.P99NS)
		for _, comp := range compNames {
			fmt.Fprintf(tw, "\t%.1f", b.Comp[comp].Pct)
		}
		fmt.Fprintln(tw)
	}
	if err := tw.Flush(); err != nil {
		return err
	}

	fmt.Fprint(w, "critical path:")
	for _, comp := range compNames {
		fmt.Fprintf(w, " %s %.1f%%", comp, s.CriticalPath[comp])
	}
	fmt.Fprintln(w)
	return nil
}
