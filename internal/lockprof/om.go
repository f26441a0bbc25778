package lockprof

import (
	"bufio"
	"fmt"
	"io"
	"strconv"

	"zofs/internal/openmetrics"
)

// WriteOpenMetrics renders the report's families, all under the
// zofs_lockprof_ prefix (no "# EOF": the observation document terminates the
// exposition). CheckOpenMetrics re-derives the conservation invariants from
// the parsed text, so a drifting writer fails CI rather than shipping bad
// data.
func (rep Report) WriteOpenMetrics(w io.Writer) error {
	bw := bufio.NewWriter(w)
	openmetrics.WriteScalar(bw, "zofs_lockprof_acquires", "counter", "Instrumented lock acquisitions.", rep.Acquires)
	openmetrics.WriteScalar(bw, "zofs_lockprof_contended", "counter", "Acquisitions that waited.", rep.Contended)
	openmetrics.WriteScalar(bw, "zofs_lockprof_wait_ns", "counter", "Total virtual lock-wait nanoseconds.", rep.WaitNS)
	openmetrics.WriteScalar(bw, "zofs_lockprof_hold_ns", "counter", "Total virtual lock-hold nanoseconds.", rep.HoldNS)
	openmetrics.WriteScalar(bw, "zofs_lockprof_real_wait_ns", "counter", "Total real-time wait nanoseconds on real-only locks.", rep.RealWaitNS)
	openmetrics.WriteScalar(bw, "zofs_lockprof_held", "gauge", "Instrumented locks currently held.", rep.HeldNow)
	openmetrics.WriteScalar(bw, "zofs_lockprof_inversions", "gauge", "Distinct lock-order inversions observed.", int64(len(rep.Inversions)))

	fmt.Fprintf(bw, "# TYPE zofs_lockprof_lock_acquires counter\n# HELP zofs_lockprof_lock_acquires Acquisitions per named lock.\n")
	for _, l := range rep.Locks {
		fmt.Fprintf(bw, "zofs_lockprof_lock_acquires_total{lock=%q,class=%q,real=%q} %d\n",
			l.Lock, l.Class, strconv.FormatBool(l.Real), l.Acquires)
	}
	fmt.Fprintf(bw, "# TYPE zofs_lockprof_lock_contended counter\n# HELP zofs_lockprof_lock_contended Contended acquisitions per named lock.\n")
	for _, l := range rep.Locks {
		fmt.Fprintf(bw, "zofs_lockprof_lock_contended_total{lock=%q} %d\n", l.Lock, l.Contended)
	}
	fmt.Fprintf(bw, "# TYPE zofs_lockprof_lock_wait_ns counter\n# HELP zofs_lockprof_lock_wait_ns Virtual wait nanoseconds per named lock.\n")
	for _, l := range rep.Locks {
		if !l.Real {
			fmt.Fprintf(bw, "zofs_lockprof_lock_wait_ns_total{lock=%q} %d\n", l.Lock, l.WaitNS)
		}
	}
	fmt.Fprintf(bw, "# TYPE zofs_lockprof_lock_hold_ns counter\n# HELP zofs_lockprof_lock_hold_ns Virtual hold nanoseconds per named lock.\n")
	for _, l := range rep.Locks {
		if !l.Real {
			fmt.Fprintf(bw, "zofs_lockprof_lock_hold_ns_total{lock=%q} %d\n", l.Lock, l.HoldNS)
		}
	}
	fmt.Fprintf(bw, "# TYPE zofs_lockprof_lock_real_wait_ns counter\n# HELP zofs_lockprof_lock_real_wait_ns Real wait nanoseconds per real-only lock.\n")
	for _, l := range rep.Locks {
		if l.Real {
			fmt.Fprintf(bw, "zofs_lockprof_lock_real_wait_ns_total{lock=%q} %d\n", l.Lock, l.WaitNS)
		}
	}
	fmt.Fprintf(bw, "# TYPE zofs_lockprof_lock_wait_p99_ns gauge\n# HELP zofs_lockprof_lock_wait_p99_ns p99 wait nanoseconds per named lock.\n")
	for _, l := range rep.Locks {
		fmt.Fprintf(bw, "zofs_lockprof_lock_wait_p99_ns{lock=%q} %d\n", l.Lock, l.WaitP99NS)
	}
	fmt.Fprintf(bw, "# TYPE zofs_lockprof_edge_wait_ns counter\n# HELP zofs_lockprof_edge_wait_ns Wait nanoseconds on wanted lock while holding another.\n")
	for _, e := range rep.Edges {
		fmt.Fprintf(bw, "zofs_lockprof_edge_wait_ns_total{held=%q,wanted=%q} %d\n", e.From, e.To, e.WaitNS)
	}
	fmt.Fprintf(bw, "# TYPE zofs_lockprof_edge_waits counter\n# HELP zofs_lockprof_edge_waits Contended acquisitions per wait-for edge.\n")
	for _, e := range rep.Edges {
		fmt.Fprintf(bw, "zofs_lockprof_edge_waits_total{held=%q,wanted=%q} %d\n", e.From, e.To, e.Count)
	}
	return bw.Flush()
}

// CheckOpenMetrics enforces the lock panel's invariants on a parsed
// exposition, when the panel is there:
//
//   - conservation: per-lock virtual waits sum exactly to
//     zofs_lockprof_wait_ns_total, holds to hold_ns_total, and real waits to
//     real_wait_ns_total;
//   - sanity: contended <= acquires per lock;
//   - edge soundness: each contended wait bills at most one outgoing edge,
//     so edge waits grouped by wanted lock cannot exceed that lock's total
//     wait. (The naive "edge wait <= holder hold sum" is NOT an invariant:
//     n queued waiters each wait behind the same hold, multiplying it.)
func CheckOpenMetrics(doc *openmetrics.Doc) error {
	if !doc.Has("zofs_lockprof_wait_ns_total") && !doc.Has("zofs_lockprof_lock_acquires_total") {
		return nil
	}
	if err := doc.Require("lockprof", "zofs_lockprof_acquires_total", "zofs_lockprof_wait_ns_total",
		"zofs_lockprof_hold_ns_total", "zofs_lockprof_real_wait_ns_total"); err != nil {
		return err
	}
	if doc.Int("zofs_lockprof_acquires_total") > 0 {
		if err := doc.Require("lockprof", "zofs_lockprof_lock_acquires_total", "zofs_lockprof_lock_contended_total"); err != nil {
			return err
		}
	}
	lockWait := doc.GroupSumInt("zofs_lockprof_lock_wait_ns_total", "lock")
	if err := openmetrics.Conserved("per-lock virtual waits",
		doc.SumInt("zofs_lockprof_lock_wait_ns_total"), doc.Int("zofs_lockprof_wait_ns_total")); err != nil {
		return err
	}
	if err := openmetrics.Conserved("per-lock holds",
		doc.SumInt("zofs_lockprof_lock_hold_ns_total"), doc.Int("zofs_lockprof_hold_ns_total")); err != nil {
		return err
	}
	if err := openmetrics.Conserved("per-lock real waits",
		doc.SumInt("zofs_lockprof_lock_real_wait_ns_total"), doc.Int("zofs_lockprof_real_wait_ns_total")); err != nil {
		return err
	}
	acquires := doc.GroupSumInt("zofs_lockprof_lock_acquires_total", "lock")
	for lock, c := range doc.GroupSumInt("zofs_lockprof_lock_contended_total", "lock") {
		if a, ok := acquires[lock]; ok && c > a {
			return fmt.Errorf("lock %s: contended %d > acquires %d", lock, c, a)
		}
	}
	for dest, w := range doc.GroupSumInt("zofs_lockprof_edge_wait_ns_total", "wanted") {
		if lw, ok := lockWait[dest]; ok && w > lw {
			return fmt.Errorf("edges into %s sum to %d ns > lock's total wait %d ns", dest, w, lw)
		}
	}
	return nil
}
