package harness

import (
	"fmt"
	"io"
	"strings"

	"zofs/internal/obsfs"
	"zofs/internal/series"
	"zofs/internal/spans"
	"zofs/internal/sysfactory"
	"zofs/internal/telemetry"
)

// RunSeries is the tail-observatory gate. It runs the hot-path cells twice —
// all observability off, then with the windowed series pipeline, telemetry
// and exemplar-capturing spans enabled — and asserts the properties the
// series layer promises:
//
//  1. Bit-identical virtual time: series collection only reads clocks, so
//     per-cell simulated throughput must agree with the baseline EXACTLY
//     (not within a tolerance — the same integer nanosecond totals).
//  2. Merge-exactness: folding every window's bucket vector (plus the spill)
//     reproduces the cumulative telemetry histogram bit-for-bit — same
//     counts, same sums, same 252 buckets per op kind.
//  3. Worst-op exemplars are captured and every one carries the exact-sum
//     attribution invariant (components sum to the measured duration).
//  4. SLO burn accounting is conservative: an always-breached objective
//     (threshold 1ns) counts every op as bad, a never-breached one
//     (threshold 2^40 ns) counts none, and totals equal the op counts.
//  5. The OpenMetrics rendering of the collected document validates.
func RunSeries(w io.Writer, opts Options) error {
	opts.fill()
	n := 12288
	if opts.Quick {
		n = 4096
	}
	cells := []string{"create", "lookup", "read4k"}

	// Baseline with every tail-observatory layer off.
	prevSpans := spans.Active()
	prevSeries := series.Active()
	spans.Disable()
	series.Disable()
	base, err := hotpathRun(sysfactory.ZoFS, opts, n)
	if err != nil {
		spans.Install(prevSpans)
		series.Install(prevSeries)
		return fmt.Errorf("series baseline: %w", err)
	}

	// Instrumented run: windowed series + cumulative telemetry observing the
	// identical op stream, spans capturing worst-op exemplars above the
	// adaptive thresholds the series collector pushes.
	rec := telemetry.New()
	sc := series.Enable(series.Config{
		WindowNS: 100_000, // ~tens of windows across the run
		SLOs: []series.SLO{
			{Op: telemetry.OpCreate, ThresholdNS: 1, Target: 0.5},        // always breached
			{Op: telemetry.OpStat, ThresholdNS: 1 << 40, Target: 0.999},  // never breached
			{Op: telemetry.OpOpen, ThresholdNS: 2_000, Target: 0.999999}, // realistic mixed
		},
	})
	col := spans.Enable(spans.Config{RingCap: -1, ExemplarK: spans.DefaultExemplarK})
	var inst map[string]float64
	var doc obsfs.Doc
	in, err := sysfactory.ZoFS.New(opts.DeviceBytes)
	if err == nil {
		inst, err = hotpathRunOn(in, rec, n)
		doc = obsfs.Collect(in.FS)
	}
	spans.Install(prevSpans)
	series.Install(prevSeries)
	if err != nil {
		return fmt.Errorf("series instrumented: %w", err)
	}

	fmt.Fprintf(w, "Tail observatory gate: ZoFS hot path, %d files, series off vs on (simulated kops/s)\n", n)
	t := tw(w)
	fmt.Fprintln(t, "Cell\tSeries off\tSeries on\tIdentical")
	var failures []string
	for _, c := range cells {
		same := inst[c] == base[c]
		fmt.Fprintf(t, "%s\t%.1f\t%.1f\t%v\n", c, base[c], inst[c], same)
		if !same {
			failures = append(failures, fmt.Sprintf(
				"cell %s: virtual time diverged with series on (%.6f vs %.6f kops/s) — observability advanced a clock",
				c, inst[c], base[c]))
		}
	}
	if err := t.Flush(); err != nil {
		return err
	}

	// Merge-exactness against the cumulative telemetry histograms.
	if doc.Series.Windows < 2 {
		failures = append(failures, fmt.Sprintf("only %d windows retained; want multiple (width %d ns)", doc.Series.Windows, doc.Series.WidthNS))
	}
	merged := sc.Merged()
	snap := rec.Snapshot()
	if len(merged) != len(snap.Ops) {
		failures = append(failures, fmt.Sprintf("op sets differ: series has %d kinds, telemetry %d", len(merged), len(snap.Ops)))
	}
	for name, ts := range snap.Ops {
		m, ok := merged[name]
		if !ok {
			failures = append(failures, fmt.Sprintf("op %s: in telemetry but missing from merged series", name))
			continue
		}
		if m.Count != ts.Count || m.SumNS != ts.SumNS {
			failures = append(failures, fmt.Sprintf("op %s: merged count/sum %d/%d != telemetry %d/%d",
				name, m.Count, m.SumNS, ts.Count, ts.SumNS))
			continue
		}
		for i := range ts.Buckets {
			if m.Buckets[i] != ts.Buckets[i] {
				failures = append(failures, fmt.Sprintf("op %s: bucket %d merged %d != telemetry %d — window merge is not exact",
					name, i, m.Buckets[i], ts.Buckets[i]))
				break
			}
		}
	}

	// Exemplars: captured, and each one's components sum to its duration.
	exes := col.Exemplars()
	if len(exes) == 0 {
		failures = append(failures, "no worst-op exemplars captured")
	}
	for _, e := range exes {
		var sum int64
		for _, v := range e.Root.Comp {
			sum += v
		}
		if sum != e.Root.Dur {
			failures = append(failures, fmt.Sprintf("exemplar %s@%d: components sum to %d ns, duration is %d ns",
				e.Root.Op, e.Root.Start, sum, e.Root.Dur))
		}
	}

	// SLO burn accounting.
	slos := sc.SLOs()
	for _, s := range slos {
		opCount := merged[s.Op].Count
		if s.Total != opCount {
			failures = append(failures, fmt.Sprintf("slo %s: evaluated %d ops, op count is %d", s.Op, s.Total, opCount))
		}
		if s.Bad > s.Total {
			failures = append(failures, fmt.Sprintf("slo %s: breaches %d > events %d", s.Op, s.Bad, s.Total))
		}
		switch {
		case s.ThresholdNS == 1 && s.Bad != s.Total:
			failures = append(failures, fmt.Sprintf("slo %s: 1ns threshold breached only %d of %d ops", s.Op, s.Bad, s.Total))
		case s.ThresholdNS == 1<<40 && s.Bad != 0:
			failures = append(failures, fmt.Sprintf("slo %s: 2^40ns threshold breached %d ops", s.Op, s.Bad))
		}
	}

	if err := doc.Validate(); err != nil {
		failures = append(failures, fmt.Sprintf("OpenMetrics validation: %v", err))
	}

	fmt.Fprintf(w, "\nWindows: %d retained (width %d ns, %d spilled), %d observations, %d exemplars\n",
		doc.Series.Windows, doc.Series.WidthNS, doc.Series.Spilled, doc.Series.Observations, len(exes))
	t = tw(w)
	fmt.Fprintln(t, "SLO\tthreshold ns\ttarget\tevents\tbreaches\tburn")
	for _, s := range slos {
		fmt.Fprintf(t, "%s\t%d\t%.6f\t%d\t%d\t%.3f\n", s.Op, s.ThresholdNS, s.Target, s.Total, s.Bad, s.Burn)
	}
	if err := t.Flush(); err != nil {
		return err
	}
	if len(failures) > 0 {
		return fmt.Errorf("series gate failed:\n  %s", strings.Join(failures, "\n  "))
	}
	fmt.Fprintln(w, "\nseries gate: bit-identical time, merge-exact windows, exemplar attribution and SLO checks passed")
	return nil
}
