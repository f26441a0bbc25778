package harness

import (
	"fmt"
	"io"
	"math"
	"strings"

	"zofs/internal/obsfs"
	"zofs/internal/spans"
	"zofs/internal/sysfactory"
)

// RunSpans is the causal-span observability gate. It runs the hot-path cells
// (create / lookup / read4k on default ZoFS) twice — spans disabled, then
// spans enabled — and asserts the three properties the span layer promises:
//
//  1. Zero virtual-time overhead: span billing observes clocks, it never
//     advances them, so per-cell simulated throughput must agree within 2%.
//     (It agrees exactly; the tolerance only absorbs float formatting.)
//  2. Exact attribution: for every op kind, the per-component nanoseconds
//     (media, flush/fence, lock wait, PKRU, memcpy, kernel, other) must sum
//     to the measured op latency within 1% — "other" is the accounted
//     residual, so a violation means a span was double-billed.
//  3. The OpenMetrics rendering of the collected document must validate.
//
// The attribution breakdown is printed, making this the command-line answer
// to "where does an op's latency go".
func RunSpans(w io.Writer, opts Options) error {
	opts.fill()
	n := 12288
	if opts.Quick {
		n = 4096
	}
	cells := []string{"create", "lookup", "read4k"}

	// Baseline with span collection off, whatever the ambient state.
	prev := spans.Active()
	spans.Disable()
	base, err := hotpathRun(sysfactory.ZoFS, opts, n)
	if err != nil {
		spans.Install(prev)
		return fmt.Errorf("spans baseline: %w", err)
	}

	col := spans.Enable(spans.Config{})
	// Byte-flow accounting rides along on the instrumented run, so the
	// collected document carries the byte-flow and space panels and the
	// OpenMetrics validation below covers those series with real data.
	var inst map[string]float64
	var doc obsfs.Doc
	in, err := sysfactory.ZoFS.New(opts.DeviceBytes)
	if err == nil {
		in.Dev.EnableAccounting()
		inst, err = hotpathRunOn(in, nil, n)
		doc = obsfs.Collect(in.FS)
	}
	open := col.OpenRoots()
	spans.Install(prev)
	if err != nil {
		return fmt.Errorf("spans instrumented: %w", err)
	}

	fmt.Fprintf(w, "Span overhead gate: ZoFS hot path, %d files, spans off vs on (simulated kops/s)\n", n)
	t := tw(w)
	fmt.Fprintln(t, "Cell\tSpans off\tSpans on\tDelta")
	var failures []string
	for _, c := range cells {
		delta := math.Abs(inst[c]-base[c]) / base[c] * 100
		fmt.Fprintf(t, "%s\t%.1f\t%.1f\t%.3f%%\n", c, base[c], inst[c], delta)
		if delta > 2.0 {
			failures = append(failures, fmt.Sprintf("cell %s: spans-on throughput deviates %.3f%% (> 2%%)", c, delta))
		}
	}
	if err := t.Flush(); err != nil {
		return err
	}

	// Attribution must be complete: components sum to measured latency.
	for op, ob := range doc.Spans.Ops {
		var sum int64
		for _, cs := range ob.Comp {
			sum += cs.SumNS
		}
		if ob.SumNS == 0 {
			continue
		}
		if dev := math.Abs(float64(sum-ob.SumNS)) / float64(ob.SumNS); dev > 0.01 {
			failures = append(failures, fmt.Sprintf("op %s: components sum to %d ns vs measured %d ns (%.2f%% off)", op, sum, ob.SumNS, dev*100))
		}
	}
	if open != 0 {
		failures = append(failures, fmt.Sprintf("%d spans left open after the run", open))
	}
	if dc := col.DoubleCloses(); dc != 0 {
		failures = append(failures, fmt.Sprintf("%d double-closed spans", dc))
	}

	if err := doc.Validate(); err != nil {
		failures = append(failures, fmt.Sprintf("OpenMetrics validation: %v", err))
	}

	fmt.Fprintln(w, "\nLatency attribution (spans-on run):")
	if err := doc.WriteText(w); err != nil {
		return err
	}
	if len(failures) > 0 {
		return fmt.Errorf("spans gate failed:\n  %s", strings.Join(failures, "\n  "))
	}
	fmt.Fprintln(w, "\nspans gate: overhead, attribution and OpenMetrics checks passed")
	return nil
}
