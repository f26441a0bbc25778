package harness_test

import (
	"fmt"
	"testing"

	"zofs/internal/obsfs"
	"zofs/internal/pmemtrace"
	"zofs/internal/series"
	"zofs/internal/spans"
	"zofs/internal/sysfactory"
	"zofs/internal/telemetry"
	"zofs/internal/vfs"
)

// TestCollectorsObserveOnly is the one place the collectors' promises are
// asserted over a real workload: the seven hot-path cells on ZoFS, dark,
// then with everything on at once — an observation session (telemetry,
// spans with exemplar rings, series, lock profile), three designed SLOs, the
// flight recorder and byte-flow accounting.
func TestCollectorsObserveOnly(t *testing.T) {
	const n = 1024
	fresh := func() *sysfactory.Instance {
		in, err := sysfactory.ZoFS.New(2 << 30)
		if err != nil {
			t.Fatal(err)
		}
		return in
	}
	dark, err := hotpathRunOn(fresh(), n)
	if err != nil {
		t.Fatal(err)
	}

	sess, err := obsfs.Start(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	col := spans.Active()
	sc := series.Enable(series.Config{
		WindowNS: 100_000, // tens of windows across the run
		SLOs: []series.SLO{
			{Op: telemetry.OpCreate, ThresholdNS: 1, Target: 0.5},        // always breached
			{Op: telemetry.OpStat, ThresholdNS: 1 << 40, Target: 0.999},  // never breached
			{Op: telemetry.OpOpen, ThresholdNS: 2_000, Target: 0.999999}, // realistic mixed
		},
	})
	tracer := pmemtrace.Enable(pmemtrace.Config{RingCap: 1 << 12})
	in := fresh()
	pmemtrace.Disable() // the device captured it at birth
	in.Dev.EnableAccounting()
	lit, err := hotpathRunOn(in, n)
	doc, serr := sess.Stop()
	if err != nil || serr != nil {
		t.Fatal(err, serr)
	}

	// No collector advances a clock: the same integer virtual nanoseconds,
	// so the same float, cell for cell.
	if len(dark) != 7 || len(lit) != len(dark) {
		t.Fatalf("cells: %d dark, %d observed, want 7", len(dark), len(lit))
	}
	for cell, v := range dark {
		if lit[cell] != v {
			t.Errorf("cell %s: %v kops/vs dark, %v observed — a collector moved a clock", cell, v, lit[cell])
		}
	}
	if doc.Telemetry == nil || doc.Spans == nil || doc.Flow == nil || len(doc.Space) == 0 || doc.Locks == nil || doc.Series == nil {
		t.Fatalf("the final document lacks a panel: %+v", doc)
	}
	if tracer.Total() == 0 || doc.Locks.Acquires == 0 {
		t.Errorf("flight recorder saw %d events, lock profile %d acquisitions", tracer.Total(), doc.Locks.Acquires)
	}

	// Spans: per op kind the components sum to the measured latency, and
	// every root opened was closed once.
	for op, ob := range doc.Spans.Ops {
		var sum int64
		for _, cs := range ob.Comp {
			sum += cs.SumNS
		}
		if sum != ob.SumNS {
			t.Errorf("op %s: span components sum to %d ns, measured %d ns", op, sum, ob.SumNS)
		}
	}
	if col.OpenRoots() != 0 || col.DoubleCloses() != 0 {
		t.Errorf("%d roots left open, %d closed twice", col.OpenRoots(), col.DoubleCloses())
	}

	// Series: folding every window reproduces the span collector's per-op
	// count, latency sum and histogram bucket for bucket.
	span := col.Snapshot().Ops
	merged := map[string]*series.OpWindow{}
	for _, w := range sc.Windows() {
		for op, ow := range w.Ops {
			m := merged[op]
			if m == nil {
				m = &series.OpWindow{Buckets: make([]int64, telemetry.HistBuckets)}
				merged[op] = m
			}
			m.Count += ow.Count
			m.SumNS += ow.SumNS
			for i, b := range ow.Buckets {
				m.Buckets[i] += b
			}
		}
	}
	if doc.Series.Windows < 2 || doc.Series.Evicted != 0 || len(merged) != len(span) {
		t.Errorf("%d windows retained, %d observations evicted; series has %d op kinds, spans %d",
			doc.Series.Windows, doc.Series.Evicted, len(merged), len(span))
	}
	for op, ob := range span {
		m := merged[op]
		if m == nil || m.Count != ob.Count || m.SumNS != ob.SumNS {
			t.Errorf("op %s: merged %+v, spans count/sum %d/%d", op, m, ob.Count, ob.SumNS)
			continue
		}
		for i, b := range ob.Buckets {
			if m.Buckets[i] != b {
				t.Errorf("op %s: bucket %d merged %d, spans %d", op, i, m.Buckets[i], b)
				break
			}
		}
	}

	// Exemplars: captured, each one's components summing to its duration.
	exes := col.Exemplars()
	if len(exes) == 0 {
		t.Error("no worst-op exemplars captured")
	}
	for _, e := range exes {
		var sum int64
		for _, v := range e.Root.Comp {
			sum += v
		}
		if sum != e.Root.Dur {
			t.Errorf("exemplar %s@%d: components sum to %d ns, duration %d ns", e.Root.Op, e.Root.Start, sum, e.Root.Dur)
		}
	}

	// SLO burn: every op of the kind is evaluated; a 1 ns objective counts
	// them all bad, a 2^40 ns one none.
	for _, s := range sc.SLOs() {
		if s.Total != span[s.Op].Count || s.Bad > s.Total ||
			(s.ThresholdNS == 1 && s.Bad != s.Total) || (s.ThresholdNS == 1<<40 && s.Bad != 0) {
			t.Errorf("slo %s (threshold %d ns): %d bad of %d, %d ops", s.Op, s.ThresholdNS, s.Bad, s.Total, span[s.Op].Count)
		}
	}

	// Byte flow: classes sum to the issued total, and media >= issued >= app.
	if err := doc.Flow.Conserved(); err != nil {
		t.Error(err)
	}
	if f := doc.Flow; f.App == 0 || f.Total < f.App || f.MediaBytes() < f.Total {
		t.Errorf("flow: app %d, issued %d, media %d", f.App, f.Total, f.MediaBytes())
	}
	if err := doc.Validate(); err != nil {
		t.Errorf("the document's panels: %v", err)
	}
}

// hotpathRunOn runs the seven hot-path cells on an instance the caller
// built (and may have instrumented, e.g. enabled byte-flow accounting on)
// and returns simulated kops/s per cell. The first five cells run over one
// directory large enough to exercise both the inline dentry area and the
// bucket chains:
//
//	create  — empty-file creates (allocator + dentry insert path)
//	lookup  — stat by path (directory lookup path)
//	read4k  — open + 4KB pread + close (open/read path)
//	readdir — list the directory; an op is one name listed
//	unlink  — remove every file, one 4KB block each (dentry kill, the
//	          inode's pointer read, page frees)
//	read64k — 64KB preads through open handles at block-aligned offsets
//	          of 1MB files written front to back (one device access per
//	          physically contiguous run)
//	truncate — truncate each of those 1MB files to nothing (one read and
//	          one clear per pointer array, 256 page frees)
func hotpathRunOn(in *sysfactory.Instance, n int) (map[string]float64, error) {
	th := in.Proc.NewThread()
	// Observed through the wrapper, as the harness's cells are; with
	// everything off this returns in.FS unchanged.
	fs := obsfs.Wrap(in.FS, nil)
	if err := fs.Mkdir(th, "/hot", 0o755); err != nil {
		return nil, err
	}
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("/hot/f-%06d", i)
	}
	kops := func(ops int, vns int64) float64 {
		return float64(ops) / float64(vns) * 1e6
	}
	res := map[string]float64{}

	// Cell 1: small-file create.
	start := th.Clk.Now()
	for _, nm := range names {
		h, err := fs.Create(th, nm, 0o644)
		if err != nil {
			return nil, err
		}
		h.Close(th)
	}
	res["create"] = kops(n, th.Clk.Now()-start)

	// Populate 4KB of content for the read cell (untimed).
	buf := make([]byte, 4096)
	for _, nm := range names {
		h, err := fs.Open(th, nm, vfs.O_RDWR)
		if err != nil {
			return nil, err
		}
		if _, err := h.WriteAt(th, buf, 0); err != nil {
			return nil, err
		}
		h.Close(th)
	}

	// And the data cells' 1MB files, written front to back (untimed) while
	// the allocator still hands out fresh grants: after the unlink cell the
	// free list holds 4KB pages in the order the names were removed.
	const bigFiles, bigBlocks = 64, 256
	big := make([]vfs.Handle, bigFiles)
	bigName := func(i int) string { return fmt.Sprintf("/big-%02d", i) }
	mb := make([]byte, bigBlocks*4096)
	for i := range big {
		h, err := fs.Create(th, bigName(i), 0o644)
		if err != nil {
			return nil, err
		}
		if _, err := h.WriteAt(th, mb, 0); err != nil {
			return nil, err
		}
		big[i] = h
	}

	// Cell 2: lookup (stat by path, strided so neighbours don't share
	// hash buckets).
	start = th.Clk.Now()
	for i := 0; i < n; i++ {
		if _, err := fs.Stat(th, names[i*7919%n]); err != nil {
			return nil, err
		}
	}
	res["lookup"] = kops(n, th.Clk.Now()-start)

	// Cell 3: open + 4KB read + close.
	start = th.Clk.Now()
	for i := 0; i < n; i++ {
		h, err := fs.Open(th, names[i*104729%n], vfs.O_RDONLY)
		if err != nil {
			return nil, err
		}
		if _, err := h.ReadAt(th, buf, 0); err != nil {
			return nil, err
		}
		h.Close(th)
	}
	res["read4k"] = kops(n, th.Clk.Now()-start)

	// Cell 4: list the directory; each name listed counts as one op.
	const listings = 4
	start = th.Clk.Now()
	for i := 0; i < listings; i++ {
		ents, err := fs.ReadDir(th, "/hot")
		if err != nil {
			return nil, err
		}
		if len(ents) != n {
			return nil, fmt.Errorf("readdir listed %d of %d names", len(ents), n)
		}
	}
	res["readdir"] = kops(listings*n, th.Clk.Now()-start)

	// Cell 5: unlink every file, strided like the lookups.
	start = th.Clk.Now()
	for i := 0; i < n; i++ {
		if err := fs.Unlink(th, names[i*7919%n]); err != nil {
			return nil, err
		}
	}
	res["unlink"] = kops(n, th.Clk.Now()-start)

	// Cell 6: 64KB preads, strided over files and offsets.
	kb64 := mb[:64<<10]
	start = th.Clk.Now()
	for i := 0; i < n; i++ {
		off := int64(i*7919%(bigBlocks-15)) * 4096
		if got, err := big[i%bigFiles].ReadAt(th, kb64, off); err != nil || got != len(kb64) {
			return nil, fmt.Errorf("read64k: %d, %v", got, err)
		}
	}
	res["read64k"] = kops(n, th.Clk.Now()-start)

	// Cell 7: truncate every 1MB file to nothing.
	start = th.Clk.Now()
	for i := range big {
		if err := fs.Truncate(th, bigName(i), 0); err != nil {
			return nil, err
		}
	}
	res["truncate"] = kops(bigFiles, th.Clk.Now()-start)
	for _, h := range big {
		h.Close(th)
	}
	return res, nil
}
