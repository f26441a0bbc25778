package spans

import (
	"bytes"
	"encoding/json"
	"io"
	"testing"

	"zofs/internal/mpk"
	"zofs/internal/telemetry"
)

// TestRootLifecycle covers the core span state machine: open, bill, close,
// residual attribution.
func TestRootLifecycle(t *testing.T) {
	col := NewCollector(Config{})
	c := NewThreadCtx(col, 7)

	c.Begin(telemetry.OpWrite, PathHash("/a/b"), 1000)
	if col.OpenRoots() != 1 {
		t.Fatalf("open = %d inside a root span, want 1", col.OpenRoots())
	}
	c.Bill(CompMedia, 300)
	c.Bill(CompLock, 100)
	c.billNVM(CompFlush, 50, 0, 4096, 1, 1)
	c.Child("kernfs.coffer_enlarge", 1200, 40)
	c.SetKey(5)
	c.End(2000)

	if col.OpenRoots() != 0 || col.Finished() != 1 {
		t.Fatalf("open=%d finished=%d, want 0/1", col.OpenRoots(), col.Finished())
	}
	roots := col.Roots()
	if len(roots) != 1 {
		t.Fatalf("ring holds %d roots, want 1", len(roots))
	}
	r := roots[0]
	if r.Op != "write" || r.TID != 7 || r.Dur != 1000 || r.PKey != 5 {
		t.Fatalf("root = %+v", r)
	}
	// Residual: 1000 total − 300 media − 100 lock − 50 flush = 550 other.
	if r.Comp[CompOther] != 550 {
		t.Fatalf("CompOther = %d, want 550", r.Comp[CompOther])
	}
	var sum int64
	for _, v := range r.Comp {
		sum += v
	}
	if sum != r.Dur {
		t.Fatalf("components sum to %d, duration is %d", sum, r.Dur)
	}
	if r.BytesWritten != 4096 || r.Flushes != 1 || r.Fences != 1 {
		t.Fatalf("nvm attribution = %+v", r)
	}
	if len(r.Children) != 1 || r.Children[0].Name != "kernfs.coffer_enlarge" {
		t.Fatalf("children = %+v", r.Children)
	}
}

// TestNestedBegin: an op implemented via another traced op keeps one root.
func TestNestedBegin(t *testing.T) {
	col := NewCollector(Config{})
	c := NewThreadCtx(col, 1)
	c.Begin(telemetry.OpRename, 0, 0)
	c.Begin(telemetry.OpStat, 0, 10) // inner lookup
	c.Bill(CompMedia, 5)
	c.End(20) // closes only the inner level
	if col.OpenRoots() != 1 || col.Finished() != 0 {
		t.Fatal("outer root closed by inner End")
	}
	c.End(100)
	if col.Finished() != 1 {
		t.Fatalf("finished = %d, want 1 (nested Begin must not fold twice)", col.Finished())
	}
	r := col.Roots()[0]
	if r.Op != "rename" || r.Dur != 100 || r.Comp[CompMedia] != 5 {
		t.Fatalf("root = %+v", r)
	}
}

// TestDoubleCloseAndOverbilling: unmatched End and billing past the clock
// delta are counted, never silently absorbed.
func TestDoubleCloseAndOverbilling(t *testing.T) {
	col := NewCollector(Config{})
	c := NewThreadCtx(col, 1)
	c.End(5)
	if col.DoubleCloses() != 1 {
		t.Fatalf("double closes = %d, want 1", col.DoubleCloses())
	}

	c.Begin(telemetry.OpRead, 0, 0)
	c.Bill(CompMedia, 500) // more than the 100ns the span will last
	c.End(100)
	snap := col.Snapshot()
	if snap.OverBilledNS != 400 {
		t.Fatalf("over-billed = %d ns, want 400", snap.OverBilledNS)
	}
	if other := snap.Ops["read"].Comp["other"].SumNS; other != 0 {
		t.Fatalf("negative residual leaked into other: %d", other)
	}
}

// TestOutsideBillingDropped: billing and annotations outside any root are
// dropped.
func TestOutsideBillingDropped(t *testing.T) {
	col := NewCollector(Config{})
	c := NewThreadCtx(col, 1)
	c.Bill(CompMedia, 100) // ambient cost, no op to belong to
	c.Child("stray", 0, 10)
	c.Begin(telemetry.OpRead, 0, 0)
	c.End(50)
	if r := col.Roots()[0]; r.Comp[CompMedia] != 0 || len(r.Children) != 0 {
		t.Fatalf("ambient billing leaked into the next span: %+v", r)
	}
}

// TestNilContext: the nil *ThreadCtx is a full no-op context.
func TestNilContext(t *testing.T) {
	var c *ThreadCtx
	c.Begin(telemetry.OpRead, 0, 0)
	c.Bill(CompMedia, 5)
	c.BillLockWait(5)
	c.Child("x", 0, 1)
	c.DCacheHit()
	c.DCacheMiss()
	c.MarkAborted()
	c.SetKey(1)
	c.ObserveViolation(mpk.Violation{})
	c.End(10)
	if NewThreadCtx(nil, 1) != nil {
		t.Fatal("NewThreadCtx(nil) must return nil")
	}
}

// TestViolationAborts: an MPK violation marks the span aborted and attaches
// the cause as an unplaced child annotation.
func TestViolationAborts(t *testing.T) {
	col := NewCollector(Config{})
	c := NewThreadCtx(col, 3)
	c.Begin(telemetry.OpWrite, PathHash("/x"), 0)
	c.ObserveViolation(mpk.Violation{Cause: "PKRU write-disable"})
	c.End(80)
	snap := col.Snapshot()
	if snap.Aborted != 1 || snap.Ops["write"].Aborted != 1 {
		t.Fatalf("aborted = %d / %d, want 1/1", snap.Aborted, snap.Ops["write"].Aborted)
	}
	r := col.Roots()[0]
	if !r.Aborted || len(r.Children) != 1 || r.Children[0].Name != "mpk_violation" ||
		r.Children[0].Start >= 0 || r.Children[0].Detail != "PKRU write-disable" {
		t.Fatalf("root = %+v", r)
	}
}

// readJSONL decodes a stream of JSON objects, one per line.
func readJSONL[T any](t *testing.T, r io.Reader) []T {
	t.Helper()
	var out []T
	for dec := json.NewDecoder(r); dec.More(); {
		var item T
		if err := dec.Decode(&item); err != nil {
			t.Fatal(err)
		}
		out = append(out, item)
	}
	return out
}

// TestJSONLRoundTrip: every folded root reaches the sink and reloads
// identically, including the self-describing component map.
func TestJSONLRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	col := NewCollector(Config{JSONL: &buf})
	c := NewThreadCtx(col, 2)
	c.Begin(telemetry.OpCreate, PathHash("/f"), 100)
	c.Bill(CompMedia, 40)
	c.Child("fslib.dispatch", 110, 20)
	c.End(200)
	c.Begin(telemetry.OpStat, 0, 300)
	c.End(350)
	if err := col.FlushSink(); err != nil {
		t.Fatal(err)
	}

	roots := readJSONL[Root](t, &buf)
	if len(roots) != 2 {
		t.Fatalf("reloaded %d roots, want 2", len(roots))
	}
	r := roots[0]
	if r.Op != "create" || r.Dur != 100 || r.Comp[CompMedia] != 40 || r.Comp[CompOther] != 60 {
		t.Fatalf("root 0 = %+v", r)
	}
	if len(r.Children) != 1 || r.Children[0].Name != "fslib.dispatch" {
		t.Fatalf("root 0 children = %+v", r.Children)
	}
	if roots[1].Op != "stat" || roots[1].PathHash != 0 {
		t.Fatalf("root 1 = %+v", roots[1])
	}
}

// TestSnapshotDiff: Diff isolates one window's spans from a running total.
func TestSnapshotDiff(t *testing.T) {
	col := NewCollector(Config{})
	c := NewThreadCtx(col, 1)
	c.Begin(telemetry.OpRead, 0, 0)
	c.Bill(CompMedia, 30)
	c.End(100)
	before := col.Snapshot()
	c.Begin(telemetry.OpRead, 0, 200)
	c.Bill(CompMedia, 70)
	c.End(500)
	d := col.Snapshot().Diff(before)
	if got := d.Ops["read"]; got.Count != 1 || got.SumNS != 300 || got.Comp["media"].SumNS != 70 {
		t.Fatalf("diff = %+v", got)
	}
}

// TestCheck: a collector's snapshot passes its check, and one tampered share
// or inverted quantile fails it.
func TestCheck(t *testing.T) {
	col := NewCollector(Config{})
	c := NewThreadCtx(col, 1)
	for i := 0; i < 5; i++ {
		c.Begin(telemetry.OpWrite, 0, int64(i*1000))
		c.Bill(CompMedia, 400)
		c.DCacheHit()
		c.End(int64(i*1000) + 700)
	}
	snap := col.Snapshot()
	if err := snap.Check(); err != nil {
		t.Fatalf("collector's snapshot rejected: %v", err)
	}
	media := snap.Ops["write"].Comp["media"]
	media.Pct -= 2
	snap.Ops["write"].Comp["media"] = media
	if err := snap.Check(); err == nil {
		t.Error("shares summing to 98% accepted")
	}
	snap = col.Snapshot()
	w := snap.Ops["write"]
	w.P99NS = w.P50NS - 1
	snap.Ops["write"] = w
	if err := snap.Check(); err == nil {
		t.Error("p99 below p50 accepted")
	}
}

// TestEnableDisable: the process-wide switch hands threads a context exactly
// when a collector is installed.
func TestEnableDisable(t *testing.T) {
	prev := Active()
	defer Install(prev)
	Disable()
	if Active() != nil {
		t.Fatal("Active() non-nil after Disable")
	}
	col := Enable(Config{})
	if Active() != col {
		t.Fatal("Active() does not return the enabled collector")
	}
	Install(nil)
	if Active() != nil {
		t.Fatal("Install(nil) did not disable")
	}
}

// TestReset zeroes aggregates so the shell's "spans reset" starts clean.
func TestReset(t *testing.T) {
	col := NewCollector(Config{})
	c := NewThreadCtx(col, 1)
	c.Begin(telemetry.OpRead, 0, 0)
	c.DCacheMiss()
	c.End(50)
	col.Reset()
	snap := col.Snapshot()
	if snap.Finished != 0 || snap.DcacheMisses != 0 || len(snap.Ops) != 0 {
		t.Fatalf("snapshot after Reset = %+v", snap)
	}
	if len(col.Roots()) != 0 {
		t.Fatal("ring survives Reset")
	}
}

// BenchmarkRootSpan measures the host-side cost of one fully-billed root
// span (open, four component bills, one child, close + fold).
func BenchmarkRootSpan(b *testing.B) {
	col := NewCollector(Config{RingCap: -1})
	c := NewThreadCtx(col, 1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		now := int64(i) * 1000
		c.Begin(telemetry.OpWrite, 0x9e3779b9, now)
		c.Bill(CompMedia, 400)
		c.Bill(CompFlush, 80)
		c.Bill(CompLock, 20)
		c.Bill(CompPKRU, 24)
		c.Child("kernfs.coffer_enlarge", now+100, 50)
		c.End(now + 900)
	}
}

// BenchmarkDisabledSpan measures the disabled path every instrumented layer
// pays when no collector is installed: a nil-context method call. This is
// the "near-free when off" budget — a handful of predicted branches.
func BenchmarkDisabledSpan(b *testing.B) {
	var c *ThreadCtx // what FromClock returns with spans off
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Begin(telemetry.OpWrite, 0, 0)
		c.Bill(CompMedia, 400)
		c.Child("kernfs.coffer_enlarge", 0, 50)
		c.End(900)
	}
}

// TestChildOverflowCounted: the per-span child cap drops loudly.
func TestChildOverflowCounted(t *testing.T) {
	col := NewCollector(Config{})
	c := NewThreadCtx(col, 1)
	c.Begin(telemetry.OpReadDir, 0, 0)
	for i := 0; i < maxChildren+10; i++ {
		c.Child("kernfs.call", int64(i), 1)
	}
	c.End(1000)
	if got := col.Snapshot().DroppedChildren; got != 10 {
		t.Fatalf("dropped children = %d, want 10", got)
	}
	if n := len(col.Roots()[0].Children); n != maxChildren {
		t.Fatalf("kept %d children, want %d", n, maxChildren)
	}
}
