package fslibs

import (
	"fmt"
	"sync"
	"testing"

	"zofs/internal/spans"
	"zofs/internal/vfs"
)

// withSpans installs a fresh collector for the test and restores the prior
// process-wide state on cleanup. It must run before newLib so the stack's
// threads pick up span contexts.
func withSpans(t *testing.T) *spans.Collector {
	t.Helper()
	prev := spans.Active()
	col := spans.Enable(spans.Config{})
	t.Cleanup(func() { spans.Install(prev) })
	return col
}

// spansWorkload is a deterministic mixed workload used by both the
// attribution and the zero-overhead tests.
func spansWorkload(t *testing.T) int64 {
	t.Helper()
	_, _, l, th := newLib(t)
	for i := 0; i < 8; i++ {
		fd, err := l.Open(th, fmt.Sprintf("/w%02d", i), vfs.O_CREATE|vfs.O_RDWR, 0o644)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := l.Write(th, fd, make([]byte, 4096)); err != nil {
			t.Fatal(err)
		}
		if err := l.Fsync(th, fd); err != nil {
			t.Fatal(err)
		}
		if err := l.Close(th, fd); err != nil {
			t.Fatal(err)
		}
		if _, err := l.Stat(th, fmt.Sprintf("/w%02d", i)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := l.ReadDir(th, "/"); err != nil {
		t.Fatal(err)
	}
	return th.Clk.Now()
}

// TestSpansAttributionAcrossStack drives the full FSLibs → ZoFS → KernFS
// stack with spans on and asserts the core attribution invariants: every
// span closed, per-op components sum exactly to the measured latency, NVM
// bytes attributed, and KernFS calls visible as children.
func TestSpansAttributionAcrossStack(t *testing.T) {
	col := withSpans(t)
	spansWorkload(t)

	if open := col.OpenRoots(); open != 0 {
		t.Fatalf("%d spans left open", open)
	}
	if dc := col.DoubleCloses(); dc != 0 {
		t.Fatalf("%d double closes", dc)
	}
	snap := col.Snapshot()
	for _, op := range []string{"open", "write", "fsync", "close", "stat", "readdir"} {
		b, ok := snap.Ops[op]
		if !ok {
			t.Fatalf("no spans recorded for op %q (have %v)", op, snap.Ops)
		}
		var sum int64
		for _, cs := range b.Comp {
			sum += cs.SumNS
		}
		if sum != b.SumNS {
			t.Errorf("op %s: components sum to %d ns, measured %d ns", op, sum, b.SumNS)
		}
	}
	if w := snap.Ops["write"]; w.BytesWritten == 0 || w.Comp["media"].SumNS == 0 {
		t.Errorf("write spans carry no NVM attribution: %+v", w)
	}
	if snap.OverBilledNS != 0 {
		t.Errorf("%d ns over-billed", snap.OverBilledNS)
	}

	var kernfsChildren int
	for _, r := range col.Roots() {
		for _, ch := range r.Children {
			if len(ch.Name) > 7 && ch.Name[:7] == "kernfs." {
				kernfsChildren++
			}
		}
	}
	if kernfsChildren == 0 {
		t.Error("no kernfs child spans recorded; layer-boundary hooks are dead")
	}
}

// TestSpansZeroVirtualOverhead: span billing observes clocks and never
// advances them, so the workload's virtual end time must be bit-identical
// with collection on and off.
func TestSpansZeroVirtualOverhead(t *testing.T) {
	prev := spans.Active()
	spans.Disable()
	off := spansWorkload(t)
	spans.Enable(spans.Config{})
	on := spansWorkload(t)
	spans.Install(prev)
	if off != on {
		t.Fatalf("virtual time differs: %d ns off vs %d ns on", off, on)
	}
}

// TestSpanAbortedOnFault: an MPK violation surfacing through the dispatch
// guard must mark the interrupted op's span aborted — and still close it.
func TestSpanAbortedOnFault(t *testing.T) {
	col := withSpans(t)
	dev, _, l, th := newLib(t)
	fd, err := l.Open(th, "/victim", vfs.O_CREATE|vfs.O_RDWR, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Write(th, fd, make([]byte, 4096)); err != nil {
		t.Fatal(err)
	}
	fi, err := l.Stat(th, "/victim")
	if err != nil {
		t.Fatal(err)
	}
	// Redirect the file's first direct block pointer (inode offset 80) far
	// outside the coffer: the next read dereferences it and faults on a
	// page the thread has no protection key for.
	var evil [8]byte
	wild := uint64(dev.Pages() - 1)
	for i := range evil {
		evil[i] = byte(wild >> (8 * i))
	}
	dev.WriteNT(nil, fi.Inode*4096+80, evil[:])

	buf := make([]byte, 512)
	if _, err := l.Pread(th, fd, buf, 0); err == nil {
		t.Fatal("read through a wild block pointer should fail")
	}

	snap := col.Snapshot()
	if snap.Aborted == 0 {
		t.Fatal("fault-terminated op did not mark its span aborted")
	}
	if got := snap.Ops["read"].Aborted; got != 1 {
		t.Fatalf("read aborted count = %d, want 1", got)
	}
	if open := col.OpenRoots(); open != 0 {
		t.Fatalf("%d spans leaked across the fault", open)
	}
	// The violation is attached to the aborted root as an annotation.
	var annotated bool
	for _, r := range col.Roots() {
		if !r.Aborted {
			continue
		}
		for _, ch := range r.Children {
			if ch.Name == "mpk_violation" && ch.Detail != "" {
				annotated = true
			}
		}
	}
	if !annotated {
		t.Error("aborted span carries no mpk_violation annotation")
	}
}

// TestSpansConcurrentThreadsSharedFD: several threads of one process hammer
// the same open file descriptor. Each thread bills to its own span context;
// the collector must account every op exactly once, with inode-lock
// contention showing up in the table rather than corrupting attribution.
func TestSpansConcurrentThreadsSharedFD(t *testing.T) {
	col := withSpans(t)
	_, _, l, th := newLib(t)
	fd, err := l.Open(th, "/shared", vfs.O_CREATE|vfs.O_RDWR, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	const threads, per = 4, 32
	var wg sync.WaitGroup
	errs := make(chan error, threads)
	for i := 0; i < threads; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			tth := th.Proc.NewThread()
			buf := make([]byte, 512)
			for j := 0; j < per; j++ {
				if _, err := l.Pwrite(tth, fd, buf, int64(i)*4096); err != nil {
					errs <- err
					return
				}
				if _, err := l.Pread(tth, fd, buf, int64(i)*4096); err != nil {
					errs <- err
					return
				}
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	if open := col.OpenRoots(); open != 0 {
		t.Fatalf("%d spans open after all threads joined", open)
	}
	if dc := col.DoubleCloses(); dc != 0 {
		t.Fatalf("%d double closes under concurrency", dc)
	}
	snap := col.Snapshot()
	wantWrites := int64(threads * per)
	if got := snap.Ops["write"].Count; got != wantWrites {
		t.Errorf("write span count = %d, want %d", got, wantWrites)
	}
	if got := snap.Ops["read"].Count; got != wantWrites {
		t.Errorf("read span count = %d, want %d", got, wantWrites)
	}
	for _, op := range []string{"read", "write"} {
		b := snap.Ops[op]
		var sum int64
		for _, cs := range b.Comp {
			sum += cs.SumNS
		}
		if sum != b.SumNS {
			t.Errorf("op %s: components sum to %d ns, measured %d ns", op, sum, b.SumNS)
		}
	}
}
