package pmemtrace_test

import (
	"testing"

	"zofs/internal/nvm"
	"zofs/internal/pmemtrace"
	"zofs/internal/simclock"
)

// commitProtocol runs a miniature two-phase update against a raw device:
// bulk data via an NT store, then a commit record as a cached store that is
// made durable by a flush — unless buggy, in which case the flush is
// deliberately skipped (the classic lost-commit bug the auditor exists to
// catch).
func commitProtocol(d *nvm.Device, clk *simclock.Clock, buggy bool) {
	data := make([]byte, 256)
	for i := range data {
		data[i] = 0xAB
	}
	d.WriteNT(clk, 0, data)
	commit := []byte{1, 2, 3, 4, 5, 6, 7, 8}
	d.Write(clk, commitOff, commit)
	if !buggy {
		d.Flush(clk, commitOff, int64(len(commit)))
	}
}

const commitOff = int64(4096)

// TestFailAfterSweepCorrectProtocol injects a crash after every persisting
// store of the correct protocol and asserts the auditor never reports a
// lost line: each intermediate state either has the commit record unwritten
// or fully flushed.
func TestFailAfterSweepCorrectProtocol(t *testing.T) {
	for failAt := int64(1); ; failAt++ {
		tr := pmemtrace.Enable(pmemtrace.Config{})
		d := nvm.NewDevice(1 << 20)
		clk := simclock.NewClock()
		crashed := false
		func() {
			defer func() {
				if r := recover(); r != nil {
					if !nvm.IsInjectedCrash(r) {
						panic(r)
					}
					crashed = true
				}
			}()
			d.FailAfter(failAt)
			commitProtocol(d, clk, false)
		}()
		d.FailAfter(0)
		d.Crash()
		rep := pmemtrace.Audit(tr.Events(), nil)
		pmemtrace.Disable()
		if len(rep.LostLines) != 0 {
			t.Fatalf("failAt=%d: correct protocol lost %d lines: %+v", failAt, len(rep.LostLines), rep.LostLines)
		}
		if rep.Crashes != 1 {
			t.Fatalf("failAt=%d: crashes = %d, want 1", failAt, rep.Crashes)
		}
		if crashed != (rep.Injected == 1) {
			t.Fatalf("failAt=%d: injected marker %d does not match crash %v", failAt, rep.Injected, crashed)
		}
		if !crashed {
			// Sweep exhausted: the protocol completed before the fail point.
			break
		}
	}
}

// TestUnflushedCommitRecordFlagged runs the buggy protocol (commit record's
// flush skipped) and asserts the auditor flags exactly the commit line.
func TestUnflushedCommitRecordFlagged(t *testing.T) {
	tr := pmemtrace.Enable(pmemtrace.Config{})
	defer pmemtrace.Disable()
	d := nvm.NewDevice(1 << 20)
	clk := simclock.NewClock()
	commitProtocol(d, clk, true)
	if got := d.DirtyLines(); got != 1 {
		t.Fatalf("device dirty lines = %d, want 1", got)
	}
	d.Crash()
	rep := pmemtrace.Audit(tr.Events(), nil)
	if len(rep.LostLines) != 1 {
		t.Fatalf("lost lines = %d, want exactly 1: %+v", len(rep.LostLines), rep.LostLines)
	}
	if rep.LostLines[0].Line != commitOff {
		t.Fatalf("lost line = %#x, want %#x (the unflushed commit record)", rep.LostLines[0].Line, commitOff)
	}
	// The unflushed commit record is real damage the cross-check must not
	// excuse: an imaginary fsck repair elsewhere stays unexplained...
	if dis := pmemtrace.CrossCheck(rep, []pmemtrace.RepairSite{{Off: 1 << 19, Kind: "dangling_ptr"}}); len(dis) == 0 {
		t.Fatalf("cross-check accepted a repair unrelated to the lost line")
	}
	// ...while a repair dropping a reference into the lost page is explained.
	if dis := pmemtrace.CrossCheck(rep, []pmemtrace.RepairSite{{Off: 1 << 19, Target: commitOff / pmemtrace.PageSize, Kind: "dangling_dentry"}}); len(dis) != 0 {
		t.Fatalf("cross-check rejected an explained repair: %v", dis)
	}
}

// TestRedundantFlushAndEmptyFence drives the overhead detectors directly.
func TestRedundantFlushAndEmptyFence(t *testing.T) {
	tr := pmemtrace.Enable(pmemtrace.Config{})
	defer pmemtrace.Disable()
	d := nvm.NewDevice(1 << 20)
	clk := simclock.NewClock()

	buf := make([]byte, 64)
	d.Write(clk, 0, buf)
	d.Flush(clk, 0, 64) // useful flush
	d.Flush(clk, 0, 64) // redundant: line already clean
	d.Fence(clk)        // empty: nothing stored since the flush
	d.WriteNT(clk, 128, buf)
	d.Fence(clk) // empty in this model: WriteNT folded its fence in

	rep := pmemtrace.Audit(tr.Events(), nil)
	if rep.RedundantFlushes != 1 {
		t.Errorf("redundant flushes = %d, want 1", rep.RedundantFlushes)
	}
	if rep.RedundantFlushLines != 1 {
		t.Errorf("redundant flush lines = %d, want 1", rep.RedundantFlushLines)
	}
	if rep.EmptyFences != 2 {
		t.Errorf("empty fences = %d, want 2", rep.EmptyFences)
	}
	if len(rep.LostLines) != 0 {
		t.Errorf("lost lines = %d, want 0 (no crash)", len(rep.LostLines))
	}
	if rep.Epochs == 0 || rep.StoresPerEpochMean <= 0 {
		t.Errorf("epoch stats missing: %+v", rep)
	}
}

// TestAttribution checks that a lost line is attributed to the op span
// its dirtying store fell inside.
func TestAttribution(t *testing.T) {
	events := []pmemtrace.Event{
		{Seq: 1, TS: 150, Kind: pmemtrace.KindStore, Off: 0, Len: 64, TID: 7, Key: 3},
		{Seq: 2, TS: 400, Kind: pmemtrace.KindCrash},
	}
	spans := []pmemtrace.OpSpan{
		{TID: 7, Op: "zofs.append", Start: 100, Dur: 100},
		{TID: 7, Op: "zofs.create", Start: 300, Dur: 50},
	}
	rep := pmemtrace.Audit(events, spans)
	if len(rep.LostLines) != 1 {
		t.Fatalf("lost lines = %d, want 1", len(rep.LostLines))
	}
	if got := rep.LostLines[0].Op; got != "zofs.append" {
		t.Fatalf("attributed op = %q, want zofs.append", got)
	}
	if rep.LostLines[0].Key != 3 {
		t.Fatalf("key = %d, want 3", rep.LostLines[0].Key)
	}
}

// TestRingDropKeepsSeq verifies overflow semantics: the ring drops the head
// but preserves sequence numbers, and the auditor marks the stream as
// truncated.
func TestRingDropKeepsSeq(t *testing.T) {
	r := pmemtrace.New(pmemtrace.Config{RingCap: 4})
	clk := simclock.NewClock()
	for i := 0; i < 10; i++ {
		r.Record(7, clk, pmemtrace.KindFence, 0, 0)
	}
	evs := r.Events()
	if len(evs) != 4 {
		t.Fatalf("ring holds %d events, want 4", len(evs))
	}
	if evs[0].Seq != 7 || evs[3].Seq != 10 {
		t.Fatalf("seq range [%d,%d], want [7,10]", evs[0].Seq, evs[3].Seq)
	}
	if r.Dropped() != 6 {
		t.Fatalf("dropped = %d, want 6", r.Dropped())
	}
	if rep := pmemtrace.Audit(evs, nil); !rep.Dropped {
		t.Fatalf("audit did not flag the truncated stream")
	}
}

// TestNilRecorderSafe exercises every recorder method on a nil receiver.
func TestNilRecorderSafe(t *testing.T) {
	var r *pmemtrace.Recorder
	r.Record(7, simclock.NewClock(), pmemtrace.KindStore, 0, 64)
	r.RecordViolation(0, 1, 2, 3, "x")
	if r.Events() != nil || r.Total() != 0 || r.Dropped() != 0 || r.FlushSpill() != nil {
		t.Fatal("nil recorder must be inert")
	}
}
