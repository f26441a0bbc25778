package lockprof_test

import (
	"testing"

	"zofs/internal/lockprof"
	"zofs/internal/simclock"
)

// waitSink is a clock's cost sink that sums the lock waits billed to it.
type waitSink struct{ total int64 }

func (s *waitSink) BillLockWait(ns int64) { s.total += ns }

func TestMutexBillsWait(t *testing.T) {
	var m lockprof.Mutex
	a, b := simclock.NewClock(), simclock.NewClock()
	sink := &waitSink{}
	b.SetBill(sink)

	m.Lock(a)
	a.Advance(100)
	m.Unlock(a)

	m.Lock(b) // b at t=0 must drain behind a's release at t=100
	if b.Now() != 100 {
		t.Fatalf("waiter clock = %d, want 100", b.Now())
	}
	if sink.total != 100 {
		t.Fatalf("billed wait = %d, want 100", sink.total)
	}
	b.Advance(10)
	m.Unlock(b)
}

// TestRLockBillsWriterDrain pins the read-side billing audit: a reader whose
// clock trails a prior writer's release stamp drains behind writeBusy and
// must bill that wait, exactly like the write side.
func TestRLockBillsWriterDrain(t *testing.T) {
	var m lockprof.RWMutex
	w, r := simclock.NewClock(), simclock.NewClock()
	sink := &waitSink{}
	r.SetBill(sink)

	m.Lock(w)
	w.Advance(250)
	m.Unlock(w)

	m.RLock(r)
	if r.Now() != 250 {
		t.Fatalf("reader clock = %d, want 250 (drained behind writer)", r.Now())
	}
	if sink.total != 250 {
		t.Fatalf("reader billed wait = %d, want 250", sink.total)
	}
	m.RUnlock(r)
}

// TestWriteLockBillsBothDrains checks the write side bills the full wait
// when it drains behind both a prior writer and a later-ending reader.
func TestWriteLockBillsBothDrains(t *testing.T) {
	var m lockprof.RWMutex
	w1, r, w2 := simclock.NewClock(), simclock.NewClock(), simclock.NewClock()
	sink := &waitSink{}
	w2.SetBill(sink)

	m.Lock(w1)
	w1.Advance(100)
	m.Unlock(w1)

	m.RLock(r) // reader drains to 100, then holds until 180
	r.Advance(80)
	m.RUnlock(r)

	m.Lock(w2)
	if w2.Now() != 180 {
		t.Fatalf("writer clock = %d, want 180", w2.Now())
	}
	if sink.total != 180 {
		t.Fatalf("writer billed wait = %d, want 180 (sum of both drains)", sink.total)
	}
	m.Unlock(w2)
}

func TestLockNilClock(t *testing.T) {
	var m lockprof.Mutex
	m.Lock(nil) // setup paths lock with no clock; must not panic
	m.Unlock(nil)
	var rw lockprof.RWMutex
	rw.Lock(nil)
	rw.Unlock(nil)
	rw.RLock(nil)
	rw.RUnlock(nil)
}
