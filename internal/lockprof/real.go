package lockprof

import (
	"sync"
	"time"
)

// RealMutex instruments a plain sync.Mutex whose waits are real nanoseconds
// (goroutine scheduling), not virtual time. The volatile directory index and
// the nvm CAS stripe locks deliberately cost no simulated time, but their
// real contention still bounds wall-clock benchmark speed — so their entries
// are recorded, flagged real, and excluded from the virtual conservation
// invariants, the wait-for graph and the spans cross-check (they never touch
// a clock). The blocked path measures with time.Now; the fast path is an
// atomic load, a counter bump and a TryLock.
type RealMutex struct {
	name
	mu sync.Mutex
}

// NewRealMutex returns a named real-time mutex.
func NewRealMutex(class, label string) *RealMutex {
	m := &RealMutex{}
	m.Init(class, label)
	return m
}

// Lock acquires the mutex; when profiling is active the acquisition is
// counted and, if it blocked, the real wait is recorded.
func (m *RealMutex) Lock() {
	reg := active.Load()
	if reg == nil {
		m.mu.Lock()
		return
	}
	e := m.resolve(reg, true)
	if e == nil {
		m.mu.Lock()
		return
	}
	e.acquires.Add(1)
	e.rs.acquires.Add(1)
	if m.mu.TryLock() {
		return
	}
	t0 := time.Now()
	m.mu.Lock()
	w := time.Since(t0).Nanoseconds()
	e.contended.Add(1)
	e.rs.contended.Add(1)
	if w > 0 {
		e.waitNS.Add(w)
		atomicMax(&e.maxWaitNS, w)
		e.waitH.Observe(w)
		e.rs.realWaitNS.Add(w)
	}
}

// Unlock releases the mutex.
func (m *RealMutex) Unlock() { m.mu.Unlock() }
