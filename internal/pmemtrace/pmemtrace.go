// Package pmemtrace is the flight recorder of the Treasury stack: the one
// event log of a run. It holds every persistence-relevant action on the
// simulated NVM device — cached stores, non-temporal stores, flushes,
// fences, atomic word updates, crashes, injected failures — plus MPK
// protection faults and the lock profiler's contended waits, each stamped
// with the issuing thread's virtual time and, when known, its thread id and
// protection key.
//
// The recorder follows the same enablement pattern as internal/telemetry:
// a process-wide atomic pointer captured by nvm.New at device creation,
// with the nil *Recorder a valid no-op sink. Disabled, the device hot path
// pays one pointer load and a predicted branch; no allocation, no lock.
//
// An Event has one encoding, its JSON form (kinds by name): the spill an
// observation session writes as events.jsonl and an exemplar's event window
// both use it. On top of the stream sit a pmemcheck/Yat-style
// crash-consistency auditor (audit.go) and the merged Chrome trace-event
// exporter in internal/spans.
package pmemtrace

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"sync/atomic"

	"zofs/internal/simclock"
)

// Kind enumerates the recorded event types.
type Kind uint8

const (
	// KindStore is a cached (write-back) store: the range is dirty — visible
	// but not persistent — until a later flush covers it.
	KindStore Kind = iota
	// KindNTStore is a non-temporal store; the device folds the trailing
	// fence in, so the range is persistent when the event is emitted.
	KindNTStore
	// KindStore64 is an atomic 8-byte persistent store (ntstore+fence).
	KindStore64
	// KindCAS is a successful atomic compare-and-swap (persists like Store64).
	KindCAS
	// KindZero is a non-temporal zeroing of a range (page scrubbing).
	KindZero
	// KindFlush is clwb over a range plus a fence: the range is persistent.
	KindFlush
	// KindFence is an explicit store fence with no accompanying data.
	KindFence
	// KindCrash is a simulated power failure: every dirty line reverts to
	// its last persisted content. Len carries the device's dirty-line count
	// at the instant of the crash when tracking was on.
	KindCrash
	// KindCrashInject marks the panic from an armed FailAfter: the store
	// that tripped it is the immediately preceding event. The device image
	// does not revert until a later KindCrash.
	KindCrashInject
	// KindViolation is an MPK protection fault (mpk.Violation). Off is the
	// faulting page number (not a byte offset), Key/Cause describe the fault.
	KindViolation
	// KindLockWait is a contended acquisition of a named lock (lockprof): TS
	// is the wait's start, Len its virtual duration, TID the waiter, Off the
	// blamed holder's TID and Cause the lock's name.
	KindLockWait

	numKinds
)

var kindNames = [numKinds]string{
	KindStore:       "store",
	KindNTStore:     "nt_store",
	KindStore64:     "store64",
	KindCAS:         "cas",
	KindZero:        "zero",
	KindFlush:       "flush",
	KindFence:       "fence",
	KindCrash:       "crash",
	KindCrashInject: "crash_inject",
	KindViolation:   "mpk_violation",
	KindLockWait:    "lock_wait",
}

// String returns the event kind's stable wire name.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return "unknown"
}

// MarshalText encodes the kind as its name.
func (k Kind) MarshalText() ([]byte, error) { return []byte(k.String()), nil }

// UnmarshalText inverts MarshalText.
func (k *Kind) UnmarshalText(b []byte) error {
	for i, name := range kindNames {
		if name == string(b) {
			*k = Kind(i)
			return nil
		}
	}
	return fmt.Errorf("pmemtrace: unknown event kind %q", b)
}

// Persists reports whether the event makes its range durable on its own
// (the device folds the fence into these operations).
func (k Kind) Persists() bool {
	switch k {
	case KindNTStore, KindStore64, KindCAS, KindZero, KindFlush:
		return true
	}
	return false
}

// Fences reports whether the event carries store-fence semantics.
func (k Kind) Fences() bool {
	return k.Persists() || k == KindFence
}

// Event is one recorded event. TID and Key are best-effort origin
// attribution carried on the issuing thread's clock tag: -1 means unknown
// (kernel-side access, or an access outside any mapped coffer region).
type Event struct {
	Seq uint64 `json:"seq"` // 1-based position in the full stream (ring drops keep Seq)
	TS  int64  `json:"ts"`  // virtual nanoseconds (simclock)
	// Dev is the device UID: benchmark sweeps trace several devices whose
	// address ranges overlap, so the auditor partitions state per device.
	Dev  uint64 `json:"dev,omitempty"`
	Kind Kind   `json:"kind"`
	Off  int64  `json:"off,omitempty"` // byte offset (page for KindViolation, holder TID for KindLockWait)
	Len  int64  `json:"len,omitempty"` // byte length (dirty lines for KindCrash, wait for KindLockWait; 0 for fences)
	TID  int32  `json:"tid"`           // issuing simulated thread, -1 unknown
	Key  int16  `json:"key"`           // MPK key of the accessed page, -1 unknown
	// Cause is set on KindViolation (the fault) and KindLockWait (the lock).
	Cause string `json:"cause,omitempty"`
}

// Config controls a recorder.
type Config struct {
	// RingCap bounds the in-memory event ring; 0 means DefaultRingCap.
	// When the ring overflows, the oldest events are dropped (their Seq
	// numbers are never reused, so consumers can detect the gap).
	RingCap int
	// Spill, when non-nil, receives every event as one JSON line in stream
	// order, regardless of ring drops.
	Spill io.Writer
}

// DefaultRingCap is the default bound on the in-memory event ring.
const DefaultRingCap = 1 << 16

// Recorder is one flight-recorder sink. The nil *Recorder is a valid no-op
// sink: every method nil-checks its receiver.
type Recorder struct {
	mu       sync.Mutex
	buf      []Event // ring storage, len == cap
	total    uint64  // events ever recorded; buf[(total-1)%cap] is newest
	spill    *bufio.Writer
	enc      *json.Encoder // writes to spill
	spillErr error
}

// New returns an empty recorder.
func New(cfg Config) *Recorder {
	cap := cfg.RingCap
	if cap <= 0 {
		cap = DefaultRingCap
	}
	r := &Recorder{buf: make([]Event, cap)}
	if cfg.Spill != nil {
		r.spill = bufio.NewWriter(cfg.Spill)
		r.enc = json.NewEncoder(r.spill)
	}
	return r
}

// active is the process-wide recorder captured by nvm.New at device
// creation; nil means tracing is off (the default).
var active atomic.Pointer[Recorder]

// Enable installs (and returns) a fresh process-wide recorder. Devices
// created afterwards attach to it.
func Enable(cfg Config) *Recorder {
	r := New(cfg)
	active.Store(r)
	return r
}

// Install makes r the process-wide recorder (nil is equivalent to Disable) —
// the save/restore idiom of runs that record into a recorder of their own.
func Install(r *Recorder) { active.Store(r) }

// Disable removes the process-wide recorder; devices created afterwards
// are untraced.
func Disable() { active.Store(nil) }

// Active returns the current process-wide recorder, or nil when disabled.
func Active() *Recorder { return active.Load() }

// Origin tags: a thread's identity is packed into its clock's opaque tag so
// the device can attribute events without knowing about processes. Layout:
// bit 63 = tag valid, bits 16..47 = TID, bits 0..15 = key+1 (0 = unknown).
const tagValid = uint64(1) << 63

// PackTag encodes a thread id and an MPK key (-1 = unknown) as a clock tag.
func PackTag(tid int, key int16) uint64 {
	return tagValid | uint64(uint32(tid))<<16 | uint64(uint16(key+1))
}

func unpackTag(tag uint64) (tid int32, key int16) {
	if tag&tagValid == 0 {
		return -1, -1
	}
	return int32(uint32(tag >> 16)), int16(uint16(tag)) - 1
}

// Record appends one device event. dev identifies the emitting device (its
// UID); clk supplies the timestamp and origin tag, and a nil clk records at
// time zero with unknown origin (device-internal events such as Crash).
func (r *Recorder) Record(dev uint64, clk *simclock.Clock, kind Kind, off, n int64) {
	if r == nil {
		return
	}
	var ts int64
	tid, key := int32(-1), int16(-1)
	if clk != nil {
		ts = clk.Now()
		tid, key = unpackTag(clk.Tag())
	}
	r.append(Event{TS: ts, Dev: dev, Kind: kind, Off: off, Len: n, TID: tid, Key: key})
}

// RecordViolation appends an MPK protection-fault event.
func (r *Recorder) RecordViolation(ts int64, tid int, page int64, key int16, cause string) {
	if r == nil {
		return
	}
	r.append(Event{TS: ts, Kind: KindViolation, Off: page, TID: int32(tid), Key: key, Cause: cause})
}

// RecordLockWait appends a contended lock acquisition: tid waited wait
// virtual nanoseconds from start for lock, blaming holder.
func (r *Recorder) RecordLockWait(start, wait int64, tid, holder int, lock string) {
	if r == nil {
		return
	}
	r.append(Event{TS: start, Kind: KindLockWait, Off: int64(holder), Len: wait, TID: int32(tid), Key: -1, Cause: lock})
}

func (r *Recorder) append(ev Event) {
	r.mu.Lock()
	r.total++
	ev.Seq = r.total
	slot := &r.buf[(r.total-1)%uint64(len(r.buf))]
	*slot = ev
	if r.spill != nil && r.spillErr == nil {
		r.spillErr = r.enc.Encode(slot) // from the ring, so ev stays on the stack
	}
	r.mu.Unlock()
}

// Events returns the ring's contents in stream order (oldest retained
// first). If more events were recorded than the ring holds, the head of the
// stream is missing; compare Events()[0].Seq against 1 or check Dropped.
func (r *Recorder) Events() []Event {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	cap := uint64(len(r.buf))
	n := r.total
	if n > cap {
		out := make([]Event, cap)
		for i := uint64(0); i < cap; i++ {
			out[i] = r.buf[(n+i)%cap]
		}
		return out
	}
	out := make([]Event, n)
	copy(out, r.buf[:n])
	return out
}

// EventsBetween returns retained events with TS in [t0, t1] in stream order,
// at most max of them; truncated reports whether the cap cut the window
// short. The spans layer attaches this window to worst-op exemplars so the
// device traffic around a tail operation (all threads) travels with it.
func (r *Recorder) EventsBetween(t0, t1 int64, max int) (out []Event, truncated bool) {
	if r == nil || max <= 0 {
		return nil, false
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	cap := uint64(len(r.buf))
	n := r.total
	count, start := n, uint64(0)
	if n > cap {
		count, start = cap, n
	}
	for i := uint64(0); i < count; i++ {
		ev := r.buf[(start+i)%cap]
		if ev.TS < t0 || ev.TS > t1 {
			continue
		}
		if len(out) == max {
			return out, true
		}
		out = append(out, ev)
	}
	return out, false
}

// Total returns the number of events ever recorded.
func (r *Recorder) Total() uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.total
}

// Dropped returns how many events fell off the ring (still present in the
// spill stream, if one was configured).
func (r *Recorder) Dropped() uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.total > uint64(len(r.buf)) {
		return r.total - uint64(len(r.buf))
	}
	return 0
}

// FlushSpill drains the buffered spill writer and returns the first spill
// error encountered, if any.
func (r *Recorder) FlushSpill() error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.spill != nil {
		if err := r.spill.Flush(); err != nil && r.spillErr == nil {
			r.spillErr = err
		}
	}
	return r.spillErr
}
