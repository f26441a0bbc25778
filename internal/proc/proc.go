// Package proc models processes and threads for the Treasury architecture.
//
// A Process owns a user identity (uid/gid), an MPK-tagged address space
// maintained by the kernel, and the set of coffers currently mapped into it.
// A Thread owns a virtual clock and a PKRU register. All user-space accesses
// to the NVM device flow through Thread accessors, which enforce the page
// table and PKRU exactly as the MMU would (§2.4, §3.4); kernel code accesses
// the device directly.
package proc

import (
	"math/bits"
	"sync"
	"sync/atomic"

	"zofs/internal/lockprof"
	"zofs/internal/mpk"
	"zofs/internal/nvm"
	"zofs/internal/perfmodel"
	"zofs/internal/pmemtrace"
	"zofs/internal/simclock"
	"zofs/internal/spans"
	"zofs/internal/telemetry"
)

// Process is a simulated OS process.
type Process struct {
	PID int
	dev *nvm.Device

	mu  sync.RWMutex
	uid uint32
	gid uint32

	// Mem is the kernel-maintained, MPK-tagged page table for this process.
	Mem *mpk.AddressSpace

	// windows counts, per protection key, the threads whose PKRU enables
	// access to it: the MPK windows open in the process.
	windows [mpk.NumKeys]atomic.Int32

	// Kernel-private per-process state attached by KernFS (mapped coffers,
	// assigned MPK regions). Typed as any to avoid a dependency cycle.
	KernState any
}

var nextPID atomic.Int64

// nextTID is global, like gettid(): a TID identifies a thread across every
// process on the machine. The persistent inode lease word stores the holder's
// TID, so cross-process holder identity checks (is this lease mine, or a
// dead peer's?) are only sound with machine-unique TIDs.
var nextTID atomic.Int64

// ResetIDs restarts the machine-global PID/TID counters, as a reboot of the
// simulated machine would. Only for harnesses that model a whole machine
// from boot (the chaos engine): their reports must be byte-reproducible, so
// identity counters cannot depend on what ran earlier in the host process.
func ResetIDs() {
	nextPID.Store(0)
	nextTID.Store(0)
}

// NewProcess creates a process with the given identity over a device.
func NewProcess(dev *nvm.Device, uid, gid uint32) *Process {
	return &Process{
		PID: int(nextPID.Add(1)),
		dev: dev,
		uid: uid,
		gid: gid,
		Mem: mpk.NewAddressSpace(dev.Pages()),
	}
}

// UID returns the process's current user id.
func (p *Process) UID() uint32 { p.mu.RLock(); defer p.mu.RUnlock(); return p.uid }

// GID returns the process's current group id.
func (p *Process) GID() uint32 { p.mu.RLock(); defer p.mu.RUnlock(); return p.gid }

// SetIdentity changes uid/gid (setuid); KernFS unmaps all coffers when this
// happens (§3.3) — callers must go through the kernel wrapper that does so.
func (p *Process) SetIdentity(uid, gid uint32) {
	p.mu.Lock()
	p.uid, p.gid = uid, gid
	p.mu.Unlock()
}

// Device returns the NVM device backing this process's mappings.
func (p *Process) Device() *nvm.Device { return p.dev }

// WindowOpen reports whether some thread of the process has an MPK window
// open on key k. Unmapping the coffer tagged k would fault that thread's next
// access.
func (p *Process) WindowOpen(k mpk.Key) bool { return p.windows[k].Load() > 0 }

// NewThread creates a thread with a fresh clock and the default PKRU
// (all coffer regions access-disabled).
func (p *Process) NewThread() *Thread {
	t := &Thread{
		Proc: p,
		Clk:  simclock.NewClock(),
		TID:  int(nextTID.Add(1)),
		pkru: mpk.DefaultPKRU(),
	}
	// Tag the clock so the flight recorder can attribute device events to
	// this thread; the key half of the tag is refreshed per checked access.
	t.Clk.SetTag(pmemtrace.PackTag(t.TID, -1))
	// Attach the causal-span context the same way: lower layers bill costs
	// to the active span through the clock without knowing about spans.
	if col := spans.Active(); col != nil {
		t.Clk.SetBill(spans.NewThreadCtx(col, t.TID))
	}
	// And the lock-profiler state: named locks record waits against it when
	// the registry that issued it is still the active one.
	if reg := lockprof.Active(); reg != nil {
		t.Clk.SetLockState(reg.NewThreadState(t.TID))
	}
	return t
}

// RunThreads is the deadline stepper of the multi-thread benchmarks (FxMark,
// Filebench). It starts n new threads at from's clock and runs step(i, th) —
// one operation on thread i — through Run, a thread runnable while its clock
// is short of the start plus targetNS, so every run is a function of virtual
// time alone. It returns the virtual time from the start to the slowest
// thread's clock, or the first error step returns.
func (p *Process) RunThreads(from *Thread, n int, targetNS int64, step func(i int, th *Thread) error) (int64, error) {
	start := from.Clk.Now()
	ths := make([]*Thread, n)
	for i := range ths {
		ths[i] = p.NewThread()
		ths[i].Clk.AdvanceTo(start)
	}
	runnable := func(i int) bool { return ths[i].Clk.Now() < start+targetNS }
	if _, err := Run(ths, runnable, nil, step); err != nil {
		return 0, err
	}
	var end int64
	for _, th := range ths {
		end = max(end, th.Clk.Now())
	}
	return end - start, nil
}

// Run is the one stepper of every multi-thread run: on the calling
// goroutine it calls before(n), n the steps run so far, then runs step on
// the thread Next picks, until Next finds none runnable. before may be nil;
// it may change what runnable admits (the chaos campaign kills and stalls
// clients there). Run returns the number of steps run, or that number and
// the first error step returns.
func Run(ths []*Thread, runnable func(i int) bool, before func(n int), step func(i int, th *Thread) error) (int, error) {
	for n := 0; ; n++ {
		if before != nil {
			before(n)
		}
		i := Next(ths, runnable)
		if i < 0 {
			return n, nil
		}
		if err := step(i, ths[i]); err != nil {
			return n, err
		}
	}
}

// Next returns the index of the thread Run steps next: of the threads
// runnable admits, the one whose clock reads earliest, ties to the lowest
// index (simclock.Earliest); -1 when it admits none.
func Next(ths []*Thread, runnable func(i int) bool) int {
	return simclock.Earliest(len(ths), func(i int) *simclock.Clock {
		if !runnable(i) {
			return nil
		}
		return ths[i].Clk
	})
}

// Thread is a simulated thread: the unit of virtual-time accounting and of
// PKRU-based protection state.
type Thread struct {
	Proc *Process
	Clk  *simclock.Clock
	TID  int
	pkru mpk.PKRU

	// Scratch is host-side working memory the file system library running on
	// this thread reuses from one operation to the next. It outlives every
	// file, so what an op needs only until it returns — a symlink's target, a
	// page list — costs no heap object. Single-owner like the thread; nothing
	// in it survives the op that filled it, except Scratch.Dir, which a
	// listing hands back to its caller, and the memo in Scratch.Link.
	Scratch Scratch
}

// Scratch is a thread's reusable working memory. A user slices what it needs
// from the front and stores the slice back if it grew; two users never nest.
type Scratch struct {
	Bytes []byte  // a symlink target, the path a link expands to
	Pages []int64 // a file's pages at unlink, a subtree's at split
	// Link is the library's symlink state: its reusable *vfs.SymlinkError
	// and what it remembers of the links it expanded (opaque: vfs imports
	// proc, so it rides like the clock's riders).
	Link any
	// Dir is the thread's directory listing (a *[]vfs.DirEntry, opaque for
	// the same reason). Unlike the fields above it outlives the op that
	// filled it: ReadDir returns it, and it stays valid until the thread's
	// next ReadDir, as readdir(3)'s buffer does until the next call.
	Dir any
}

// Buf returns n scratch bytes, their content unspecified.
func (s *Scratch) Buf(n int) []byte {
	if cap(s.Bytes) < n {
		s.Bytes = make([]byte, n)
	}
	return s.Bytes[:n]
}

// PKRU returns the thread's current protection-key rights register.
func (t *Thread) PKRU() mpk.PKRU { return t.pkru }

// WrPKRU writes the register, charging the WRPKRU instruction cost
// (~16 cycles, §3.4.1).
func (t *Thread) WrPKRU(v mpk.PKRU) {
	cost := perfmodel.WRPKRUCost()
	t.Clk.Advance(cost)
	spans.FromClock(t.Clk).Bill(spans.CompPKRU, cost)
	rec := t.Proc.dev.Recorder()
	rec.Inc(telemetry.CtrMPKSwitches)
	rec.Inc(telemetry.CtrMPKWRPKRUCharged)
	t.setPKRU(v)
}

// setPKRU installs v, counting the windows it opens and closes in the
// process.
func (t *Thread) setPKRU(v mpk.PKRU) {
	const coffersAD = 0x55555554 // the access-disable bits of keys 1..15
	for ch := uint32(t.pkru^v) & coffersAD; ch != 0; ch &= ch - 1 {
		k := mpk.Key(bits.TrailingZeros32(ch) / 2)
		if v.CanRead(k) {
			t.Proc.windows[k].Add(1)
		} else {
			t.Proc.windows[k].Add(-1)
		}
	}
	t.pkru = v
}

// OpenWindow grants this thread access to exactly one coffer region,
// disabling all others — guidelines G1 and G2 in one step. It returns the
// previous register value for restoring via WrPKRU.
func (t *Thread) OpenWindow(key mpk.Key, write bool) mpk.PKRU {
	prev := t.pkru
	t.WrPKRU(mpk.DefaultPKRU().WithAccess(key, true, write))
	spans.FromClock(t.Clk).SetKey(uint8(key))
	return prev
}

// CloseWindow disables access to all coffer regions (back to default).
func (t *Thread) CloseWindow() { t.WrPKRU(mpk.DefaultPKRU()) }

// SetPKRUFree updates the register without charging the WRPKRU cost. Used
// by kernel-side FS variants whose accesses are not MPK-mediated at all:
// the simulation still tracks the register for memory-safety checks, but no
// protection-switch cost exists on the modeled hardware path.
func (t *Thread) SetPKRUFree(v mpk.PKRU) {
	t.Proc.dev.Recorder().Inc(telemetry.CtrMPKSwitches)
	t.setPKRU(v)
}

func pageSpan(off, n int64) (page, count int64) {
	if n <= 0 {
		n = 1
	}
	first := off / nvm.PageSize
	last := (off + n - 1) / nvm.PageSize
	return first, last - first + 1
}

// check enforces the page table + PKRU for an access from user space.
func (t *Thread) check(off, n int64, write bool) {
	page, count := pageSpan(off, n)
	if tr := pmemtrace.Active(); tr != nil {
		t.checkTraced(tr, page, count, write)
		return
	}
	t.Proc.Mem.CheckObserved(t.pkru, page, count, write, spans.ObserverFor(t.Clk))
}

// checkTraced is the flight-recorded MMU check: it refreshes the clock's
// origin tag with the accessed page's protection key and records any
// mpk.Violation into the event stream before re-raising it. Kept out of
// check so the untraced path stays defer-free.
func (t *Thread) checkTraced(tr *pmemtrace.Recorder, page, count int64, write bool) {
	key := int16(-1)
	if k, ok := t.Proc.Mem.KeyOf(page); ok {
		key = int16(k)
	}
	t.Clk.SetTag(pmemtrace.PackTag(t.TID, key))
	defer func() {
		if r := recover(); r != nil {
			if v, ok := r.(mpk.Violation); ok {
				tr.RecordViolation(t.Clk.Now(), t.TID, v.Page, int16(v.Key), v.Cause)
			}
			panic(r)
		}
	}()
	t.Proc.Mem.CheckObserved(t.pkru, page, count, write, spans.ObserverFor(t.Clk))
}

// CheckAccess exposes the MMU check for callers that batch the cost of a
// group of accesses but must still enforce protection per access.
func (t *Thread) CheckAccess(off, n int64, write bool) { t.check(off, n, write) }

// Read performs a checked user-space load.
func (t *Thread) Read(off int64, buf []byte) {
	t.check(off, int64(len(buf)), false)
	t.Proc.dev.Read(t.Clk, off, buf)
}

// ReadView returns a borrowed slice over device bytes, MPK-checked at
// handout and charged like Read. The view aliases live media: it is valid
// only while the coffer window that authorized it stays open, must not be
// written through, and must not be retained across an operation boundary.
// ok=false means the range crosses a chunk boundary — fall back to Read.
func (t *Thread) ReadView(off, n int64) ([]byte, bool) {
	t.check(off, n, false)
	return t.Proc.dev.ReadView(t.Clk, off, n)
}

// ReadViewCached is ReadView charged as a CPU-cache hit (hot metadata the
// library touched recently), with the same borrowing rules.
func (t *Thread) ReadViewCached(off, n int64) ([]byte, bool) {
	t.check(off, n, false)
	t.Clk.Advance(perfmodel.CPUSmallOp)
	return t.Proc.dev.ReadViewNoCharge(off, n)
}

// WriteView hands out a borrowed slice the caller fills in place with
// WriteNT's cost and persistence semantics; commit.Done must be called once
// the fill is complete, before the coffer window closes. ok=false means the
// range crosses a chunk boundary — fall back to WriteNT.
func (t *Thread) WriteView(off, n int64) (buf []byte, commit nvm.ViewCommit, ok bool) {
	t.check(off, n, true)
	return t.Proc.dev.WriteView(t.Clk, off, n)
}

// Write performs a checked cached store (dirty until flushed).
func (t *Thread) Write(off int64, data []byte) {
	t.check(off, int64(len(data)), true)
	t.Proc.dev.Write(t.Clk, off, data)
}

// WriteNT performs a checked non-temporal (immediately persistent) store.
func (t *Thread) WriteNT(off int64, data []byte) {
	t.check(off, int64(len(data)), true)
	t.Proc.dev.WriteNT(t.Clk, off, data)
}

// Flush persists a previously written range (clwb + fence).
func (t *Thread) Flush(off, n int64) {
	t.check(off, n, true)
	t.Proc.dev.Flush(t.Clk, off, n)
}

// Fence charges a store fence.
func (t *Thread) Fence() { t.Proc.dev.Fence(t.Clk) }

// Load64 performs a checked atomic load.
func (t *Thread) Load64(off int64) uint64 {
	t.check(off, 8, false)
	return t.Proc.dev.Load64(t.Clk, off)
}

// Load64Cached performs a checked atomic load charged as a CPU-cache hit,
// for hot metadata words (a thread repeatedly operating on one file keeps
// its inode header and block pointers in L1).
func (t *Thread) Load64Cached(off int64) uint64 {
	t.check(off, 8, false)
	t.Clk.Advance(perfmodel.CPUSmallOp)
	return t.Proc.dev.Load64(nil, off)
}

// Store64 performs a checked atomic persistent store.
func (t *Thread) Store64(off int64, v uint64) {
	t.check(off, 8, true)
	t.Proc.dev.Store64(t.Clk, off, v)
}

// CAS64 performs a checked atomic compare-and-swap.
func (t *Thread) CAS64(off int64, old, new uint64) bool {
	t.check(off, 8, true)
	return t.Proc.dev.CAS64(t.Clk, off, old, new)
}

// Zero zeroes a checked range with non-temporal stores.
func (t *Thread) Zero(off, n int64) {
	t.check(off, n, true)
	t.Proc.dev.Zero(t.Clk, off, n)
}

// StrayWrite models a wild store from buggy application code (§6.5): it is
// subject to exactly the same page-table/PKRU enforcement as library code,
// so with all windows closed it faults instead of corrupting a coffer.
func (t *Thread) StrayWrite(off int64, data []byte) {
	t.Write(off, data)
}

// CPU charges pure CPU time (software path costs).
func (t *Thread) CPU(ns int64) { t.Clk.Advance(ns) }

// Syscall charges one kernel entry/exit (used by KernFS and the kernel-side
// baseline file systems on every operation).
func (t *Thread) Syscall() {
	t.Clk.Advance(perfmodel.Syscall)
	spans.FromClock(t.Clk).Bill(spans.CompKernel, perfmodel.Syscall)
	t.Proc.dev.Recorder().Inc(telemetry.CtrKernSyscalls)
}
