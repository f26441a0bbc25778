package zofs

import (
	"errors"
	"fmt"
	"sync"

	"zofs/internal/byteflow"
	"zofs/internal/coffer"
	"zofs/internal/perfmodel"
	"zofs/internal/proc"
	"zofs/internal/retry"
	"zofs/internal/telemetry"
	"zofs/internal/vfs"
)

// rec returns the device's telemetry recorder (nil-safe when disabled).
func (f *FS) rec() *telemetry.Recorder { return f.kern.Device().Recorder() }

// allocRescanPolicy schedules pool-rescan backoff when every slot is leased
// to a live thread: the first retry lands after roughly half a lease window
// (the previous fixed behaviour), then grows toward two full windows so
// threads far past the pool size stop hammering the 62-slot scan. Budget is
// irrelevant here — the memo never sleeps — so only Base/Cap are used.
var allocRescanPolicy = retry.Policy{
	Base: leaseDuration / 2,
	Cap:  2 * leaseDuration,
}

// Leased per-thread allocator (paper §5.2, Figure 6).
//
// The coffer's custom page holds a shared pool of leased free-list
// structures {TID, lease, head, count}. A thread wanting pages first checks
// its cached slot; if the lease is valid it renews and allocates from its
// own free list (no cross-thread contention). Otherwise it claims a free or
// lease-expired slot from the pool. The free list itself is volatile
// (threadSlots.cache): when it runs dry the thread requests a batch from
// KernFS via coffer_enlarge, and freed pages are pushed back to the caller's
// own list. The slot's on-media head word, which chains free pages through
// their first 8 bytes, is only ever read and drained (allocPage).
//
// Two classes exist per thread: metadata pages (kernel-zeroed grants, small
// batch) and data pages (unzeroed grants, large batch).

func slotOffset(custom int64, idx int32) int64 {
	return custom*pageSize + poolOff + int64(idx)*slotSize
}

// threadSlotsFor returns (creating if needed) the calling thread's slot
// cache for a mount. The map is lock-free on the hot path; each entry is
// only ever used by its own thread.
func (m *mount) threadSlotsFor(tid int) *threadSlots {
	if v, ok := m.slots.Load(tid); ok {
		return v.(*threadSlots)
	}
	v, _ := m.slots.LoadOrStore(tid, &threadSlots{slot: [2]int32{-1, -1}})
	return v.(*threadSlots)
}

// initPoolIfNeeded lazily formats the custom page's pool (idempotent; the
// first claimer wins the magic CAS).
func (f *FS) initPoolIfNeeded(th *proc.Thread, m *mount) {
	if th.Load64(m.custom*pageSize+customMagicOff) == customMagic {
		return
	}
	th.CAS64(m.custom*pageSize+customMagicOff, 0, customMagic)
}

// claimSlot finds a pool slot for the calling thread and allocation class:
// first its own previous slot of that class (the volatile cache may have
// been dropped by an unmap/remap cycle, but the lease still names this
// thread), then any free or expired slot. The class is recorded in the
// slot's TID field so meta and data free lists can never cross.
func (f *FS) claimSlot(th *proc.Thread, m *mount, class int) (int32, error) {
	f.initPoolIfNeeded(th, m)
	now := th.Clk.Now()
	myTID := th.TID & 0xffff
	for idx := int32(0); idx < poolSlots; idx++ {
		off := slotOffset(m.custom, idx)
		lease := th.Load64(off + slotLeaseOff)
		tid, expiry := unpackLease(lease)
		if lease == 0 || tid != myTID || expiry <= now {
			continue
		}
		if int(th.Load64(off+slotTIDOff)>>32) != class {
			continue
		}
		// Our own still-valid lease of the right class: renew and reuse.
		th.Store64(off+slotLeaseOff, leaseWord(th.TID, now+leaseDuration))
		return idx, nil
	}
	for idx := int32(0); idx < poolSlots; idx++ {
		off := slotOffset(m.custom, idx)
		lease := th.Load64(off + slotLeaseOff)
		_, expiry := unpackLease(lease)
		if lease != 0 && expiry > now {
			continue
		}
		if th.CAS64(off+slotLeaseOff, lease, leaseWord(th.TID, now+leaseDuration)) {
			th.Store64(off+slotTIDOff, uint64(th.TID)|uint64(class)<<32)
			return idx, nil
		}
	}
	if debugPool {
		println("claimSlot exhausted: coffer", m.id, "now", now)
		for idx := int32(0); idx < 8; idx++ {
			w := th.Load64(slotOffset(m.custom, idx) + slotLeaseOff)
			tid, exp := unpackLease(w)
			println("  slot", idx, "tid", tid, "expiry", exp)
		}
	}
	return -1, vfs.ErrNoSpace
}

// debugPool enables claimSlot diagnostics in tests.
var debugPool = false

// SetDebugPool toggles allocator pool diagnostics (tests only).
func SetDebugPool(v bool) { debugPool = v }

// debugFree tracks page states (1=on a free list, 2=live) to catch double
// grants and double frees in tests.
var debugFree sync.Map // page -> int

// slotFor returns the thread's claimed slot for a class, claiming or
// re-validating the lease as needed, along with the cached free-list head.
func (f *FS) slotFor(th *proc.Thread, m *mount, class int) (*threadSlots, int64, error) {
	th.CPU(perfmodel.CPULockAcquire) // clock_gettime for the lease check
	ts := m.threadSlotsFor(th.TID)
	if ts.slot[class] >= 0 {
		off := slotOffset(m.custom, ts.slot[class])
		lease := th.Load64Cached(off + slotLeaseOff)
		tid, expiry := unpackLease(lease)
		if tid == th.TID&0xffff && expiry > th.Clk.Now() {
			// Renew lazily: a persistent lease write per allocation would
			// dominate the hot path; half the lease window is plenty.
			if expiry-th.Clk.Now() < leaseDuration/2 {
				th.Store64(off+slotLeaseOff, leaseWord(th.TID, th.Clk.Now()+leaseDuration))
			}
			return ts, slotOffset(m.custom, ts.slot[class]), nil
		}
		// Lease lost (expired and stolen): drop the cache.
		ts.slot[class] = -1
		ts.head[class] = 0
	}
	idx, err := f.claimSlot(th, m, class)
	if err != nil {
		return nil, 0, err
	}
	ts.slot[class] = idx
	off := slotOffset(m.custom, idx)
	// The head word is media input: usually 0, but a slot claimed on an image
	// from outside this program may head a chain, which allocPage drains.
	ts.head[class] = int64(th.Load64(off + slotHeadOff))
	return ts, off, nil
}

// allocPage takes one page for the thread: off its volatile batch cache (no
// NVM traffic at all), refilled by a kernel grant. Metadata pages come back
// zeroed.
//
// The lease machinery still runs on every allocation (slotFor), so crashed
// holders remain observable; only the page list itself lives in DRAM. A
// crash drops cached pages on the floor — they stay tagged to the coffer in
// the allocation table but are referenced by nothing, so recovery's in-use
// traversal reclaims them (§5.3).
func (f *FS) allocPage(th *proc.Thread, m *mount, class int) (int64, error) {
	// Allocator scope: lease stores and kernel grants (including their
	// zeroing and allocation-table writes) are alloc-class bytes, whatever
	// class the caller was writing.
	prev := th.Clk.SwapWriteClass(uint8(byteflow.ClassAlloc))
	defer th.Clk.SetWriteClass(prev)
	if ts := m.threadSlotsFor(th.TID); ts.slot[class] < 0 && th.Clk.Now() < ts.noSlotUntil[class] {
		th.CPU(perfmodel.CPULockAcquire) // backoff-deadline check
		return f.allocCached(th, m, ts, class)
	}
	ts, slotOff, err := f.slotFor(th, m, class)
	if err != nil {
		if errors.Is(err, vfs.ErrNoSpace) {
			// Every pool slot is leased to a live thread: the pool is one
			// custom page (62 slots, §5.2), so past ~62 threads per coffer
			// claims must fail until a lease expires. Serve the thread
			// slotless through the volatile cache and back off the pool
			// rescans under the unified retry policy. The backoff is latent
			// (a memo of when to rescan, not a sleep — the thread keeps
			// serving pages slotless meanwhile), so no retry time is billed.
			ts := m.threadSlotsFor(th.TID)
			seed := uint64(th.TID)<<32 ^ uint64(m.id)
			ts.noSlotUntil[class] = th.Clk.Now() + allocRescanPolicy.DelayAt(seed, ts.noSlotTries[class])
			ts.noSlotTries[class]++
			return f.allocCached(th, m, ts, class)
		}
		return 0, err
	}
	ts.noSlotTries[class] = 0
	if len(ts.cache[class]) > 0 || ts.head[class] == 0 {
		return f.allocCached(th, m, ts, class)
	}
	// The cache is dry and the claimed slot's on-media free list holds pages:
	// drain it before asking the kernel for more. Nothing in this program
	// chains pages there, but a device image is input from outside it (one
	// written by a build that did), and pages left on a chain would otherwise
	// stay allocated to the coffer and unused until the next recovery.
	page := ts.head[class]
	f.rec().Inc(telemetry.CtrZoFSPagesAlloc)
	if debugPool {
		debugFree.Store(page, 2)
	}
	next := int64(th.Load64(page * pageSize)) // a cold line: this thread did not chain it
	th.Store64(slotOff+slotHeadOff, uint64(next))
	ts.head[class] = next
	if class == classMeta {
		// The free-list next pointer just consumed must be cleared before the
		// page is used as metadata: metadata pages arrive zeroed.
		th.Store64(page*pageSize, 0)
	}
	return page, nil
}

// allocCached serves a page from the thread's volatile batch cache, refilled
// by one whole kernel grant when dry: no per-page chain stores and no
// persistent head update, the batch costs one syscall. It needs no pool slot
// — a slot only carries the persistent free-list head, which the cache never
// uses — so a slotless thread loses nothing but crash observability. A crash
// leaks the cached batch and recovery's in-use traversal reclaims it (§5.3).
func (f *FS) allocCached(th *proc.Thread, m *mount, ts *threadSlots, class int) (int64, error) {
	if page, ok := f.popCached(th, ts, class); ok {
		return page, nil
	}
	exts, err := f.enlarge(th, m, class)
	if err != nil {
		return 0, err
	}
	// The cache is a stack: push the grant from its top page down so pops
	// ascend through each extent and a file written front to back lies in
	// ascending, physically consecutive pages (the run rule, nvm.ForEachRun).
	for i := len(exts) - 1; i >= 0; i-- {
		for pg := exts[i].End() - 1; pg >= exts[i].Start; pg-- {
			if debugPool {
				debugFree.Store(pg, 1)
			}
			ts.cache[class] = append(ts.cache[class], pg)
		}
	}
	page, _ := f.popCached(th, ts, class)
	return page, nil
}

// enlarge requests one batch of the class's configured size from KernFS.
func (f *FS) enlarge(th *proc.Thread, m *mount, class int) ([]coffer.Extent, error) {
	batch := f.opts.MetaEnlargeBatch
	zero := true
	if class == classData {
		batch, zero = f.opts.DataEnlargeBatch, false
	}
	exts, err := f.kern.CofferEnlarge(th, m.id, batch, zero)
	if err != nil {
		return nil, errno(err)
	}
	return exts, nil
}

// popCached takes the tail of the thread's volatile batch cache. Cached
// pages are never chained through NVM, so a metadata page stays fully
// zeroed from grant (or scrub-on-free) to use.
func (f *FS) popCached(th *proc.Thread, ts *threadSlots, class int) (int64, bool) {
	n := len(ts.cache[class])
	if n == 0 {
		return 0, false
	}
	page := ts.cache[class][n-1]
	ts.cache[class] = ts.cache[class][:n-1]
	th.CPU(perfmodel.CPUSmallOp)
	f.rec().Inc(telemetry.CtrZoFSPagesAlloc)
	if debugPool {
		debugFree.Store(page, 2)
	}
	return page, true
}

// freePage returns a page to the thread's free list, the volatile batch
// cache (one append, no NVM chain stores). Metadata pages are scrubbed on
// free so the metadata list invariant — pages arrive zeroed — holds for
// recycled pages exactly as for fresh kernel grants.
func (f *FS) freePage(th *proc.Thread, m *mount, class int, page int64) {
	prev := th.Clk.SwapWriteClass(uint8(byteflow.ClassAlloc))
	defer th.Clk.SetWriteClass(prev)
	if debugPool {
		if st, _ := debugFree.Load(page); st == 1 {
			panic(fmt.Sprintf("zofs: double free of page %d (class %d)", page, class))
		}
		debugFree.Store(page, 1)
	}
	ts := m.threadSlotsFor(th.TID)
	f.rec().Inc(telemetry.CtrZoFSPagesFreed)
	if class == classMeta {
		th.Zero(page*pageSize, pageSize)
	}
	th.CPU(perfmodel.CPUSmallOp)
	ts.cache[class] = append(ts.cache[class], page)
}
