package kernfs

import (
	"encoding/binary"
	"fmt"
	"strconv"
	"sync"

	"zofs/internal/byteflow"
	"zofs/internal/coffer"
	"zofs/internal/lockprof"
	"zofs/internal/nvm"
	"zofs/internal/simclock"
)

// Persistent allocation table (paper §4.1, Figure 3): for every device page
// an 8-byte slot holding {coffer-ID u32, run-length u32}. Coffer-ID 0 means
// free; run-length counts consecutive pages from this one sharing the same
// coffer-ID. The table itself plus the superblock and path table are tagged
// with coffer.KernelID.
const allocSlotSize = 8

// numFreeShards is the fixed shard count of the free-space pool. Fixed (not
// sized to GOMAXPROCS or thread count) so allocation placement is identical
// across runs — the replay and bit-identical-with-profiler gates depend on
// it.
const numFreeShards = 16

// freeShard is one slice of the free pool: a coalescing extent set under its
// own lock (`kernfs.freeshard/<i>`). Shard critical sections are transient
// leaves in the lock hierarchy — no shard lock is ever held while acquiring
// any other lock, and no charged work (table writes, scrubbing) happens
// inside one, so shards serialize only the volatile set edits.
type freeShard struct {
	mu  lockprof.Mutex
	set *extentSet
}

// spaceManager owns the persistent allocation table, the sharded free-space
// pool and the per-coffer allocated-space extent sets (§4.1).
//
// Locking: each shard guards its own free set. byOwner map structure is
// guarded by ownMu; the per-coffer sets themselves are stable only under
// that coffer's kernfs.coffer/<id> lock (or quiescence, for fsck/verify).
// Pages in transit between a shard and an owner's table run are parked in
// the inflight set so the three-way space check can still account for them.
type spaceManager struct {
	dev      *nvm.Device
	tabStart int64 // byte offset of the allocation table
	npages   int64

	shards [numFreeShards]freeShard

	ownMu   sync.Mutex
	byOwner map[coffer.ID]*extentSet
	// spare holds the emptied sets of deleted coffers; the next coffer takes
	// one over, capacity and all, before building a new one.
	spare []*extentSet

	inflMu   sync.Mutex
	inflight *extentSet
}

func newSpaceManager(dev *nvm.Device, tabStart, npages int64) *spaceManager {
	sm := &spaceManager{dev: dev, tabStart: tabStart, npages: npages}
	for i := range sm.shards {
		sm.shards[i].mu.Init("kernfs.freeshard", strconv.Itoa(i))
		sm.shards[i].set = newExtentSet()
	}
	sm.byOwner = map[coffer.ID]*extentSet{}
	sm.inflight = newExtentSet()
	return sm
}

// allocTableBytes returns the table size for a device of npages.
func allocTableBytes(npages int64) int64 { return npages * allocSlotSize }

// slotOff returns the byte offset of a page's slot.
func (sm *spaceManager) slotOff(page int64) int64 { return sm.tabStart + page*allocSlotSize }

// shardOf routes a page to its address-home shard: shard i owns the pages of
// the i-th device slice. Releases route by address, so free runs coalesce
// within a shard without any cross-shard locking.
func (sm *spaceManager) shardOf(page int64) int {
	i := int(page * numFreeShards / sm.npages)
	if i >= numFreeShards {
		i = numFreeShards - 1
	}
	return i
}

// shardHome picks the shard an allocation hint starts its search at. The
// hint mixes the coffer ID with the calling thread's ID, so concurrent
// enlarges of different coffers — and of one hot coffer from many threads —
// spread across the pool instead of convoying on one shard lock.
func shardHome(hint uint64) int {
	h := hint * 0x9e3779b97f4a7c15
	return int((h >> 33) % numFreeShards)
}

// writeRun persists slots for [start, start+count) as owned by id, as one
// streaming non-temporal write. Run lengths descend from count to 1, as in
// Figure 3. Table traffic books to the alloc class regardless of clock —
// mkfs-time runs carry no clock but are still allocator bytes. A run of up to
// 64 slots — a retagged page, a new coffer, a metadata grant — is built on
// the stack; only the rare large data grant takes a buffer from the heap.
func (sm *spaceManager) writeRun(clk *simclock.Clock, start, count int64, id coffer.ID) {
	var small [64 * allocSlotSize]byte
	buf := small[:]
	if n := count * allocSlotSize; n <= int64(len(small)) {
		buf = buf[:n]
	} else {
		buf = make([]byte, n)
	}
	for i := int64(0); i < count; i++ {
		binary.LittleEndian.PutUint32(buf[i*allocSlotSize:], uint32(id))
		binary.LittleEndian.PutUint32(buf[i*allocSlotSize+4:], uint32(count-i))
	}
	sm.dev.WriteNTClass(clk, byteflow.ClassAlloc, sm.slotOff(start), buf)
}

// readSlot reads one page's slot.
func (sm *spaceManager) readSlot(clk *simclock.Clock, page int64) (coffer.ID, int64) {
	var b [allocSlotSize]byte
	sm.dev.Read(clk, sm.slotOff(page), b[:])
	return coffer.ID(binary.LittleEndian.Uint32(b[:])), int64(binary.LittleEndian.Uint32(b[4:]))
}

// slotOwner reads one page's owner without charging a clock (the violation
// handler's attribution path; the table is the authority, no set lock
// needed).
func (sm *spaceManager) slotOwner(page int64) coffer.ID {
	var b [allocSlotSize]byte
	sm.dev.ReadNoCharge(sm.slotOff(page), b[:])
	return coffer.ID(binary.LittleEndian.Uint32(b[:]))
}

// addFree distributes a free range across its address-home shards, locking
// one shard at a time.
func (sm *spaceManager) addFree(clk *simclock.Clock, start, count int64) {
	for count > 0 {
		i := sm.shardOf(start)
		// End of shard i's address slice.
		sliceEnd := (int64(i) + 1) * sm.npages / numFreeShards
		n := count
		if start+n > sliceEnd && i < numFreeShards-1 {
			n = sliceEnd - start
		}
		s := &sm.shards[i]
		s.mu.Lock(clk)
		s.set.Add(start, n)
		s.mu.Unlock(clk)
		start += n
		count -= n
	}
}

// initTable formats the table: kernel metadata pages [0, kernPages) owned by
// KernelID, everything else free.
func (sm *spaceManager) initTable(clk *simclock.Clock, kernPages int64) {
	sm.writeRun(clk, 0, kernPages, coffer.KernelID)
	sm.writeRun(clk, kernPages, sm.npages-kernPages, 0)
	sm.ownerSet(coffer.KernelID).Add(0, kernPages)
	sm.addFree(clk, kernPages, sm.npages-kernPages)
}

// scan rebuilds the volatile sets from the persistent table (mount and
// recovery path). Ownership authority is each slot's own coffer-ID: the
// run-length field only accelerates in-order scans and is NOT trusted
// across slots, because coffer_split/merge retag single pages inside older
// runs without rewriting their predecessors (Figure 3's merged slots are a
// write-time optimization, not an invariant).
func (sm *spaceManager) scan(clk *simclock.Clock) error {
	for i := range sm.shards {
		sm.shards[i].set = newExtentSet()
	}
	sm.byOwner = map[coffer.ID]*extentSet{}
	sm.inflight = newExtentSet()
	const slotsPerRead = int64(nvm.PageSize / allocSlotSize)
	buf := make([]byte, nvm.PageSize)
	var runStart, runLen int64
	var runID coffer.ID
	flush := func() {
		if runLen == 0 {
			return
		}
		if runID == 0 {
			sm.addFree(clk, runStart, runLen)
		} else {
			sm.ownerSet(runID).Add(runStart, runLen)
		}
		runLen = 0
	}
	for page := int64(0); page < sm.npages; page += slotsPerRead {
		n := slotsPerRead
		if page+n > sm.npages {
			n = sm.npages - page
		}
		sm.dev.Read(clk, sm.slotOff(page), buf[:n*allocSlotSize])
		for i := int64(0); i < n; i++ {
			id := coffer.ID(binary.LittleEndian.Uint32(buf[i*allocSlotSize:]))
			if runLen > 0 && id == runID {
				runLen++
				continue
			}
			flush()
			runStart, runLen, runID = page+i, 1, id
		}
	}
	flush()
	return nil
}

// ownerSet returns (creating on demand) a coffer's allocated-space set.
// The returned set is stable only under the coffer's lock.
func (sm *spaceManager) ownerSet(id coffer.ID) *extentSet {
	sm.ownMu.Lock()
	defer sm.ownMu.Unlock()
	s := sm.byOwner[id]
	if s == nil {
		if n := len(sm.spare); n > 0 {
			s, sm.spare = sm.spare[n-1], sm.spare[:n-1]
		} else {
			s = newExtentSet()
		}
		sm.byOwner[id] = s
	}
	return s
}

// peekOwner returns a coffer's set without creating one.
func (sm *spaceManager) peekOwner(id coffer.ID) *extentSet {
	sm.ownMu.Lock()
	defer sm.ownMu.Unlock()
	return sm.byOwner[id]
}

// takeFree extracts want pages from the sharded pool without touching the
// persistent table, appending them to got (a caller that keeps the grant to
// itself passes a one-extent stack buffer: the usual grant is one run). The
// extents are parked in the inflight set until the caller either publishes
// them (writeRun to an owner + uninflight) or backs out (returnFree). Fast
// path: the hint's home shard satisfies the whole request under one shard
// lock. Slow path (refill): sweep the other shards one lock at a time,
// draining what each can spare, until the request is met; a shortfall returns
// everything and ErrNoSpace — exactly when the device is genuinely out of
// pages.
func (sm *spaceManager) takeFree(clk *simclock.Clock, hint uint64, want int64, got []coffer.Extent) ([]coffer.Extent, error) {
	if want <= 0 {
		return nil, fmt.Errorf("%w: non-positive allocation", ErrInvalid)
	}
	home := shardHome(hint)
	var have int64
	for i := 0; i < numFreeShards && have < want; i++ {
		s := &sm.shards[(home+i)%numFreeShards]
		s.mu.Lock(clk)
		// Prefer one contiguous run: batch grants feed the µFS's per-thread
		// page caches, where a single extent keeps the table update one
		// streaming write and the free-run bookkeeping compact.
		if run, ok := s.set.TakeRun(want - have); ok {
			got = append(got, run)
			have += run.Count
		} else {
			for _, e := range s.set.TakeFirst(want - have) {
				got = append(got, e)
				have += e.Count
			}
		}
		s.mu.Unlock(clk)
	}
	if have < want {
		// Genuine shortfall: put everything back where its address lives.
		for _, e := range got {
			sm.addFree(clk, e.Start, e.Count)
		}
		return nil, ErrNoSpace
	}
	sm.inflMu.Lock()
	for _, e := range got {
		sm.inflight.Add(e.Start, e.Count)
	}
	sm.inflMu.Unlock()
	return got, nil
}

// uninflight clears extents from the in-transit set once they are published
// in the allocation table.
func (sm *spaceManager) uninflight(exts []coffer.Extent) {
	sm.inflMu.Lock()
	for _, e := range exts {
		sm.inflight.Remove(e.Start, e.Count)
	}
	sm.inflMu.Unlock()
}

// returnFree backs staged extents out of a failed allocation: out of the
// inflight set, back into their address-home shards (the spill path — pages
// drained toward a hot shard re-home on release, bounding cross-shard
// fragmentation drift).
func (sm *spaceManager) returnFree(clk *simclock.Clock, exts []coffer.Extent) {
	sm.uninflight(exts)
	for _, e := range exts {
		sm.addFree(clk, e.Start, e.Count)
	}
}

// allocate takes want pages from the free pool for coffer id, persisting
// the table updates, with the hint steering shard placement. Returns
// ErrNoSpace without partial allocation if the pool is short. The caller
// must hold the coffer's lock (or be the only reference holder) so the
// owner set is stable.
func (sm *spaceManager) allocate(clk *simclock.Clock, hint uint64, id coffer.ID, want int64, got []coffer.Extent) ([]coffer.Extent, error) {
	exts, err := sm.takeFree(clk, hint, want, got)
	if err != nil {
		return nil, err
	}
	own := sm.ownerSet(id)
	for _, e := range exts {
		sm.writeRun(clk, e.Start, e.Count, id)
		own.Add(e.Start, e.Count)
	}
	sm.uninflight(exts)
	return exts, nil
}

// release returns [start, start+count) owned by id to the free pool.
func (sm *spaceManager) release(clk *simclock.Clock, id coffer.ID, start, count int64) error {
	own := sm.ownerSet(id)
	if !own.Remove(start, count) {
		return fmt.Errorf("%w: pages %d+%d not owned by coffer %d", ErrInvalid, start, count, id)
	}
	sm.writeRun(clk, start, count, 0)
	sm.addFree(clk, start, count)
	return nil
}

// releaseAll frees every page of a coffer and drops its owner set, in that
// order of visibility: the set is unregistered before any page reaches the
// free pool. A coffer ID is its root page's number, so the instant the root
// page is free a concurrent coffer_new can mint the same ID — and must get
// another owner set from ownerSet, never the doomed one, which joins the
// spares only once it is empty. The extents are freed in one ascending pass
// and the set is emptied after it.
func (sm *spaceManager) releaseAll(clk *simclock.Clock, id coffer.ID) {
	sm.ownMu.Lock()
	s := sm.byOwner[id]
	delete(sm.byOwner, id)
	sm.ownMu.Unlock()
	if s == nil {
		return
	}
	s.Each(func(start, count int64) {
		sm.writeRun(clk, start, count, 0)
		sm.addFree(clk, start, count)
	})
	s.Clear()
	sm.ownMu.Lock()
	sm.spare = append(sm.spare, s)
	sm.ownMu.Unlock()
}

// retag moves [start, start+count) from coffer from to coffer to. This is
// the per-page-expensive primitive behind coffer_split/merge (Table 9).
func (sm *spaceManager) retag(clk *simclock.Clock, from, to coffer.ID, start, count int64) error {
	own := sm.ownerSet(from)
	if !own.Remove(start, count) {
		return fmt.Errorf("%w: pages %d+%d not owned by coffer %d", ErrInvalid, start, count, from)
	}
	sm.writeRun(clk, start, count, to)
	sm.ownerSet(to).Add(start, count)
	return nil
}

// extentsOf returns all extents owned by a coffer, in address order. Stable
// only under the coffer's lock.
func (sm *spaceManager) extentsOf(id coffer.ID) []coffer.Extent {
	s := sm.peekOwner(id)
	if s == nil {
		return nil
	}
	return s.All()
}

// pagesOf returns the page count owned by a coffer.
func (sm *spaceManager) pagesOf(id coffer.ID) int64 {
	s := sm.peekOwner(id)
	if s == nil {
		return 0
	}
	return s.Pages()
}

// freePages returns the number of unallocated pages across every shard.
func (sm *spaceManager) freePages() int64 {
	var total int64
	for i := range sm.shards {
		s := &sm.shards[i]
		s.mu.Lock(nil)
		total += s.set.Pages()
		s.mu.Unlock(nil)
	}
	return total
}

// freeSnapshot copies the sharded free pool into one set, merging runs
// across shard boundaries.
func (sm *spaceManager) freeSnapshot() *extentSet {
	merged := newExtentSet()
	for i := range sm.shards {
		s := &sm.shards[i]
		s.mu.Lock(nil)
		s.set.Each(merged.Add)
		s.mu.Unlock(nil)
	}
	return merged
}

// verify re-reads the persistent allocation table (uncharged) and checks it
// against the volatile sets: every slot's owner must match the owning
// extent set, and the per-owner page counts must agree exactly. Free pages
// must sit in exactly one place — a shard's free set or the in-flight
// staging set of a grant being assembled — and the census must cover the
// device. This is the kernel side of the byte-flow space conservation check
// — the persistent table is the authority, the volatile sets are the cache
// under test. Owner sets require quiescence (fsck/tooling context).
func (sm *spaceManager) verify() error {
	// Snapshot the sharded free pool and the in-flight set.
	free := sm.freeSnapshot()
	sm.inflMu.Lock()
	infl := newExtentSet()
	sm.inflight.Each(infl.Add)
	sm.inflMu.Unlock()

	const slotsPerRead = int64(nvm.PageSize / allocSlotSize)
	buf := make([]byte, nvm.PageSize)
	counted := map[coffer.ID]int64{}
	for page := int64(0); page < sm.npages; page += slotsPerRead {
		n := slotsPerRead
		if page+n > sm.npages {
			n = sm.npages - page
		}
		sm.dev.ReadNoCharge(sm.slotOff(page), buf[:n*allocSlotSize])
		for i := int64(0); i < n; i++ {
			pg := page + i
			id := coffer.ID(binary.LittleEndian.Uint32(buf[i*allocSlotSize:]))
			counted[id]++
			if id == 0 {
				if !free.Contains(pg, 1) && !infl.Contains(pg, 1) {
					return fmt.Errorf("kernfs: page %d free on media but in no free shard or in-flight batch", pg)
				}
				continue
			}
			own := sm.peekOwner(id)
			if own == nil || !own.Contains(pg, 1) {
				return fmt.Errorf("kernfs: page %d owned by coffer %d on media but not in its extent set", pg, id)
			}
		}
	}
	if got, want := free.Pages()+infl.Pages(), counted[0]; got != want {
		return fmt.Errorf("kernfs: free shards hold %d pages (+%d in flight), table says %d free",
			free.Pages(), infl.Pages(), want)
	}
	for id, want := range counted {
		if id == 0 {
			continue
		}
		if got := sm.pagesOf(id); got != want {
			return fmt.Errorf("kernfs: coffer %d extent set holds %d pages, table says %d", id, got, want)
		}
	}
	var total int64
	for _, n := range counted {
		total += n
	}
	if total != sm.npages {
		return fmt.Errorf("kernfs: table census %d pages != device %d", total, sm.npages)
	}
	return nil
}
