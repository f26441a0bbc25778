package kernfs

import (
	"bytes"
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

// slotZeroed is the zeroed bit of a free slot's run-length word: the page
// reads zero, so a grant need not scrub it. Mkfs sets it on every free page
// of a blank device, and a release may set it on a page it has just zeroed
// (a dead coffer's root page, see releaseAll); every grant and every other
// release rewrites the slot without it, before the page can hold a byte.
const slotZeroed = 1 << 31

// numFreeShards is the fixed shard count of the free-space pool. Fixed (not
// sized to GOMAXPROCS or thread count) so allocation placement is identical
// across runs — the replay and bit-identical-with-profiler gates depend on
// it.
const numFreeShards = 16

// freeShard is one slice of the free pool: a coalescing extent set under its
// own lock (`kernfs.freeshard/<i>`). Shard critical sections are transient
// leaves in the lock hierarchy — no shard lock is ever held while acquiring
// any other lock, and no charged work (table writes, scrubbing) happens
// inside one, so shards serialize only the volatile set edits. zeroed mirrors
// the slots of the free set that carry slotZeroed; it is a subset of set.
type freeShard struct {
	mu     lockprof.Mutex
	set    *extentSet
	zeroed *extentSet
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
		sm.shards[i].zeroed = newExtentSet()
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
// The slots carry no slotZeroed bit.
func (sm *spaceManager) writeRun(clk *simclock.Clock, start, count int64, id coffer.ID) {
	sm.writeSlots(clk, start, count, id, 0)
}

// writeSlots is writeRun with flag bits or-ed into every run length.
func (sm *spaceManager) writeSlots(clk *simclock.Clock, start, count int64, id coffer.ID, flags uint32) {
	var small [64 * allocSlotSize]byte
	buf := small[:]
	if n := count * allocSlotSize; n <= int64(len(small)) {
		buf = buf[:n]
	} else {
		buf = make([]byte, n)
	}
	for i := int64(0); i < count; i++ {
		binary.LittleEndian.PutUint32(buf[i*allocSlotSize:], uint32(id))
		binary.LittleEndian.PutUint32(buf[i*allocSlotSize+4:], uint32(count-i)|flags)
	}
	sm.dev.WriteNTClass(clk, byteflow.ClassAlloc, sm.slotOff(start), buf)
}

// slotOwner reads one page's owner without charging a clock (the violation
// handler's attribution path; the table is the authority, no set lock
// needed).
func (sm *spaceManager) slotOwner(page int64) coffer.ID {
	var b [allocSlotSize]byte
	sm.dev.ReadNoCharge(sm.slotOff(page), b[:])
	return coffer.ID(binary.LittleEndian.Uint32(b[:]))
}

// slotFlagged reports whether a slot image carries slotZeroed.
func slotFlagged(slot []byte) bool {
	return binary.LittleEndian.Uint32(slot[4:])&slotZeroed != 0
}

// addFree distributes a free range across its address-home shards, locking
// one shard at a time; zeroed says whether its slots carry slotZeroed.
func (sm *spaceManager) addFree(clk *simclock.Clock, start, count int64, zeroed bool) {
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
		if zeroed {
			s.zeroed.Add(start, n)
		}
		s.mu.Unlock(clk)
		start += n
		count -= n
	}
}

// initTable formats the table: kernel metadata pages [0, kernPages) owned by
// KernelID, everything else free — and flagged zeroed if the device is blank.
func (sm *spaceManager) initTable(clk *simclock.Clock, kernPages int64, blank bool) {
	var flags uint32
	if blank {
		flags = slotZeroed
	}
	sm.writeRun(clk, 0, kernPages, coffer.KernelID)
	sm.writeSlots(clk, kernPages, sm.npages-kernPages, 0, flags)
	sm.ownerSet(coffer.KernelID).Add(0, kernPages)
	sm.addFree(clk, kernPages, sm.npages-kernPages, blank)
}

// eachSlot walks the allocation table a page of slots at a time, reading
// each through read, and calls fn for every page's slot until fn fails.
func (sm *spaceManager) eachSlot(read func(off int64, buf []byte), fn func(page int64, slot []byte) error) error {
	const slotsPerRead = int64(nvm.PageSize / allocSlotSize)
	buf := make([]byte, nvm.PageSize)
	for page := int64(0); page < sm.npages; page += slotsPerRead {
		n := min(slotsPerRead, sm.npages-page)
		read(sm.slotOff(page), buf[:n*allocSlotSize])
		for i := int64(0); i < n; i++ {
			if err := fn(page+i, buf[i*allocSlotSize:(i+1)*allocSlotSize]); err != nil {
				return err
			}
		}
	}
	return nil
}

// scan rebuilds the volatile sets from the persistent table (mount and
// recovery path). Ownership authority is each slot's own coffer-ID: the
// run-length field only accelerates in-order scans and is NOT trusted
// across slots, because coffer_split/merge retag single pages inside older
// runs without rewriting their predecessors (Figure 3's merged slots are a
// write-time optimization, not an invariant). Free runs split where the
// slotZeroed bit changes.
func (sm *spaceManager) scan(clk *simclock.Clock) error {
	for i := range sm.shards {
		sm.shards[i].set = newExtentSet()
		sm.shards[i].zeroed = newExtentSet()
	}
	sm.byOwner = map[coffer.ID]*extentSet{}
	sm.inflight = newExtentSet()
	var runStart, runLen int64
	var runID coffer.ID
	var runZeroed bool
	flush := func() {
		if runLen == 0 {
			return
		}
		if runID == 0 {
			sm.addFree(clk, runStart, runLen, runZeroed)
		} else {
			sm.ownerSet(runID).Add(runStart, runLen)
		}
		runLen = 0
	}
	read := func(off int64, buf []byte) { sm.dev.Read(clk, off, buf) }
	sm.eachSlot(read, func(page int64, slot []byte) error {
		id := coffer.ID(binary.LittleEndian.Uint32(slot))
		zeroed := slotFlagged(slot)
		if runLen > 0 && id == runID && zeroed == runZeroed {
			runLen++
			return nil
		}
		flush()
		runStart, runLen, runID, runZeroed = page, 1, id, zeroed
		return nil
	})
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
// itself passes a one-extent stack buffer: the usual grant is one run). It
// appends to dirty, in the same order, the parts of them that may hold old
// bytes: every page but those whose slots carry slotZeroed, which leave the
// shards' zeroed sets here. A grant that must read zero scrubs only dirty.
// The extents are parked in the inflight set until the caller either
// publishes them (writeRun to an owner + uninflight) or backs out
// (returnFree). Fast path: the hint's home shard satisfies the whole request
// under one shard lock. Slow path (refill): sweep the other shards one lock
// at a time, draining what each can spare, until the request is met; a
// shortfall returns everything and ErrNoSpace — exactly when the device is
// genuinely out of pages.
func (sm *spaceManager) takeFree(clk *simclock.Clock, hint uint64, want int64, got, dirty []coffer.Extent) ([]coffer.Extent, []coffer.Extent, error) {
	if want <= 0 {
		return nil, nil, fmt.Errorf("%w: non-positive allocation", ErrInvalid)
	}
	home := shardHome(hint)
	var have int64
	for i := 0; i < numFreeShards && have < want; i++ {
		s := &sm.shards[(home+i)%numFreeShards]
		s.mu.Lock(clk)
		n := len(got)
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
		for _, e := range got[n:] {
			dirty = s.zeroed.Carve(e.Start, e.Count, dirty)
		}
		s.mu.Unlock(clk)
	}
	if have < want {
		// Genuine shortfall: put everything back where its address lives, and
		// what was zeroed back into zeroed — its slots still carry the bit.
		// dirty lists each extent's pieces in the order of got.
		d := dirty
		for _, e := range got {
			at := e.Start
			for ; len(d) > 0 && d[0].Start >= e.Start && d[0].Start < e.End(); d = d[1:] {
				sm.addFree(clk, at, d[0].Start-at, true)
				sm.addFree(clk, d[0].Start, d[0].Count, false)
				at = d[0].End()
			}
			sm.addFree(clk, at, e.End()-at, true)
		}
		return nil, nil, ErrNoSpace
	}
	sm.inflMu.Lock()
	for _, e := range got {
		sm.inflight.Add(e.Start, e.Count)
	}
	sm.inflMu.Unlock()
	return got, dirty, nil
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
		sm.addFree(clk, e.Start, e.Count, false)
	}
}

// allocate takes want pages from the free pool for coffer id, persisting
// the table updates, with the hint steering shard placement. Returns
// ErrNoSpace without partial allocation if the pool is short. The caller
// must hold the coffer's lock (or be the only reference holder) so the
// owner set is stable, and overwrites the pages whole: none is scrubbed.
func (sm *spaceManager) allocate(clk *simclock.Clock, hint uint64, id coffer.ID, want int64, got []coffer.Extent) ([]coffer.Extent, error) {
	var dirty [1]coffer.Extent
	exts, _, err := sm.takeFree(clk, hint, want, got, dirty[:0])
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
	sm.addFree(clk, start, count, false)
	return nil
}

// releaseAll frees every page of a coffer and drops its owner set, in that
// order of visibility: the set is unregistered before any page reaches the
// free pool. A coffer ID is its root page's number, so the instant the root
// page is free a concurrent coffer_new can mint the same ID — and must get
// another owner set from ownerSet, never the doomed one, which joins the
// spares only once it is empty. The extents are freed in one ascending pass
// and the set is emptied after it. rootZeroed says the caller has zeroed the
// root page, which is then freed flagged zeroed: its slot carries slotZeroed.
func (sm *spaceManager) releaseAll(clk *simclock.Clock, id coffer.ID, rootZeroed bool) {
	sm.ownMu.Lock()
	s := sm.byOwner[id]
	delete(sm.byOwner, id)
	sm.ownMu.Unlock()
	if s == nil {
		return
	}
	root := int64(id)
	rootZeroed = rootZeroed && s.Remove(root, 1)
	s.Each(func(start, count int64) {
		sm.writeRun(clk, start, count, 0)
		sm.addFree(clk, start, count, false)
	})
	if rootZeroed {
		sm.writeSlots(clk, root, 1, 0, slotZeroed)
		sm.addFree(clk, root, 1, true)
	}
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
// device. Each shard's zeroed set must lie inside its free set, and a free
// slot must carry slotZeroed exactly when its page is in a zeroed set (or in
// flight: takeFree drops a page from zeroed before its grant rewrites the
// slot). This is the kernel side of the byte-flow space conservation check
// — the persistent table is the authority, the volatile sets are the cache
// under test. Owner sets require quiescence (fsck/tooling context).
func (sm *spaceManager) verify() error {
	// Snapshot the sharded free pool, its zeroed pages and the in-flight set.
	free := sm.freeSnapshot()
	zeroed := newExtentSet()
	for i := range sm.shards {
		s := &sm.shards[i]
		s.mu.Lock(nil)
		inside := true
		s.zeroed.Each(func(start, count int64) {
			inside = inside && s.set.Contains(start, count)
			zeroed.Add(start, count)
		})
		s.mu.Unlock(nil)
		if !inside {
			return inconsistent(0, -1, "kernfs: free shard %d flags zeroed pages it does not hold", i)
		}
	}
	sm.inflMu.Lock()
	infl := newExtentSet()
	sm.inflight.Each(infl.Add)
	sm.inflMu.Unlock()

	counted := map[coffer.ID]int64{}
	err := sm.eachSlot(sm.dev.ReadNoCharge, func(pg int64, slot []byte) error {
		id := coffer.ID(binary.LittleEndian.Uint32(slot))
		counted[id]++
		flagged := slotFlagged(slot)
		if id != 0 {
			if own := sm.peekOwner(id); own == nil || !own.Contains(pg, 1) {
				return inconsistent(id, pg*nvm.PageSize, "kernfs: page %d owned by coffer %d on media but not in its extent set", pg, id)
			}
			if flagged {
				return inconsistent(id, pg*nvm.PageSize, "kernfs: page %d owned by coffer %d carries the zeroed bit", pg, id)
			}
			return nil
		}
		inFlight := infl.Contains(pg, 1)
		if !free.Contains(pg, 1) && !inFlight {
			return inconsistent(0, pg*nvm.PageSize, "kernfs: page %d free on media but in no free shard or in-flight batch", pg)
		}
		if z := zeroed.Contains(pg, 1); flagged != z && !(flagged && inFlight) {
			return inconsistent(0, pg*nvm.PageSize, "kernfs: page %d: zeroed bit %v on media, %v in its shard", pg, flagged, z)
		}
		return nil
	})
	if err != nil {
		return err
	}
	if got, want := free.Pages()+infl.Pages(), counted[0]; got != want {
		return inconsistent(0, -1, "kernfs: free shards hold %d pages (+%d in flight), table says %d free",
			free.Pages(), infl.Pages(), want)
	}
	for id, want := range counted {
		if id == 0 {
			continue
		}
		if got := sm.pagesOf(id); got != want {
			return inconsistent(id, -1, "kernfs: coffer %d extent set holds %d pages, table says %d", id, got, want)
		}
	}
	var total int64
	for _, n := range counted {
		total += n
	}
	if total != sm.npages {
		return inconsistent(0, -1, "kernfs: table census %d pages != device %d", total, sm.npages)
	}
	return nil
}

// verifyZeroed re-reads the allocation table (uncharged) and checks that
// every page whose slot carries slotZeroed reads zero.
func (sm *spaceManager) verifyZeroed() error {
	var zero [nvm.PageSize]byte
	return sm.eachSlot(sm.dev.ReadNoCharge, func(pg int64, slot []byte) error {
		if !slotFlagged(slot) {
			return nil
		}
		if v, _ := sm.dev.ReadViewNoCharge(pg*nvm.PageSize, nvm.PageSize); !bytes.Equal(v, zero[:]) {
			return inconsistent(0, pg*nvm.PageSize, "kernfs: page %d is flagged zeroed but holds bytes", pg)
		}
		return nil
	})
}
