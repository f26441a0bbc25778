package zofs

import (
	"sync/atomic"

	"zofs/internal/lockprof"
	"zofs/internal/nvm"
	"zofs/internal/proc"
	"zofs/internal/slab"
	"zofs/internal/spans"
)

// Volatile directory lookup cache.
//
// The on-NVM directory structure (two-level hash table, §5.1) resolves a
// name with one or more charged media reads per lookup and a linear slot
// scan per insert. This cache keeps, per directory inode, a complete DRAM
// index of its live dentries — name → (decoded dentry, NVM location) — plus
// the free dentry slots, so hot-path lookups cost one hash probe, inserts
// pop a free slot without rescanning pages, and enumeration (ReadDir, the
// emptiness check of Rmdir, chmod-split's child discovery) walks the
// indexed entries instead of the whole hash table.
//
// The indexes live in the per-device `shared` state table, one per
// directory inode page beside that page's lock and handle counts: in the
// simulation every process of a device shares them, standing in for the
// shared-DRAM index a multi-process deployment would coordinate through
// lease words (the KucoFS-style index the paper cites as future work). A
// crash or a reboot (nvm.Device.Crash, sysfactory.Boot) drops the table
// wholesale, so a post-crash remount always starts cold and can never serve
// a pre-crash dentry.
//
// Coherence protocol:
//   - Every dentry mutation (dirInsert, dirRemove, dirUpdateCoffer — rename
//     composes these) runs under the directory's index mutex and applies
//     its delta to the index, so a complete index is always exact.
//   - An index is authoritative only while `complete` is set AND its epoch
//     matches the device epoch. Anything that rewrites dentries outside the
//     hooks (recovery's repair stores) or recycles directory pages outside
//     the µFS (coffer_delete) bumps the device epoch, invalidating every
//     index at once; InvalidateAll does the same. Rmdir resets the removed
//     directory's index in place (shared.resetDir).
//   - A non-authoritative index is rebuilt under its mutex by one full
//     charged scan; mutators that find the index non-authoritative fall
//     back to the on-NVM scan path and leave the index reset.
//   - No cached dentry is served, to a lookup or a listing, before
//     dcacheTrusted has checked it against its NVM slot under the mutex.
//
// Negative lookups need no tombstones: completeness means absence from the
// index IS the negative answer, invalidated naturally when an insert adds
// the name.
type dcache struct {
	epoch atomic.Uint64
}

// bump invalidates every directory index on the device.
func (c *dcache) bump() { c.epoch.Add(1) }

// cachedDe is one indexed dentry: the decoded entry, where it lives on NVM,
// and which free list its slot returns to when removed.
type cachedDe struct {
	de  dentry
	loc deLoc
	bkt int64 // free-list key (inlineKey or chainKey)
}

// dirIndex is one directory's volatile index. mu serializes index access
// AND the NVM dentry mutations of this directory, so a rebuild scan always
// observes a quiescent structure. It is a real-time mutex (not a
// virtual-time lock): holding it costs no simulated time, and virtual-time
// concurrency is still governed by the bucket locks; the lockprof wrapper
// records its real contention without adding virtual cost.
//
// Live dentries sit in a dense slice with a name → position map beside it:
// lookups probe the map, enumeration walks the slice. Inserts append and
// removals move the last entry into the hole, so listing order is a
// function of the op history alone, never of Go's map iteration order.
// In steady state an index allocates nothing: its maps are made on first
// use and cleared, never replaced, and its free-list blocks are recycled.
type dirIndex struct {
	mu       lockprof.RealMutex
	epoch    uint64 // device epoch the index was built under
	complete bool   // ents holds every live dentry of the directory
	ents     []cachedDe
	pos      map[string]int       // name -> position in ents
	free     map[int64]*slotBlock // free dentry slots by placement key
	spare    *slotBlock           // blocks no stack uses, for the next push
	blocks   slab.Slab[slotBlock]
}

// slotBlock is the top of one placement key's free dentry slots, a LIFO
// stack threaded through blocks that never move: locs[:n] are the newest
// slots, and every block below is full. The slot pushed last is popped
// first, on which the slot choice, and with it every later page allocation,
// depends.
type slotBlock struct {
	locs [slotBlockLen]deLoc
	n    int
	next *slotBlock // the full block below, or the next spare
}

const slotBlockLen = l2InlineCnt // a fresh second-level page's slots fit one

// push adds a free slot under key k.
func (idx *dirIndex) push(k int64, loc deLoc) {
	top := idx.free[k]
	if top == nil || top.n == slotBlockLen {
		b := idx.spare
		if b != nil {
			idx.spare = b.next
		} else {
			b = idx.blocks.Carve()
		}
		b.next, b.n, top = top, 0, b
		if idx.free == nil {
			idx.free = map[int64]*slotBlock{}
		}
		idx.free[k] = top
	}
	top.locs[top.n] = loc
	top.n++
}

// pop takes the slot pushed last under key k, if there is one.
func (idx *dirIndex) pop(k int64) (deLoc, bool) {
	top := idx.free[k]
	if top == nil {
		return deLoc{}, false
	}
	top.n--
	if top.n == 0 {
		idx.free[k] = top.next
		top.next, idx.spare = idx.spare, top
	}
	return top.locs[top.n], true
}

// authoritative reports whether the index may answer lookups and absorb
// mutation deltas. Caller holds mu.
func (idx *dirIndex) authoritative(epoch uint64) bool {
	return idx.complete && idx.epoch == epoch
}

// reset discards the index contents, keeping their capacity; the next lookup
// rebuilds.
func (idx *dirIndex) reset() {
	idx.complete = false
	clear(idx.ents) // let the names go
	idx.ents = idx.ents[:0]
	clear(idx.pos)
	for _, b := range idx.free {
		for b != nil {
			next := b.next
			b.next, idx.spare = idx.spare, b
			b = next
		}
	}
	clear(idx.free)
}

// get returns the entry indexed under name, nil if there is none. The
// pointer is valid until the next put or del.
func (idx *dirIndex) get(name string) *cachedDe {
	if i, ok := idx.pos[name]; ok {
		return &idx.ents[i]
	}
	return nil
}

// put indexes c under its name, replacing any entry already there.
func (idx *dirIndex) put(c cachedDe) {
	if old := idx.get(c.de.name); old != nil {
		*old = c
		return
	}
	if idx.pos == nil {
		idx.pos = map[string]int{}
	}
	idx.pos[c.de.name] = len(idx.ents)
	idx.ents = append(idx.ents, c)
}

// del drops name's entry, moving the last entry into its position.
func (idx *dirIndex) del(name string) {
	i := idx.pos[name]
	last := len(idx.ents) - 1
	if i != last {
		idx.ents[i] = idx.ents[last]
		idx.pos[idx.ents[i].de.name] = i
	}
	idx.ents[last] = cachedDe{}
	idx.ents = idx.ents[:last]
	delete(idx.pos, name)
}

// inlineKey keys the free list of a second-level page's inline area: any
// name hashing to this first-level slot may use any inline slot.
func inlineKey(l1Idx int64) int64 { return l1Idx }

// chainKey keys the free list of one bucket's chain pages: a chain slot can
// only host names that hash to this (first-level slot, bucket) pair. Keys
// are disjoint from inlineKey's range.
func chainKey(l1Idx, bucket int64) int64 { return 1<<32 | l1Idx<<8 | bucket }

// dcacheFresh makes the index authoritative: a cold, epoch-bumped or reset
// one is rebuilt from NVM. Caller holds idx.mu — by defer, since a read of a
// coffer the kernel unmapped behind the library's back faults out of here —
// and the coffer's MPK window.
func (f *FS) dcacheFresh(th *proc.Thread, idx *dirIndex, dirIno int64) error {
	if idx.authoritative(f.sh.dc.epoch.Load()) {
		spans.FromClock(th.Clk).DCacheHit()
		return nil
	}
	return f.dcacheRebuild(th, idx, dirIno)
}

// dcacheRebuild discards the index and rebuilds it with one full charged
// walk of the on-NVM structure. Live entries index by name, free slots join
// their placement free list; a live-but-undecodable dentry (torn commit
// word) is neither — it is invisible to lookups and its slot is left for
// recovery to reclaim. A walk that ends at a looping chain leaves the index
// reset and returns its error. Caller holds idx.mu.
func (f *FS) dcacheRebuild(th *proc.Thread, idx *dirIndex, dirIno int64) error {
	sp := spans.FromClock(th.Clk)
	sp.DCacheMiss()
	t0 := th.Clk.Now()
	idx.reset()
	idx.epoch = f.sh.dc.epoch.Load()
	idx.complete = true
	err := dirWalk(th, dirIno, nil, func(d dentry, loc deLoc, bkt int64) bool {
		switch {
		case d.visible():
			idx.put(cachedDe{de: d, loc: loc, bkt: bkt})
		case d.state != deStateLive:
			idx.push(bkt, loc)
		}
		return true
	})
	if err != nil {
		idx.reset()
	}
	sp.Child("dcache.rebuild", t0, th.Clk.Now()-t0)
	return err
}

// dcacheTrusted is the one statement of when a cached dentry may be served
// (G3): its NVM slot still carries the commit word (state, name length,
// type, check hash) and the routing fields (coffer, inode) the index
// recorded — 24 bytes sharing one cache line, read as a CPU-cache hit. The
// name itself comes from the index, never from this check. A mismatch means
// some writer bypassed the coherence hooks — possibly a malicious process
// rewriting dentries in a shared coffer — and the caller must dcacheRebuild
// and serve the NVM truth, which the walk validates as usual.
func (f *FS) dcacheTrusted(th *proc.Thread, c *cachedDe) bool {
	hdr := f.readViewCached(th, c.loc.addr(), deNameOff)
	state, nameLen, typ, hash := unpackCommit(u64at(hdr, deCommitOff))
	return state == deStateLive && nameLen == len(c.de.name) && typ == c.de.typ && hash == c.de.hash &&
		u32at(hdr, deCofferOff) == c.de.cofferID &&
		u64at(hdr, deInodeOff) == uint64(c.de.inode)
}

// DirCacheDirs reports how many directory indexes the device's shared state
// table has carved (tests and the crash checker assert a cold cache after
// remount).
func DirCacheDirs(dev *nvm.Device) int {
	n, s := 0, sharedFor(dev)
	for i := range s.states {
		s.states[i].mu.Lock()
		n += s.states[i].dirs.Carved()
		s.states[i].mu.Unlock()
	}
	return n
}
