package zofs

import (
	"strconv"
	"sync"
	"sync/atomic"

	"zofs/internal/lockprof"
	"zofs/internal/nvm"
	"zofs/internal/proc"
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
// It lives in the per-device `shared` state: in the simulation every
// process of a device shares it, standing in for the shared-DRAM index a
// multi-process deployment would coordinate through lease words (the
// KucoFS-style index the paper cites as future work). A crash or a reboot
// (nvm.Device.Crash, sysfactory.Boot) drops it wholesale, so a post-crash
// remount always starts cold and can never serve a pre-crash dentry.
//
// Coherence protocol:
//   - Every dentry mutation (dirInsert, dirRemove, dirUpdateCoffer — rename
//     composes these) runs under the directory's index mutex and applies
//     its delta to the index, so a complete index is always exact.
//   - An index is authoritative only while `complete` is set AND its epoch
//     matches the device epoch. Anything that rewrites dentries outside the
//     hooks (recovery's repair stores) or recycles directory pages outside
//     the µFS (coffer_delete) bumps the device epoch, invalidating every
//     index at once; InvalidateAll does the same. Rmdir drops the removed
//     directory's index directly.
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
	dirs  sync.Map // directory inode page (int64) -> *dirIndex
}

// dir returns (creating if needed) the index shell for a directory.
func (c *dcache) dir(ino int64) *dirIndex {
	if v, ok := c.dirs.Load(ino); ok {
		return v.(*dirIndex)
	}
	nidx := &dirIndex{}
	nidx.mu.Init("zofs.dcache", strconv.FormatInt(ino, 10))
	v, _ := c.dirs.LoadOrStore(ino, nidx)
	return v.(*dirIndex)
}

// bump invalidates every directory index on the device.
func (c *dcache) bump() { c.epoch.Add(1) }

// drop forgets one directory's index (the directory was removed and its
// pages may be recycled under a different identity).
func (c *dcache) drop(ino int64) { c.dirs.Delete(ino) }

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
type dirIndex struct {
	mu       lockprof.RealMutex
	epoch    uint64 // device epoch the index was built under
	complete bool   // ents holds every live dentry of the directory
	ents     []cachedDe
	pos      map[string]int    // name -> position in ents
	free     map[int64][]deLoc // free dentry slots by placement key
}

// authoritative reports whether the index may answer lookups and absorb
// mutation deltas. Caller holds mu.
func (idx *dirIndex) authoritative(epoch uint64) bool {
	return idx.complete && idx.epoch == epoch
}

// reset discards the index contents; the next lookup rebuilds.
func (idx *dirIndex) reset() {
	idx.complete = false
	idx.ents = nil
	idx.pos = nil
	idx.free = nil
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
func (f *FS) dcacheFresh(th *proc.Thread, idx *dirIndex, dirIno int64) {
	if idx.authoritative(f.sh.dc.epoch.Load()) {
		spans.FromClock(th.Clk).DCacheHit()
	} else {
		f.dcacheRebuild(th, idx, dirIno)
	}
}

// dcacheRebuild discards the index and rebuilds it with one full charged
// walk of the on-NVM structure. Live entries index by name, free slots join
// their placement free list; a live-but-undecodable dentry (torn commit
// word) is neither — it is invisible to lookups and its slot is left for
// recovery to reclaim. Caller holds idx.mu.
func (f *FS) dcacheRebuild(th *proc.Thread, idx *dirIndex, dirIno int64) {
	sp := spans.FromClock(th.Clk)
	sp.DCacheMiss()
	t0 := th.Clk.Now()
	idx.ents = nil
	idx.pos = map[string]int{}
	idx.free = map[int64][]deLoc{}
	idx.epoch = f.sh.dc.epoch.Load()
	idx.complete = true
	dirWalk(th, dirIno, nil, func(d dentry, loc deLoc, bkt int64) bool {
		switch {
		case d.visible():
			idx.put(cachedDe{de: d, loc: loc, bkt: bkt})
		case d.state != deStateLive:
			idx.free[bkt] = append(idx.free[bkt], loc)
		}
		return true
	})
	sp.Child("dcache.rebuild", t0, th.Clk.Now()-t0)
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

// DirCacheDirs reports how many directory indexes the device's shared cache
// currently holds (tests and the crash checker assert a cold cache after
// remount).
func DirCacheDirs(dev *nvm.Device) int {
	n := 0
	sharedFor(dev).dc.dirs.Range(func(any, any) bool { n++; return true })
	return n
}
