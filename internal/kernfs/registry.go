package kernfs

import (
	"runtime"
	"sync/atomic"

	"zofs/internal/coffer"
)

// The kernel agent's two volatile tables that lookups read without a lock —
// the coffer registry here, the path mirror in pathtab.go — are typed: a
// mutation boxes no key and no value, and what it keeps is carved from a slab.

// registry is the coffer table, coffer.ID → *cofferInfo. An ID is the
// coffer's root page number, so the table is indexed, not hashed: a directory
// of fixed-size leaves, each made the first time a coffer lands in its range
// and kept. A lookup is two atomic loads; a store (serialized by regMu, or by
// Mount running alone) writes one slot.
type registry struct {
	leaves []atomic.Pointer[regLeaf]
}

const regLeafSlots = 512

type regLeaf [regLeafSlots]atomic.Pointer[cofferInfo]

func newRegistry(npages int64) registry {
	return registry{leaves: make([]atomic.Pointer[regLeaf], (npages+regLeafSlots-1)/regLeafSlots)}
}

// load resolves an ID; IDs no coffer can have (coffer.KernelID) resolve to nil.
func (r *registry) load(id coffer.ID) *cofferInfo {
	i := int(id / regLeafSlots)
	if i >= len(r.leaves) {
		return nil
	}
	leaf := r.leaves[i].Load()
	if leaf == nil {
		return nil
	}
	return leaf[id%regLeafSlots].Load()
}

// store sets an ID's record, or clears it when ci is nil.
func (r *registry) store(id coffer.ID, ci *cofferInfo) {
	dir := &r.leaves[id/regLeafSlots]
	leaf := dir.Load()
	if leaf == nil {
		leaf = new(regLeaf)
		dir.Store(leaf)
	}
	leaf[id%regLeafSlots].Store(ci)
}

// each visits every registered coffer in ascending ID order.
func (r *registry) each(fn func(id coffer.ID, ci *cofferInfo)) {
	for i := range r.leaves {
		leaf := r.leaves[i].Load()
		if leaf == nil {
			continue
		}
		for j := range leaf {
			if ci := leaf[j].Load(); ci != nil {
				fn(coffer.ID(i*regLeafSlots+j), ci)
			}
		}
	}
}

// rootSnap publishes a coffer's root page to the readers that take no lock
// (Info, the permission prechecks of coffer_new and coffer_enlarge). It is a
// sequence-locked copy whose every word is an atomic: a publish overwrites it
// in place — no heap copy per mutation — and a reader that overlapped one
// retries. The path is apart from the words: it is the path-mirror entry the
// coffer is published under, set by the first publish and after that only by
// a rename, under the registry lock, the moment the table changes — the root
// page follows it later (renameTree). Entries are never reused, so a reader
// holding a replaced one still reads the path it named.
type rootSnap struct {
	seq atomic.Uint32
	w   [6]atomic.Uint64
	ent atomic.Pointer[pathEnt]
}

// publish refreshes the snapshot's words from rp. The caller holds the
// coffer's lock (or has not made the coffer visible yet).
func (s *rootSnap) publish(rp *coffer.RootPage) {
	s.seq.Add(1)
	s.w[0].Store(uint64(rp.ID)<<32 | uint64(rp.Type))
	s.w[1].Store(uint64(rp.Mode)<<32 | uint64(rp.UID))
	s.w[2].Store(uint64(rp.GID)<<32 | uint64(rp.Flags))
	s.w[3].Store(uint64(rp.RootInode))
	s.w[4].Store(uint64(rp.Custom))
	s.w[5].Store(rp.Lease)
	s.seq.Add(1)
}

// rename publishes the coffer's path-mirror entry. The caller holds the
// registry lock (or has not made the coffer visible yet).
func (s *rootSnap) rename(e *pathEnt) { s.ent.Store(e) }

// published returns the path the coffer is published under.
func (s *rootSnap) published() string { return s.ent.Load().path }

// load returns the root page as of one publish.
func (s *rootSnap) load() coffer.RootPage {
	for {
		if seq := s.seq.Load(); seq&1 == 0 {
			w0, w1, w2 := s.w[0].Load(), s.w[1].Load(), s.w[2].Load()
			rp := coffer.RootPage{
				ID: coffer.ID(w0 >> 32), Type: coffer.Type(w0),
				Mode: coffer.Mode(w1 >> 32), UID: uint32(w1),
				GID: uint32(w2 >> 32), Flags: uint32(w2),
				RootInode: int64(s.w[3].Load()), Custom: int64(s.w[4].Load()),
				Lease: s.w[5].Load(), Path: s.published(),
			}
			if s.seq.Load() == seq {
				return rp
			}
		}
		runtime.Gosched()
	}
}
