package kernfs

import (
	"encoding/binary"
	"fmt"
	"sync/atomic"

	"zofs/internal/byteflow"
	"zofs/internal/coffer"
	"zofs/internal/lockprof"
	"zofs/internal/nvm"
	"zofs/internal/perfmodel"
	"zofs/internal/simclock"
)

// Persistent path→coffer hash table (§4.1: "Treasury also introduces a
// persistent hash table ... The key of the hash table is the path of the
// coffer, and the value is the coffer-ID").
//
// Layout: a fixed region of bucket-head pages (8-byte page numbers, one per
// bucket) followed by dynamically allocated entry pages. Each entry page:
//
//	0  next    u64  (page number of next entry page in the chain; 0 = none)
//	8  used    u16  (bytes used beyond the header)
//	10 pad[6]
//	16 entries: {hash u64, cofferID u32, state u8, pathLen u16, pad u8,
//	             path bytes, padded to 8-byte alignment}
//
// Deletion tombstones entries (state = entryDead); recovery compacts them.
// A volatile hash table of the same shape — same hash, same bucket count —
// mirrors the live entries for lock-free lookups.
const (
	pathBuckets     = 4096
	entryPageHdr    = 16
	entryHdr        = 16
	entryLive       = 1
	entryDead       = 2
	entryPageUsable = nvm.PageSize - entryPageHdr
)

type pathTable struct {
	dev       *nvm.Device
	bucketOff int64 // byte offset of bucket-head array
	sm        *spaceManager

	// wmu is the write-side coupling to KernFS.pmu: insert/remove/rename
	// serialize on it; readers never touch it.
	wmu *lockprof.RWMutex

	// vol mirrors the live entries, path → coffer.ID: one chain of pathEnt
	// per bucket. Probes walk a chain with atomic loads and no lock; writers
	// (serialized by wmu) push at a chain's head and unlink in place, so path
	// resolution never blocks behind a concurrent coffer create/delete/
	// rename and a mutation costs one entry however many coffers exist.
	vol [pathBuckets]atomic.Pointer[pathEnt]

	// seq versions the mirror for readers that keep an answer across calls
	// (resolveMemo): writers bump it to odd before a mutation and to even
	// after, so an answer read under an unchanged even seq describes one
	// table state.
	seq atomic.Uint64
}

// pathEnt is one live mapping in the mirror, immutable but for its chain
// link. An unlinked entry keeps its link, so a probe standing on it walks on
// into the chain it left; entries are never reused.
type pathEnt struct {
	hash uint64
	path string
	id   coffer.ID
	next atomic.Pointer[pathEnt]
}

// pathTabBytes is the persistent size of the bucket-head region.
func pathTabBytes() int64 { return pathBuckets * 8 }

// pathHash is 64-bit FNV-1a, inline so that hashing a path allocates nothing.
func pathHash(p string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(p); i++ {
		h = (h ^ uint64(p[i])) * 1099511628211
	}
	return h
}

func (pt *pathTable) bucketFor(p string) int64 {
	return int64(pathHash(p) % pathBuckets)
}

func (pt *pathTable) bucketHead(clk *simclock.Clock, b int64) int64 {
	var buf [8]byte
	pt.dev.Read(clk, pt.bucketOff+b*8, buf[:])
	return int64(binary.LittleEndian.Uint64(buf[:]))
}

func (pt *pathTable) setBucketHead(clk *simclock.Clock, b, page int64) {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], uint64(page))
	pt.dev.WriteNTClass(clk, byteflow.ClassDentry, pt.bucketOff+b*8, buf[:])
}

func entrySize(pathLen int) int64 {
	n := int64(entryHdr + pathLen)
	return (n + 7) &^ 7
}

// find probes the mirror.
func (pt *pathTable) find(p string) (coffer.ID, bool) {
	h := pathHash(p)
	for e := pt.vol[h%pathBuckets].Load(); e != nil; e = e.next.Load() {
		if e.hash == h && e.path == p {
			return e.id, true
		}
	}
	return 0, false
}

// link pushes a mapping for p, which the caller has found absent, onto its
// chain. It is set without the seq bracket: what load uses, on a table nobody
// reads yet.
func (pt *pathTable) link(p string, id coffer.ID) {
	e := &pathEnt{hash: pathHash(p), path: p, id: id}
	head := &pt.vol[e.hash%pathBuckets]
	e.next.Store(head.Load())
	head.Store(e)
}

// set and unset edit the mirror inside the seq odd/even bracket.
func (pt *pathTable) set(p string, id coffer.ID) {
	pt.seq.Add(1)
	pt.link(p, id)
	pt.seq.Add(1)
}

func (pt *pathTable) unset(p string) {
	h := pathHash(p)
	link := &pt.vol[h%pathBuckets]
	for e := link.Load(); e != nil; link, e = &e.next, e.next.Load() {
		if e.hash == h && e.path == p {
			pt.seq.Add(1)
			link.Store(e.next.Load())
			pt.seq.Add(1)
			return
		}
	}
}

// init formats the bucket heads to empty. Path-table traffic is directory
// structure at the Treasury layer; the explicit class keeps mkfs-era
// formatting (nil clock) out of the ledger's residual.
func (pt *pathTable) init(clk *simclock.Clock) {
	pt.dev.ZeroClass(clk, byteflow.ClassDentry, pt.bucketOff, pathTabBytes())
}

// load fills the volatile map of a fresh table by walking every bucket chain.
func (pt *pathTable) load(clk *simclock.Clock) error {
	page := make([]byte, nvm.PageSize)
	for b := int64(0); b < pathBuckets; b++ {
		for pg := pt.bucketHead(clk, b); pg != 0; {
			pt.dev.Read(clk, pg*nvm.PageSize, page)
			next := int64(binary.LittleEndian.Uint64(page[0:]))
			used := int64(binary.LittleEndian.Uint16(page[8:]))
			if used > entryPageUsable {
				return fmt.Errorf("kernfs: corrupt path-table page %d (used %d)", pg, used)
			}
			for off := int64(entryPageHdr); off < entryPageHdr+used; {
				id := coffer.ID(binary.LittleEndian.Uint32(page[off+8:]))
				state := page[off+12]
				plen := int(binary.LittleEndian.Uint16(page[off+13:]))
				sz := entrySize(plen)
				if off+sz > int64(nvm.PageSize) {
					return fmt.Errorf("kernfs: corrupt path-table entry at page %d off %d", pg, off)
				}
				if state == entryLive {
					pt.link(string(page[off+entryHdr:off+entryHdr+int64(plen)]), id)
				}
				off += sz
			}
			pg = next
		}
	}
	return nil
}

// lookup finds the coffer for an exact path, with a hash-probe CPU charge —
// this is the per-prefix cost that makes deep paths slower in ZoFS (§6.2).
// Lock-free.
func (pt *pathTable) lookup(clk *simclock.Clock, p string) (coffer.ID, bool) {
	if clk != nil {
		clk.Advance(perfmodel.CPUHashLookup)
	}
	return pt.find(p)
}

// insert adds a live entry, persisting it in the bucket chain.
func (pt *pathTable) insert(clk *simclock.Clock, p string, id coffer.ID) error {
	if pt.wmu != nil {
		pt.wmu.Lock(clk)
		defer pt.wmu.Unlock(clk)
	}
	if _, dup := pt.find(p); dup {
		return ErrExists
	}
	if len(p) > coffer.MaxPathLen {
		return fmt.Errorf("%w: path too long", ErrInvalid)
	}
	b := pt.bucketFor(p)
	sz := entrySize(len(p))

	// One stack page serves either outcome: the entry alone, or a fresh
	// entry page around it.
	var page [nvm.PageSize]byte

	// Find an entry page with room.
	var hdr [16]byte
	pg := pt.bucketHead(clk, b)
	for cur := pg; cur != 0; {
		pt.dev.Read(clk, cur*nvm.PageSize, hdr[:])
		used := int64(binary.LittleEndian.Uint16(hdr[8:]))
		if used+sz <= entryPageUsable {
			encodeEntry(page[:sz], p, id)
			pt.dev.WriteNTClass(clk, byteflow.ClassDentry, cur*nvm.PageSize+entryPageHdr+used, page[:sz])
			binary.LittleEndian.PutUint16(hdr[8:], uint16(used+sz))
			pt.dev.WriteNTClass(clk, byteflow.ClassDentry, cur*nvm.PageSize+8, hdr[8:10])
			pt.set(p, id)
			return nil
		}
		cur = int64(binary.LittleEndian.Uint64(hdr[0:]))
	}

	// Allocate a fresh entry page at the head of the chain.
	var one [1]coffer.Extent
	exts, err := pt.sm.allocate(clk, 0, coffer.KernelID, 1, one[:0])
	if err != nil {
		return err
	}
	newPg := exts[0].Start
	binary.LittleEndian.PutUint64(page[0:], uint64(pg))
	binary.LittleEndian.PutUint16(page[8:], uint16(sz))
	encodeEntry(page[entryPageHdr:], p, id)
	pt.dev.WriteNTClass(clk, byteflow.ClassDentry, newPg*nvm.PageSize, page[:])
	pt.setBucketHead(clk, b, newPg)
	pt.set(p, id)
	return nil
}

func encodeEntry(dst []byte, p string, id coffer.ID) {
	binary.LittleEndian.PutUint64(dst[0:], pathHash(p))
	binary.LittleEndian.PutUint32(dst[8:], uint32(id))
	dst[12] = entryLive
	binary.LittleEndian.PutUint16(dst[13:], uint16(len(p)))
	copy(dst[entryHdr:], p)
}

// remove tombstones the entry for path p. When the tombstone leaves its
// entry page with no live entries the page is unlinked from the bucket chain
// and returned to the free pool — without this, coffer create/delete churn
// consumes one page per touched bucket forever and exact free-page
// conservation is unattainable. Tombstone first, unlink second, release
// last: a crash anywhere in the sequence leaves either a dead entry in the
// chain (load skips it) or an unreachable KernelID page (the allocation
// table and owner tree still agree, and recovery compaction reclaims it).
func (pt *pathTable) remove(clk *simclock.Clock, p string) error {
	if pt.wmu != nil {
		pt.wmu.Lock(clk)
		defer pt.wmu.Unlock(clk)
	}
	if _, ok := pt.find(p); !ok {
		return ErrNotFound
	}
	b := pt.bucketFor(p)
	h := pathHash(p)
	var page [nvm.PageSize]byte
	prev := int64(0)
	for pg := pt.bucketHead(clk, b); pg != 0; {
		pt.dev.Read(clk, pg*nvm.PageSize, page[:])
		next := int64(binary.LittleEndian.Uint64(page[0:]))
		used := int64(binary.LittleEndian.Uint16(page[8:]))
		for off := int64(entryPageHdr); off < entryPageHdr+used; {
			eh := binary.LittleEndian.Uint64(page[off:])
			state := page[off+12]
			plen := int(binary.LittleEndian.Uint16(page[off+13:]))
			sz := entrySize(plen)
			if state == entryLive && eh == h && string(page[off+entryHdr:off+entryHdr+int64(plen)]) == p {
				pt.dev.WriteNTClass(clk, byteflow.ClassDentry, pg*nvm.PageSize+off+12, []byte{entryDead})
				page[off+12] = entryDead
				if pageAllDead(page[:], used) {
					if prev == 0 {
						pt.setBucketHead(clk, b, next)
					} else {
						var nb [8]byte
						binary.LittleEndian.PutUint64(nb[:], uint64(next))
						pt.dev.WriteNTClass(clk, byteflow.ClassDentry, prev*nvm.PageSize, nb[:])
					}
					if err := pt.sm.release(clk, coffer.KernelID, pg, 1); err != nil {
						return err
					}
				}
				pt.unset(p)
				return nil
			}
			off += sz
		}
		prev = pg
		pg = next
	}
	// Volatile map said it existed; persistent chain disagrees.
	return fmt.Errorf("kernfs: path table inconsistency for %q", p)
}

// pageAllDead reports whether an entry page holds no live entries.
func pageAllDead(page []byte, used int64) bool {
	for off := int64(entryPageHdr); off < entryPageHdr+used; {
		if page[off+12] == entryLive {
			return false
		}
		plen := int(binary.LittleEndian.Uint16(page[off+13:]))
		off += entrySize(plen)
	}
	return true
}

// rename atomically (in the volatile view) re-keys an entry.
func (pt *pathTable) rename(clk *simclock.Clock, oldPath, newPath string, id coffer.ID) error {
	if err := pt.insert(clk, newPath, id); err != nil {
		return err
	}
	if err := pt.remove(clk, oldPath); err != nil {
		pt.remove(clk, newPath) // roll back best-effort
		return err
	}
	return nil
}

// each calls fn for every live path→coffer mapping, in no particular order,
// until fn returns false. It walks the mirror in place; fn must not write to
// the table.
func (pt *pathTable) each(fn func(p string, id coffer.ID) bool) {
	for b := range pt.vol {
		for e := pt.vol[b].Load(); e != nil; e = e.next.Load() {
			if !fn(e.path, e.id) {
				return
			}
		}
	}
}
