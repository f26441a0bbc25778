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
	"zofs/internal/slab"
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
// Deletion tombstones entries (state = entryDead), empties a bucket's head
// page, or unlinks an emptied page from its chain (remove). Nothing compacts
// the table, so an entry never moves.
// A volatile hash table of the same shape — same hash, same bucket count —
// mirrors the live entries for lock-free lookups, and remembers where each
// lies on the device and how many live entries each chained page holds.
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
	// ents is what the mirror's entries are carved from, under wmu (or by
	// Mount running alone).
	ents slab.Slab[pathEnt]

	// live counts the live entries of every entry page linked into a bucket
	// chain, an emptied head page at zero; an unlinked page leaves it. Its
	// keys are the chained pages. Guarded by wmu.
	live map[int64]int32

	// seq versions the mirror for readers that keep an answer across calls
	// (resolveMemo): writers bump it to odd before a mutation and to even
	// after, so an answer read under an unchanged even seq describes one
	// table state.
	seq atomic.Uint64
}

// pathEnt is one live mapping in the mirror, immutable but for its chain
// link. An unlinked entry keeps its link, so a probe standing on it walks on
// into the chain it left; entries are carved from a slab and never reused, so
// neither a probe nor a coffer's published path (rootSnap) ever reads one that
// names another mapping. at is the device byte offset of the persistent entry.
type pathEnt struct {
	hash uint64
	path string
	id   coffer.ID
	at   int64
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
	if e := pt.entry(p); e != nil {
		return e.id, true
	}
	return 0, false
}

// entry returns p's mirror entry, or nil.
func (pt *pathTable) entry(p string) *pathEnt {
	h := pathHash(p)
	for e := pt.vol[h%pathBuckets].Load(); e != nil; e = e.next.Load() {
		if e.hash == h && e.path == p {
			return e
		}
	}
	return nil
}

// link pushes a mapping for p, whose persistent entry lies at device offset
// at and which the caller has found absent, onto its chain, and returns its
// entry. It is set without the seq bracket: what load uses, on a table nobody
// reads yet.
func (pt *pathTable) link(p string, id coffer.ID, at int64) *pathEnt {
	e := pt.ents.Carve()
	e.hash, e.path, e.id, e.at = pathHash(p), p, id, at
	head := &pt.vol[e.hash%pathBuckets]
	e.next.Store(head.Load())
	head.Store(e)
	return e
}

// set and unset edit the mirror inside the seq odd/even bracket.
func (pt *pathTable) set(p string, id coffer.ID, at int64) *pathEnt {
	pt.seq.Add(1)
	e := pt.link(p, id, at)
	pt.seq.Add(1)
	return e
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
	pt.live = map[int64]int32{}
	pt.dev.ZeroClass(clk, byteflow.ClassDentry, pt.bucketOff, pathTabBytes())
}

// load fills the volatile map of a fresh table, entry locations and page
// counts included, by walking every bucket chain.
func (pt *pathTable) load(clk *simclock.Clock) error {
	pt.live = map[int64]int32{}
	read := func(off int64, buf []byte) { pt.dev.Read(clk, off, buf) }
	return pt.walk(read, pt.live, func(_, at int64, _ uint64, id coffer.ID, p string) error {
		pt.link(p, id, at)
		return nil
	})
}

// walk reads every bucket chain through read, counts the live entries of each
// chained page into live and calls fn for each live entry, with its bucket,
// device offset, stored hash and coffer, until fn fails. A page chained twice,
// or a page or entry past its bounds, is corruption.
func (pt *pathTable) walk(read func(off int64, buf []byte), live map[int64]int32, fn func(b, at int64, h uint64, id coffer.ID, p string) error) error {
	page := make([]byte, nvm.PageSize)
	for b := int64(0); b < pathBuckets; b++ {
		read(pt.bucketOff+b*8, page[:8])
		for pg := int64(binary.LittleEndian.Uint64(page)); pg != 0; {
			if _, twice := live[pg]; twice {
				return inconsistent(coffer.KernelID, pg*nvm.PageSize, "kernfs: path-table page %d chained twice", pg)
			}
			read(pg*nvm.PageSize, page)
			used := int64(binary.LittleEndian.Uint16(page[8:]))
			if used > entryPageUsable {
				return inconsistent(coffer.KernelID, pg*nvm.PageSize, "kernfs: corrupt path-table page %d (used %d)", pg, used)
			}
			live[pg] = 0
			for off := int64(entryPageHdr); off < entryPageHdr+used; {
				plen := int64(binary.LittleEndian.Uint16(page[off+13:]))
				sz := entrySize(int(plen))
				if off+sz > int64(nvm.PageSize) {
					return inconsistent(coffer.KernelID, pg*nvm.PageSize+off, "kernfs: corrupt path-table entry at page %d off %d", pg, off)
				}
				if page[off+12] == entryLive {
					h := binary.LittleEndian.Uint64(page[off:])
					id := coffer.ID(binary.LittleEndian.Uint32(page[off+8:]))
					if err := fn(b, pg*nvm.PageSize+off, h, id, string(page[off+entryHdr:off+entryHdr+plen])); err != nil {
						return err
					}
					live[pg]++
				}
				off += sz
			}
			pg = int64(binary.LittleEndian.Uint64(page))
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

// insert adds a live entry, persisting it in the bucket chain, and returns
// its mirror entry.
func (pt *pathTable) insert(clk *simclock.Clock, p string, id coffer.ID) (*pathEnt, error) {
	if pt.wmu != nil {
		pt.wmu.Lock(clk)
		defer pt.wmu.Unlock(clk)
	}
	if _, dup := pt.find(p); dup {
		return nil, ErrExists
	}
	if len(p) > coffer.MaxPathLen {
		return nil, fmt.Errorf("%w: path too long", ErrInvalid)
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
			pt.live[cur]++
			return pt.set(p, id, cur*nvm.PageSize+entryPageHdr+used), nil
		}
		cur = int64(binary.LittleEndian.Uint64(hdr[0:]))
	}

	// Allocate a fresh entry page at the head of the chain.
	var one [1]coffer.Extent
	exts, err := pt.sm.allocate(clk, 0, coffer.KernelID, 1, one[:0])
	if err != nil {
		return nil, err
	}
	newPg := exts[0].Start
	binary.LittleEndian.PutUint64(page[0:], uint64(pg))
	binary.LittleEndian.PutUint16(page[8:], uint16(sz))
	encodeEntry(page[entryPageHdr:], p, id)
	pt.dev.WriteNTClass(clk, byteflow.ClassDentry, newPg*nvm.PageSize, page[:])
	pt.setBucketHead(clk, b, newPg)
	pt.live[newPg] = 1
	return pt.set(p, id, newPg*nvm.PageSize+entryPageHdr), nil
}

func encodeEntry(dst []byte, p string, id coffer.ID) {
	binary.LittleEndian.PutUint64(dst[0:], pathHash(p))
	binary.LittleEndian.PutUint32(dst[8:], uint32(id))
	dst[12] = entryLive
	binary.LittleEndian.PutUint16(dst[13:], uint16(len(p)))
	copy(dst[entryHdr:], p)
}

// remove deletes the entry for path p. It reads only the entry, where the
// mirror says it lies, and checks it is p's live entry; its page's live count
// says what the delete is. Usually that is a tombstone. An entry page left
// with no live entry leaves the chain, so that create/delete churn does not
// keep one page per touched bucket forever — except the bucket's head page,
// which stays linked with its used count reset to zero (one store, which is
// the delete): the bucket's next insert, typically the same path coming back
// from a split/merge or rename cycle, lands in it instead of allocating,
// scrubbing and freeing a page per cycle. Only a head page can be empty, so
// at most one page per bucket is retained (see retained). Any other emptied
// page goes tombstone first, unlink second, release last: a crash anywhere in
// the sequence leaves either a dead entry in the chain (load skips it) or an
// unreachable KernelID page, which Mount releases (releaseStrays).
func (pt *pathTable) remove(clk *simclock.Clock, p string) error {
	if pt.wmu != nil {
		pt.wmu.Lock(clk)
		defer pt.wmu.Unlock(clk)
	}
	e := pt.entry(p)
	if e == nil {
		return ErrNotFound
	}
	var buf [nvm.PageSize]byte
	ent := buf[:entrySize(len(p))]
	pt.dev.Read(clk, e.at, ent)
	if ent[12] != entryLive || binary.LittleEndian.Uint64(ent) != e.hash ||
		int(binary.LittleEndian.Uint16(ent[13:])) != len(p) || string(ent[entryHdr:entryHdr+len(p)]) != p {
		// The mirror says it lies here; the persistent entry disagrees.
		return fmt.Errorf("kernfs: path table inconsistency for %q", p)
	}
	pg := e.at / nvm.PageSize
	left := pt.live[pg] - 1
	pt.live[pg] = left
	var head int64
	if left == 0 {
		head = pt.bucketHead(clk, pt.bucketFor(p))
	}
	if left == 0 && head == pg {
		var none [2]byte
		pt.dev.WriteNTClass(clk, byteflow.ClassDentry, pg*nvm.PageSize+8, none[:])
	} else {
		pt.dev.WriteNTClass(clk, byteflow.ClassDentry, e.at+12, []byte{entryDead})
	}
	pt.unset(p)
	if left > 0 || head == pg {
		return nil
	}
	return pt.unlink(clk, head, pg)
}

// unlink takes the emptied page pg, not its chain's head, out of the chain
// that starts at head and releases it. Its predecessor is found by reading
// the chain's next words alone.
func (pt *pathTable) unlink(clk *simclock.Clock, head, pg int64) error {
	var next, w [8]byte
	pt.dev.Read(clk, pg*nvm.PageSize, next[:])
	prev := head
	for {
		pt.dev.Read(clk, prev*nvm.PageSize, w[:])
		n := int64(binary.LittleEndian.Uint64(w[:]))
		if n == pg {
			break
		}
		if n == 0 {
			return fmt.Errorf("kernfs: path-table page %d is not in its bucket chain", pg)
		}
		prev = n
	}
	pt.dev.WriteNTClass(clk, byteflow.ClassDentry, prev*nvm.PageSize, next[:])
	delete(pt.live, pg)
	return pt.sm.release(clk, coffer.KernelID, pg, 1)
}

// retained counts the chained entry pages that hold no live entry — emptied
// bucket heads (see remove). Run at quiescence.
func (pt *pathTable) retained() int64 {
	var n int64
	for _, live := range pt.live {
		if live == 0 {
			n++
		}
	}
	return n
}

// fixedEnd is the first page past the fixed kernel region, which ends with
// the bucket-head array; every other KernelID page is an entry page.
func (pt *pathTable) fixedEnd() int64 {
	return (pt.bucketOff + pathTabBytes() + nvm.PageSize - 1) / nvm.PageSize
}

// releaseStrays frees the KernelID pages past the fixed region that no bucket
// chain reaches: a crash between an emptied page's unlink and its release, or
// between a fresh page's grant and its link, strands one. Mount runs it after
// load.
func (pt *pathTable) releaseStrays(clk *simclock.Clock) error {
	for _, e := range pt.sm.extentsOf(coffer.KernelID) {
		for pg := max(e.Start, pt.fixedEnd()); pg < e.End(); pg++ {
			if _, chained := pt.live[pg]; !chained {
				if err := pt.sm.release(clk, coffer.KernelID, pg, 1); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// verify re-reads every bucket chain (uncharged) and checks the mirror
// against it: every live entry on the media is the mirror's entry for its
// path, at its offset, and no other is mirrored; every chained page's live
// count equals its live entries; and the KernelID pages past the fixed region
// are exactly the chained pages. Run at quiescence.
func (pt *pathTable) verify() error {
	live := map[int64]int32{}
	var n int
	err := pt.walk(pt.dev.ReadNoCharge, live, func(b, at int64, h uint64, id coffer.ID, p string) error {
		if e := pt.entry(p); h != pathHash(p) || int64(h%pathBuckets) != b || e == nil || e.at != at || e.id != id {
			return inconsistent(id, at, "kernfs: live path-table entry %.40q (coffer %d) at %d is not the mirror's", p, id, at)
		}
		n++
		return nil
	})
	if err != nil {
		return err
	}
	for pg, c := range live {
		if m, ok := pt.live[pg]; !ok || m != c {
			return inconsistent(coffer.KernelID, pg*nvm.PageSize, "kernfs: path-table page %d holds %d live entries, its count says %d (%v)", pg, c, m, ok)
		}
	}
	if len(live) != len(pt.live) {
		return inconsistent(coffer.KernelID, -1, "kernfs: live counts for %d path-table pages, %d chained", len(pt.live), len(live))
	}
	mirrored := 0
	pt.each(func(string, coffer.ID) bool { mirrored++; return true })
	if mirrored != n {
		return inconsistent(coffer.KernelID, -1, "kernfs: the path mirror holds %d entries, the media %d live", mirrored, n)
	}
	pt.sm.peekOwner(coffer.KernelID).Each(func(start, count int64) {
		for pg := max(start, pt.fixedEnd()); pg < start+count && err == nil; pg++ {
			if _, ok := pt.live[pg]; !ok {
				err = inconsistent(coffer.KernelID, pg*nvm.PageSize, "kernfs: KernelID page %d is in no bucket chain", pg)
			}
		}
	})
	for pg := range pt.live {
		if err == nil && pt.sm.slotOwner(pg) != coffer.KernelID {
			err = inconsistent(coffer.KernelID, pg*nvm.PageSize, "kernfs: chained path-table page %d is not the kernel's", pg)
		}
	}
	return err
}

// rename atomically (in the volatile view) re-keys an entry, and returns the
// new one.
func (pt *pathTable) rename(clk *simclock.Clock, oldPath, newPath string, id coffer.ID) (*pathEnt, error) {
	e, err := pt.insert(clk, newPath, id)
	if err != nil {
		return nil, err
	}
	if err := pt.remove(clk, oldPath); err != nil {
		pt.remove(clk, newPath) // roll back best-effort
		return nil, err
	}
	return e, nil
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
