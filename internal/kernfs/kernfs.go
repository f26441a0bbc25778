// Package kernfs implements the kernel half of the Treasury architecture
// (paper §3.2, §4.1): global NVM space management via a persistent
// allocation table, the persistent path→coffer hash table, and the
// coffer-level protocol of Table 5 (coffer_new/delete/enlarge/shrink/map/
// unmap/split/merge/recover, fs_mount/umount, file_mmap/execve).
//
// KernFS treats coffers as black boxes: it knows a coffer's path, type,
// permission and page set, but never its interior. Every public operation
// charges one syscall on the calling thread's virtual clock.
//
// Locking (DESIGN.md §14). The old kernel big lock is gone; the agent is
// sharded along the paper's own granularity argument — the kernel manages
// coffers, so the kernel locks coffers:
//
//	kernfs.registry          publication only: a coffer's path entry and
//	                         registry slot appear, move or go together
//	kernfs.coffer/<id>       one per coffer: flags, mappers, owner set
//	kernfs.paths             path-table write side (readers take no lock)
//	kernfs.freeshard/<i>     free-pool shards; transient leaves
//
// Class order is strictly descending in that list; within kernfs.coffer,
// multi-coffer operations (move_pages, coffer_merge) lock in ascending ID
// order. Charged work — grant scrubbing, allocation-table writes, page
// retagging, root-page writes, PTE update costs — happens outside the
// registry lock: coffer_new and coffer_split stage the coffer and publish
// it, coffer_delete and coffer_merge tear it down under its own lock and
// unpublish it, and a rename moves path entries before it rewrites root
// pages.
//
// Metadata is written where it changes. A live coffer's root page is updated
// in place — its 64-byte header and its path, never the whole page; only a
// fresh root page (coffer_new, coffer_split) that may hold old bytes is
// written in full, which is also its scrub, since every mapper can read it.
package kernfs

import (
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"zofs/internal/byteflow"
	"zofs/internal/coffer"
	"zofs/internal/lockprof"
	"zofs/internal/mpk"
	"zofs/internal/nvm"
	"zofs/internal/perfmodel"
	"zofs/internal/proc"
	"zofs/internal/simclock"
	"zofs/internal/slab"
	"zofs/internal/spans"
	"zofs/internal/telemetry"
)

// Exported error sentinels, the analogues of errno values.
var (
	ErrPerm         = errors.New("kernfs: permission denied")
	ErrNotFound     = errors.New("kernfs: no such coffer")
	ErrExists       = errors.New("kernfs: coffer exists")
	ErrBusy         = errors.New("kernfs: coffer busy")
	ErrNoSpace      = errors.New("kernfs: no space left on device")
	ErrNoMPKRegions = errors.New("kernfs: no MPK regions available")
	ErrInvalid      = errors.New("kernfs: invalid argument")
	ErrNotMapped    = errors.New("kernfs: coffer not mapped")
	ErrInRecovery   = errors.New("kernfs: coffer in recovery")
	// ErrCofferReadOnly / ErrCofferOffline are the quarantine errnos
	// (DESIGN.md §13): the coffer exists but has been fenced off — writes
	// (read-only) or all access (offline) fail fast with a typed error
	// while every other coffer keeps serving.
	ErrCofferReadOnly = errors.New("kernfs: coffer quarantined read-only")
	ErrCofferOffline  = errors.New("kernfs: coffer quarantined offline")
)

// Superblock layout (page 0).
const (
	// sbMagic names the on-NVM format. "ZoFS_SUP" was the format whose ZoFS
	// inodes held their direct slots before the two indirect words; Mount
	// refuses it, as it refuses any other magic, rather than read a direct
	// slot as an indirect pointer.
	sbMagic        = 0x5A6F46535F534232 // "ZoFS_SB2"
	sbMagicOff     = 0
	sbNPagesOff    = 8
	sbAllocPageOff = 16
	sbAllocLenOff  = 24
	sbPathPageOff  = 32
	sbPathLenOff   = 40
	sbRootOff      = 48
)

// MkfsOptions configures file system creation.
type MkfsOptions struct {
	RootMode coffer.Mode // permission of the root coffer (default 0755)
	RootUID  uint32
	RootGID  uint32
}

// KernFS is the kernel module instance for one device.
type KernFS struct {
	dev *nvm.Device

	// regMu is the registry lock: it covers publication only — a coffer's
	// path-table entry and its registry slot (and the published path in its
	// snapshot) change together under it, and nothing else happens there.
	// Steady-state operations — enlarge, map, shrink, lookups — never touch
	// it.
	regMu lockprof.Mutex
	// pmu is the path-table write lock; readers probe the table's concurrent
	// mirror and never take it.
	pmu lockprof.RWMutex

	space *spaceManager
	paths *pathTable

	rootCoffer coffer.ID
	// coffers maps coffer.ID -> *cofferInfo. The hot paths (enlarge, map,
	// Info) resolve IDs without any lock; mutations happen under regMu.
	coffers registry
	// infos is what coffer records are carved from, under regMu (or by
	// Mount running alone). A record is never reused: a lock-free reader
	// that resolved an ID before its coffer died reads a dead record, never
	// another coffer's.
	infos   slab.Slab[cofferInfo]
	procs   map[int]*procState
	procsMu sync.Mutex

	// violations counts MPK-violation reports per coffer (ReportViolation);
	// crossing violationThreshold auto-quarantines the coffer read-only.
	// Volatile by design: a reboot clears the tally but not the quarantine
	// flags, which live in the root page. Guarded by regMu.
	violations map[coffer.ID]int
}

// violationThreshold is how many reported stray-write violations at one
// coffer the kernel tolerates before fencing it read-only (DESIGN.md §13).
const violationThreshold = 3

// cofferInfo is the kernel's per-coffer record. mu (`kernfs.coffer/<id>`)
// guards rp, dead and mappers plus the coffer's owner set in the space
// manager; snap republishes rp after every change so Info and permission
// checks read it without the lock (validated against NVM truth the same way
// the dcache is).
type cofferInfo struct {
	mu lockprof.Mutex
	// dead is set by coffer_delete/merge before they unpublish the coffer;
	// checked after every acquire. A dead coffer counts as gone.
	dead bool
	rp   coffer.RootPage
	snap rootSnap

	mappers mapperSet
}

// newCofferInfo carves the record of a coffer published under path-mirror
// entry e. The caller holds regMu (or is Mount).
func (k *KernFS) newCofferInfo(rp coffer.RootPage, e *pathEnt) *cofferInfo {
	ci := k.infos.Carve()
	ci.rp = rp
	ci.mu.InitKeyed("kernfs.coffer", int64(rp.ID))
	ci.snap.rename(e)
	ci.publishRP()
	return ci
}

// mapperSet is the processes that have a coffer mapped. A coffer has few —
// one per process sharing it — so the set is a slice over room for the usual
// count inside the record, which never moves: adding a mapper allocates only
// past that room, and nothing is hashed.
type mapperSet struct {
	all    []*procState
	inline [4]*procState
}

// get returns pid's mapper, or nil.
func (s *mapperSet) get(pid int) *procState {
	for _, ps := range s.all {
		if ps.p.PID == pid {
			return ps
		}
	}
	return nil
}

func (s *mapperSet) add(ps *procState) {
	if s.all == nil {
		s.all = s.inline[:0]
	}
	s.all = append(s.all, ps)
}

func (s *mapperSet) remove(pid int) {
	for i, ps := range s.all {
		if ps.p.PID == pid {
			last := len(s.all) - 1
			s.all[i], s.all[last] = s.all[last], nil
			s.all = s.all[:last]
			return
		}
	}
}

// each calls fn for every mapper, the last added first; fn may remove the
// mapper it is given.
func (s *mapperSet) each(fn func(ps *procState)) {
	for i := len(s.all) - 1; i >= 0; i-- {
		fn(s.all[i])
	}
}

// publishRP refreshes the lock-free root-page snapshot; call after every rp
// mutation, holding mu.
func (ci *cofferInfo) publishRP() { ci.snap.publish(&ci.rp) }

// writeGate validates, under ci.mu, that pid may mutate the coffer's page
// set (the enlarge/shrink precondition).
func (ci *cofferInfo) writeGate(pid int) error {
	if ci.dead {
		return ErrNotFound
	}
	// Quarantine fences before the mapper check, so a degraded (remapped
	// read-only) holdover gets the typed quarantine error, not ErrNotMapped.
	if ci.rp.Flags&coffer.FlagOffline != 0 {
		return ErrCofferOffline
	}
	if ci.rp.Flags&coffer.FlagReadOnly != 0 {
		return ErrCofferReadOnly
	}
	ps := ci.mappers.get(pid)
	if ps == nil || !ps.isWritable(ci.rp.ID) {
		return ErrNotMapped
	}
	return nil
}

// procState is the kernel-private per-process state created by fs_mount.
// mu guards keys/writable/usedKeys (threads of one process can map
// different coffers concurrently); it nests strictly inside coffer locks.
type procState struct {
	p        *proc.Process
	mu       sync.Mutex
	keys     map[coffer.ID]mpk.Key
	writable map[coffer.ID]bool
	usedKeys uint16
	// revGen counts kernel-initiated mapping revocations and downgrades
	// (coffer delete, recovery eviction, quarantine, setuid). It models a
	// user-readable shared counter: the µFS compares it against its cached
	// value before trusting its mount cache, so a mapping the kernel pulled
	// out from under the library is noticed before — not after — the library
	// dereferences a dead key. Voluntary coffer_unmap does not bump it.
	// Bumped under mu.
	revGen atomic.Uint64
	// revLog names the coffer behind each of the last revLogLen bumps, bump
	// g in slot g%revLogLen, so the µFS drops the mounts a revocation touched
	// and no others (Revoked). Guarded by mu.
	revLog [revLogLen]coffer.ID
}

// revLogLen bounds a process's revocation log. allCoffers in it stands for
// every mapping (setuid); no coffer has ID 0, the superblock's page.
const (
	revLogLen  = 16
	allCoffers = coffer.ID(0)
)

// revoked logs a kernel-initiated revocation or downgrade of coffer id and
// bumps the generation the µFS polls.
func (ps *procState) revoked(id coffer.ID) {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	g := ps.revGen.Load() + 1
	ps.revLog[g%revLogLen] = id
	ps.revGen.Store(g)
}

func (ps *procState) isWritable(id coffer.ID) bool {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	return ps.writable[id]
}

func (ps *procState) access(id coffer.ID) (mpk.Key, bool) {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	return ps.keys[id], ps.writable[id]
}

func (ps *procState) hasKey(id coffer.ID) bool {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	_, ok := ps.keys[id]
	return ok
}

func (ps *procState) mappedIDs() []coffer.ID {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	out := make([]coffer.ID, 0, len(ps.keys))
	for id := range ps.keys {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// forgetKey drops the process's key bookkeeping for a coffer.
func (ps *procState) forgetKey(id coffer.ID) {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	if key, ok := ps.keys[id]; ok {
		ps.usedKeys &^= 1 << key
		delete(ps.keys, id)
		delete(ps.writable, id)
	}
}

// Mkfs formats a device: superblock, allocation table, path table and the
// root coffer (a ZoFS-type coffer holding "/"). Every write carries an
// explicit byte class — mkfs runs with nil clocks, and formatting traffic
// must not land in the ledger's residual. On a blank device every free slot
// is flagged zeroed; on any other device none is.
func Mkfs(dev *nvm.Device, opts MkfsOptions) error {
	if opts.RootMode == 0 {
		opts.RootMode = 0o755
	}
	npages := dev.Pages()
	allocPages := (allocTableBytes(npages) + nvm.PageSize - 1) / nvm.PageSize
	pathPages := (pathTabBytes() + nvm.PageSize - 1) / nvm.PageSize
	kernPages := 1 + allocPages + pathPages
	if kernPages+3 > npages {
		return fmt.Errorf("%w: device too small (%d pages)", ErrInvalid, npages)
	}

	blank := dev.Blank()
	sm := newSpaceManager(dev, 1*nvm.PageSize, npages)
	sm.initTable(nil, kernPages, blank)
	pt := &pathTable{dev: dev, bucketOff: (1 + allocPages) * nvm.PageSize, sm: sm}
	pt.init(nil)

	// Root coffer: root page + root dir inode page + custom page.
	var one, dirty [1]coffer.Extent
	exts, dirtied, err := sm.takeFree(nil, 0, 3, one[:0], dirty[:0])
	if err != nil {
		return err
	}
	pages := headPages(exts)
	rootID := coffer.ID(pages[0])
	own := sm.ownerSet(rootID)
	for _, e := range exts {
		sm.writeRun(nil, e.Start, e.Count, rootID)
		own.Add(e.Start, e.Count)
	}
	sm.uninflight(exts)
	rp := &coffer.RootPage{
		ID: rootID, Type: coffer.TypeZoFS, Mode: opts.RootMode,
		UID: opts.RootUID, GID: opts.RootGID,
		RootInode: pages[1], Custom: pages[2], Path: "/",
	}
	// Root pages are the coffer's super-inode.
	var page [nvm.PageSize]byte
	coffer.EncodeRootPage(&page, rp)
	dev.WriteNTClass(nil, byteflow.ClassInode, pages[0]*nvm.PageSize, page[:])
	scrubHead(dev, nil, pages, dirtied)
	if _, err := pt.insert(nil, "/", rootID); err != nil {
		return err
	}

	// Superblock last: its magic commits the format. The superblock is the
	// device's super-inode — it books inode-class like root pages do.
	sb := make([]byte, nvm.PageSize)
	binary.LittleEndian.PutUint64(sb[sbMagicOff:], sbMagic)
	binary.LittleEndian.PutUint64(sb[sbNPagesOff:], uint64(npages))
	binary.LittleEndian.PutUint64(sb[sbAllocPageOff:], 1)
	binary.LittleEndian.PutUint64(sb[sbAllocLenOff:], uint64(allocPages))
	binary.LittleEndian.PutUint64(sb[sbPathPageOff:], uint64(1+allocPages))
	binary.LittleEndian.PutUint64(sb[sbPathLenOff:], uint64(pathPages))
	binary.LittleEndian.PutUint64(sb[sbRootOff:], uint64(rootID))
	dev.WriteNTClass(nil, byteflow.ClassInode, 0, sb)
	return nil
}

// scrubHead zeroes a new coffer's root-file inode page and custom page where
// they may hold old bytes (dirty, from takeFree); its root page is written
// whole. The scrub is allocator overhead, as a zeroed enlarge grant's is.
func scrubHead(dev *nvm.Device, clk *simclock.Clock, pages [3]int64, dirty []coffer.Extent) {
	for _, pg := range pages[1:] {
		if inExtents(pg, dirty) {
			dev.ZeroClass(clk, byteflow.ClassAlloc, pg*nvm.PageSize, nvm.PageSize)
		}
	}
}

// inExtents reports whether page pg lies in one of exts.
func inExtents(pg int64, exts []coffer.Extent) bool {
	for _, e := range exts {
		if pg >= e.Start && pg < e.End() {
			return true
		}
	}
	return false
}

// headPages returns the first three pages of a new coffer's grant: its root
// page, root-file inode page and custom page.
func headPages(exts []coffer.Extent) (pages [3]int64) {
	n := 0
	for _, e := range exts {
		for pg := e.Start; pg < e.End() && n < len(pages); pg++ {
			pages[n] = pg
			n++
		}
	}
	return pages
}

// Mount attaches KernFS to a formatted device, rebuilding volatile state
// from the persistent allocation and path tables.
func Mount(dev *nvm.Device) (*KernFS, error) {
	sb := make([]byte, nvm.PageSize)
	dev.ReadNoCharge(0, sb)
	if binary.LittleEndian.Uint64(sb[sbMagicOff:]) != sbMagic {
		return nil, fmt.Errorf("%w: bad superblock magic", ErrInvalid)
	}
	npages := int64(binary.LittleEndian.Uint64(sb[sbNPagesOff:]))
	if npages != dev.Pages() {
		return nil, fmt.Errorf("%w: superblock pages %d != device pages %d", ErrInvalid, npages, dev.Pages())
	}
	allocPage := int64(binary.LittleEndian.Uint64(sb[sbAllocPageOff:]))
	pathPage := int64(binary.LittleEndian.Uint64(sb[sbPathPageOff:]))

	k := &KernFS{
		dev:        dev,
		space:      newSpaceManager(dev, allocPage*nvm.PageSize, npages),
		coffers:    newRegistry(npages),
		rootCoffer: coffer.ID(binary.LittleEndian.Uint64(sb[sbRootOff:])),
		procs:      map[int]*procState{},
		violations: map[coffer.ID]int{},
	}
	k.regMu.Init("kernfs.registry", "")
	k.pmu.Init("kernfs.paths", "")
	k.paths = &pathTable{dev: dev, bucketOff: pathPage * nvm.PageSize, sm: k.space, wmu: &k.pmu}
	if err := k.space.scan(nil); err != nil {
		return nil, err
	}
	if err := k.paths.load(nil); err != nil {
		return nil, err
	}
	if err := k.paths.releaseStrays(nil); err != nil {
		return nil, err
	}
	// Materialize coffer infos from root pages. A rename moves path entries
	// first — insert the new, remove the old — and rewrites root pages after,
	// so a crash can leave a root page behind its entry, which wins, or a
	// coffer under both paths, where the root page's path wins and the other
	// entry goes.
	buf := make([]byte, nvm.PageSize)
	var bad error
	var stale []string
	var merging [][2]coffer.ID // coffer, owner of its root inode page
	k.paths.each(func(path string, id coffer.ID) bool {
		dev.ReadNoCharge(int64(id)*nvm.PageSize, buf)
		rp, err := coffer.DecodeRootPage(buf)
		if err != nil {
			bad = fmt.Errorf("kernfs: coffer %d (%s): %v", id, path, err)
			return false
		}
		if rp.Path != path {
			if at, ok := k.paths.find(rp.Path); ok && at == id {
				stale = append(stale, path)
				return true
			}
			old := len(rp.Path)
			rp.Path = path
			k.updateRootPage(nil, rp, old)
		}
		if owner := k.space.slotOwner(rp.RootInode); owner != id {
			merging = append(merging, [2]coffer.ID{id, owner})
		}
		k.coffers.store(id, k.newCofferInfo(*rp, k.paths.entry(path)))
		return true
	})
	if bad != nil {
		return nil, bad
	}
	for _, p := range stale {
		if err := k.paths.remove(nil, p); err != nil {
			return nil, err
		}
	}
	// A coffer belongs where its root inode page is. coffer_merge moves that
	// page first, so a published coffer whose root inode page another
	// published coffer owns is a merge cut inside its page moves: it is
	// unpublished here, and its pages go on to that coffer below.
	into := map[coffer.ID]coffer.ID{}
	for _, m := range merging {
		if ci := k.coffers.load(m[0]); ci != nil && k.coffers.load(m[1]) != nil {
			if err := k.paths.remove(nil, ci.rp.Path); err != nil {
				return nil, err
			}
			k.coffers.store(m[0], nil)
			into[m[0]] = m[1]
		}
	}
	// Free what the table gives an owner that is neither the kernel nor a
	// published coffer: a crash inside unpublish, after the path entry went
	// and before releaseAll, or inside coffer_new/split before the publish.
	// This is the one place a cut page move is finished: a merge's pages go
	// on to the coffer it was folding into, a split's back to the coffer its
	// root page names in SplitFrom, whose directory still names them.
	for id := range k.space.byOwner {
		if id != coffer.KernelID && k.coffers.load(id) == nil {
			to, ok := into[id]
			if !ok {
				dev.ReadNoCharge(int64(id)*nvm.PageSize, buf)
				if rp, err := coffer.DecodeRootPage(buf); err == nil && rp.ID == id {
					to = rp.SplitFrom
				}
			}
			k.finishMove(id, to)
			k.space.releaseAll(nil, id, false)
		}
	}
	return k, nil
}

// finishMove gives every page of the unpublished coffer id but its root page
// to coffer to, if that coffer is published.
func (k *KernFS) finishMove(id, to coffer.ID) {
	if to == 0 || k.coffers.load(to) == nil {
		return
	}
	for _, e := range k.space.extentsOf(id) {
		for pg := e.Start; pg < e.End(); pg++ {
			if pg != int64(id) {
				_ = k.space.retag(nil, id, to, pg, 1) // id owns every page of its extents
			}
		}
	}
}

// Device returns the underlying NVM device.
func (k *KernFS) Device() *nvm.Device { return k.dev }

// cofferLoad resolves an ID lock-free.
func (k *KernFS) cofferLoad(id coffer.ID) (*cofferInfo, bool) {
	ci := k.coffers.load(id)
	return ci, ci != nil
}

// lockCoffer resolves and locks a coffer, treating concurrently deleted
// coffers as absent. Returns nil if the coffer does not (any longer) exist.
func (k *KernFS) lockCoffer(clk *simclock.Clock, id coffer.ID) *cofferInfo {
	ci, ok := k.cofferLoad(id)
	if !ok {
		return nil
	}
	ci.mu.Lock(clk)
	if ci.dead {
		ci.mu.Unlock(clk)
		return nil
	}
	return ci
}

// writeRootPage persists a fresh coffer's root page. Every mapper of the
// coffer can read all of it, so a page that may hold bytes from its last
// owner (in dirty, from takeFree) is written whole; one that reads zero is
// written over its header and path. Root pages are the coffer's super-inode,
// so the byte-flow ledger books them inode-class.
func (k *KernFS) writeRootPage(clk *simclock.Clock, pg int64, rp *coffer.RootPage, dirty []coffer.Extent) {
	var page [nvm.PageSize]byte
	coffer.EncodeRootPage(&page, rp)
	n := nvm.PageSize
	if !inExtents(pg, dirty) {
		n = coffer.RootPageLen(len(rp.Path))
	}
	k.dev.WriteNTClass(clk, byteflow.ClassInode, pg*nvm.PageSize, page[:n])
}

// updateRootPage rewrites a live coffer's root page in place: the header and
// the path, and zeros over the rest of a longer path it replaces (oldLen), so
// the page stays zero past its path. One store, so a crash leaves the old
// page or the new one.
func (k *KernFS) updateRootPage(clk *simclock.Clock, rp *coffer.RootPage, oldLen int) {
	var page [nvm.PageSize]byte
	coffer.EncodeRootPage(&page, rp)
	n := coffer.RootPageLen(max(len(rp.Path), oldLen))
	k.dev.WriteNTClass(clk, byteflow.ClassInode, int64(rp.ID)*nvm.PageSize, page[:n])
}

// rec returns the telemetry recorder attached to the device (nil when
// telemetry is disabled; all recorder methods are nil-safe).
func (k *KernFS) rec() *telemetry.Recorder { return k.dev.Recorder() }

// kcallNoop is returned by kcall when spans are disabled, so the deferred
// call costs one indirect jump instead of a fresh closure allocation.
var kcallNoop = func() {}

// kcall records this kernel entry as a child span of the caller's active
// operation ("kernfs.<name>"), covering syscall entry through return — the
// lens for seeing coffer_enlarge serialization inside op latency.
func kcall(th *proc.Thread, name string) func() {
	sp := spans.FromClock(th.Clk)
	if sp == nil {
		return kcallNoop
	}
	start := th.Clk.Now()
	return func() { sp.Child("kernfs."+name, start, th.Clk.Now()-start) }
}

// RootCoffer returns the coffer holding "/".
func (k *KernFS) RootCoffer() coffer.ID { return k.rootCoffer }

// FreePages reports unallocated pages (for df-style tools).
func (k *KernFS) FreePages() int64 { return k.space.freePages() }

// RetainedPathPages reports the path-table entry pages that hold no live
// entry: emptied bucket heads, kept for the bucket's next insert (at most one
// per bucket). With FreePages it accounts for every page no coffer needs.
// Uncharged (tooling).
func (k *KernFS) RetainedPathPages() int64 { return k.paths.retained() }

// FreeExtents returns the global free pool's extents in address order
// (df-style tools derive device-level fragmentation from them).
func (k *KernFS) FreeExtents() []coffer.Extent { return k.space.freeSnapshot().All() }

// VerifySpace re-reads the persistent allocation table and cross-checks it
// against the kernel's volatile extent sets: per-slot ownership, per-owner
// page counts, the sharded free pool (including in-flight grant batches),
// the zeroed pages it need not scrub and the whole-device census. Uncharged
// (a fsck/tooling operation, not a modeled syscall).
func (k *KernFS) VerifySpace() error { return k.space.verify() }

// VerifyZeroed checks that every page the allocation table flags as not
// granted since mkfs reads zero, so a grant that skips its scrub hands out
// zeros. Uncharged.
func (k *KernFS) VerifyZeroed() error { return k.space.verifyZeroed() }

// VerifyPaths re-reads the persistent path table and checks the volatile
// mirror against it: the same live entries, each where the mirror says it
// lies, the same live count per entry page, and no KernelID page outside the
// fixed region that no bucket chain reaches. Quiescence required.
func (k *KernFS) VerifyPaths() error { return k.paths.verify() }

// VerifyOwners checks that the allocation table gives every page it does
// not list free to the kernel or to a published coffer. Uncharged.
func (k *KernFS) VerifyOwners() error {
	return k.space.eachSlot(k.dev.ReadNoCharge, func(pg int64, slot []byte) error {
		if id := coffer.ID(binary.LittleEndian.Uint32(slot)); id != 0 && id != coffer.KernelID && k.coffers.load(id) == nil {
			return inconsistent(id, pg*nvm.PageSize, "kernfs: page %d owned by coffer %d, which is not published", pg, id)
		}
		return nil
	})
}

// Inconsistency is the first broken rule a verifier finds, with the coffer
// and the device byte offset it concerns (0 and -1 when it concerns none).
type Inconsistency struct {
	Coffer coffer.ID
	Off    int64
	What   string
}

func (e *Inconsistency) Error() string { return e.What }

func inconsistent(id coffer.ID, off int64, format string, args ...any) error {
	return &Inconsistency{id, off, fmt.Sprintf(format, args...)}
}

// ---- fs_mount / fs_umount -------------------------------------------------

// FSMount registers a process's FSLibs instance (Table 5: fs_mount).
func (k *KernFS) FSMount(th *proc.Thread) error {
	defer kcall(th, "fs_mount")()
	th.Syscall()
	k.procsMu.Lock()
	defer k.procsMu.Unlock()
	if _, dup := k.procs[th.Proc.PID]; dup {
		return fmt.Errorf("%w: process already mounted", ErrInvalid)
	}
	k.procs[th.Proc.PID] = &procState{
		p:        th.Proc,
		keys:     map[coffer.ID]mpk.Key{},
		writable: map[coffer.ID]bool{},
	}
	return nil
}

// FSUmount deregisters the process, unmapping every coffer (Table 5:
// fs_umount; also invoked on process termination).
func (k *KernFS) FSUmount(th *proc.Thread) error {
	defer kcall(th, "fs_umount")()
	th.Syscall()
	ps := k.stateOf(th.Proc.PID)
	if ps == nil {
		return ErrInvalid
	}
	for _, id := range ps.mappedIDs() {
		if ci := k.lockCoffer(th.Clk, id); ci != nil {
			k.unmapLocked(ci, ps)
			ci.mu.Unlock(th.Clk)
		} else {
			ps.forgetKey(id) // coffer died concurrently; drop the key
		}
	}
	k.procsMu.Lock()
	delete(k.procs, th.Proc.PID)
	k.procsMu.Unlock()
	return nil
}

func (k *KernFS) stateOf(pid int) *procState {
	k.procsMu.Lock()
	defer k.procsMu.Unlock()
	return k.procs[pid]
}

// SetIdentity changes a process's uid/gid; per §3.3 all coffer mappings are
// removed when identifiers change (setuid semantics).
func (k *KernFS) SetIdentity(th *proc.Thread, uid, gid uint32) error {
	defer kcall(th, "set_identity")()
	th.Syscall()
	ps := k.stateOf(th.Proc.PID)
	if ps == nil {
		return ErrInvalid
	}
	for _, id := range ps.mappedIDs() {
		if ci := k.lockCoffer(th.Clk, id); ci != nil {
			k.unmapLocked(ci, ps)
			ci.mu.Unlock(th.Clk)
		} else {
			ps.forgetKey(id)
		}
	}
	ps.revoked(allCoffers)
	th.Proc.SetIdentity(uid, gid)
	return nil
}

// ---- lookup ----------------------------------------------------------------

// LookupPath finds a coffer by exact path. The path table is readable from
// user space (mapped read-only like root pages), so no syscall is charged —
// only the hash probe. Lock-free: the probe never blocks behind a concurrent
// create/delete/rename.
func (k *KernFS) LookupPath(clk *simclock.Clock, path string) (coffer.ID, bool) {
	return k.paths.lookup(clk, path)
}

// ResolveLongest implements ZoFS's backwards path parse (§6.2): starting
// from the longest prefix of path, probe each prefix until a coffer root is
// found. Returns the coffer and the prefix that matched. Deep paths charge
// proportionally more — the ZoFS-20dirwidth effect. Lock-free like
// LookupPath.
//
// One op resolves nested paths several times (the dispatcher routes by the
// full path, the µFS then walks it or its parent), so the thread's last
// answer rides on its clock and serves those repeats for one component
// compare instead of a probe per prefix. See resolveMemo for the rule.
func (k *KernFS) ResolveLongest(clk *simclock.Clock, path string) (coffer.ID, string, bool) {
	var memo *resolveMemo
	var seq uint64
	if clk != nil {
		seq = k.paths.seq.Load()
		memo, _ = clk.PathMemo().(*resolveMemo)
		if memo.answers(k.paths, seq, path) {
			clk.Advance(perfmodel.CPUPathComponent)
			return memo.id, memo.prefix, true
		}
	}
	p := path
	for {
		if id, ok := k.paths.lookup(clk, p); ok {
			// Only an answer read from an unchanged, even seq describes one
			// table state; a resolve that raced a writer is served but not kept.
			if clk != nil && seq%2 == 0 && k.paths.seq.Load() == seq {
				if memo == nil {
					memo = new(resolveMemo)
					clk.SetPathMemo(memo)
				}
				*memo = resolveMemo{tab: k.paths, seq: seq, path: path, prefix: p, id: id}
			}
			return id, p, true
		}
		if clk != nil {
			clk.Advance(perfmodel.CPUPathComponent)
		}
		if p == "/" {
			return 0, "", false
		}
		i := strings.LastIndexByte(p, '/')
		if i <= 0 {
			p = "/"
		} else {
			p = p[:i]
		}
	}
}

// resolveMemo is a thread's last successful ResolveLongest: path resolved to
// coffer id at prefix, in table tab at sequence seq. It answers a later call
// when nothing can have changed and the answer is implied:
//
//   - same table (a remount builds a new one whose seq may well be equal) and
//     the same even seq — every insert, remove and rename bumps it, whichever
//     thread or process made it;
//   - prefix ⊑ asked ⊑ path, component-wise. A coffer root on asked's chain
//     longer than prefix would lie on path's chain too and would have been
//     found first, so asked's longest root is prefix.
//
// It is a per-thread value on a single-owner clock: no lock, no sharing, and
// reused in place, so steady state allocates nothing.
type resolveMemo struct {
	tab    *pathTable
	seq    uint64
	path   string
	prefix string
	id     coffer.ID
}

func (m *resolveMemo) answers(tab *pathTable, seq uint64, asked string) bool {
	return m != nil && m.tab == tab && m.seq == seq &&
		pathWithin(m.prefix, asked) && pathWithin(asked, m.path)
}

// pathBelow reports whether cleaned absolute path p lies strictly under dir.
func pathBelow(dir, p string) bool { return len(p) > len(dir) && pathWithin(dir, p) }

// pathWithin reports whether cleaned absolute path p is dir or lies under it.
func pathWithin(dir, p string) bool {
	if !strings.HasPrefix(p, dir) {
		return false
	}
	return len(p) == len(dir) || dir == "/" || p[len(dir)] == '/'
}

// Info returns a copy of a coffer's root-page metadata. Lock-free: the
// registry slot and the published root-page snapshot are atomic loads.
func (k *KernFS) Info(id coffer.ID) (coffer.RootPage, bool) {
	ci, ok := k.cofferLoad(id)
	if !ok {
		return coffer.RootPage{}, false
	}
	return ci.snap.load(), true
}

// MayAlter is the owner rule of the coffer calls: only root or a coffer's
// owner deletes, renames, splits, re-permissions, re-types or quarantines it.
// Like MayMerge it reads only its arguments, so a µFS asks it of Info before
// its first store, and the call refuses through it under the coffer lock.
func MayAlter(rp coffer.RootPage, uid uint32) bool { return uid == 0 || uid == rp.UID }

// MayMerge is the owner rule's two-coffer form: coffer_merge alters both.
func MayMerge(a, b coffer.RootPage, uid uint32) bool { return MayAlter(a, uid) && MayAlter(b, uid) }

// lockToAlter locks coffer id for a call that changes it, or refuses the
// caller through MayAlter; the caller unlocks.
func (k *KernFS) lockToAlter(th *proc.Thread, id coffer.ID) (*cofferInfo, error) {
	ci := k.lockCoffer(th.Clk, id)
	switch {
	case ci == nil:
		return nil, ErrNotFound
	case !MayAlter(ci.rp, th.Proc.UID()):
		ci.mu.Unlock(th.Clk)
		return nil, ErrPerm
	}
	return ci, nil
}

// Coffers returns a snapshot of all coffer IDs in ascending order (fsck,
// tooling).
func (k *KernFS) Coffers() []coffer.ID {
	var out []coffer.ID
	k.coffers.each(func(id coffer.ID, _ *cofferInfo) { out = append(out, id) })
	return out
}

// ExtentsOf returns the pages owned by a coffer (kernel view). Works for
// coffer.KernelID too — the kernel's own metadata pages have no registry
// entry but do have an owner set.
func (k *KernFS) ExtentsOf(id coffer.ID) []coffer.Extent {
	if ci := k.lockCoffer(nil, id); ci != nil {
		defer ci.mu.Unlock(nil)
	}
	return k.space.extentsOf(id)
}

// ---- coffer_new / coffer_delete -------------------------------------------

// CofferNew creates a coffer under the given parent coffer (Table 5:
// coffer_new). The caller must have write access to the parent. npages
// pages are allocated (minimum 3 for a ZoFS coffer: root page, root-file
// inode page, custom page). Returns the new coffer's ID.
//
// The coffer body is staged entirely outside the locks — the pages are
// invisible until the registry publish — so creates do not serialize with
// each other or with enlarges beyond the short registry section.
func (k *KernFS) CofferNew(th *proc.Thread, parent coffer.ID, path string, typ coffer.Type, mode coffer.Mode, uid, gid uint32, npages int64) (coffer.ID, error) {
	defer kcall(th, "coffer_new")()
	th.Syscall()
	k.rec().Inc(telemetry.CtrKernCofferNew)
	if npages < 3 {
		npages = 3
	}
	if !strings.HasPrefix(path, "/") {
		return 0, fmt.Errorf("%w: coffer path must be absolute", ErrInvalid)
	}
	pci, ok := k.cofferLoad(parent)
	if !ok {
		return 0, ErrNotFound
	}
	prp := pci.snap.load()
	if !coffer.Access(prp.Mode, prp.UID, prp.GID, th.Proc.UID(), th.Proc.GID(), true) {
		return 0, ErrPerm
	}
	if _, dup := k.paths.lookup(nil, path); dup {
		return 0, ErrExists
	}

	// Stage: take pages, tag them, scrub the metadata pages that may hold
	// old bytes, write the root page. No lock is held; the ID is not yet
	// discoverable.
	var one, dirty [1]coffer.Extent
	exts, dirtied, err := k.space.takeFree(th.Clk, uint64(parent)^uint64(th.TID)<<32, npages, one[:0], dirty[:0])
	if err != nil {
		return 0, err
	}
	pages := headPages(exts)
	id := coffer.ID(pages[0])
	own := k.space.ownerSet(id)
	for _, e := range exts {
		k.space.writeRun(th.Clk, e.Start, e.Count, id)
		own.Add(e.Start, e.Count)
	}
	k.space.uninflight(exts)
	rp := coffer.RootPage{
		ID: id, Type: typ, Mode: mode, UID: uid, GID: gid,
		RootInode: pages[1], Custom: pages[2], Path: path,
	}
	k.writeRootPage(th.Clk, pages[0], &rp, dirtied)
	scrubHead(k.dev, th.Clk, pages, dirtied)

	// Publish: path entry and registry record become visible together.
	k.regMu.Lock(th.Clk)
	e, err := k.paths.insert(th.Clk, path, id)
	if err != nil {
		k.regMu.Unlock(th.Clk)
		k.space.releaseAll(th.Clk, id, false) // roll back the staged allocation
		return 0, err
	}
	k.coffers.store(id, k.newCofferInfo(rp, e))
	k.regMu.Unlock(th.Clk)
	return id, nil
}

// CofferDelete removes a coffer and frees all its pages (Table 5:
// coffer_delete); MayAlter says who. Every process's
// mapping is revoked first — the same eviction discipline BeginRecover
// uses — so a deleted coffer can never stay readable through stale page
// tables; a straggler faults on its next access and re-resolves the path.
// The teardown runs under the coffer lock and ends with the coffer marked
// dead; the registry lock then covers only the path removal and clearing the
// slot; the pages go back last, once the ID — the root page's number — can
// no longer resolve.
//
// Contract for every call that names a coffer by bare ID: an ID is the
// coffer's root page number, so once a coffer is deleted the same ID can name
// an unrelated coffer that was granted the page, and nothing in an ID tells
// the kernel which of the two the caller resolved. The caller therefore
// serializes resolve→use per path against that path's delete — ZoFS holds the
// parent directory's bucket lease from the lookup of the coffer's dentry to
// the kernel call — and the kernel checks only that the ID is live.
func (k *KernFS) CofferDelete(th *proc.Thread, id coffer.ID) error {
	defer kcall(th, "coffer_delete")()
	th.Syscall()
	k.rec().Inc(telemetry.CtrKernCofferDelete)
	ci, err := k.lockToAlter(th, id)
	if err != nil {
		return err
	}
	if id == k.rootCoffer {
		ci.mu.Unlock(th.Clk)
		return fmt.Errorf("%w: cannot delete root coffer", ErrInvalid)
	}
	ci.mappers.each(func(ps *procState) { k.revokeLocked(ci, ps) })
	if ci.rp.SplitFrom != 0 {
		// Before the path entry goes: Mount frees a deleted coffer's
		// pages, it does not give them back to the coffer it split from.
		ci.rp.SplitFrom = 0
		k.updateRootPage(th.Clk, &ci.rp, 0)
	}
	ci.dead = true
	ci.mu.Unlock(th.Clk)
	return k.unpublish(th, ci)
}

// unpublish removes a coffer that its teardown has marked dead: its path entry
// and registry slot under the registry lock, then its pages. The path is the
// one the coffer is published under now — a rename may have moved it after
// the teardown began. The root page is zero past the path it holds (only the
// kernel writes it, see updateRootPage), and ci.rp, which no one rewrites
// once the coffer is dead, holds that path: zeroing its header and path
// leaves the page reading zero, and it goes back flagged so.
func (k *KernFS) unpublish(th *proc.Thread, ci *cofferInfo) error {
	id := ci.rp.ID
	k.regMu.Lock(th.Clk)
	err := k.paths.remove(th.Clk, ci.snap.published())
	k.coffers.store(id, nil)
	delete(k.violations, id)
	k.regMu.Unlock(th.Clk)
	k.dev.ZeroClass(th.Clk, byteflow.ClassAlloc, int64(id)*nvm.PageSize, int64(coffer.RootPageLen(len(ci.rp.Path))))
	k.space.releaseAll(th.Clk, id, true)
	return err
}

// ---- coffer_enlarge / coffer_shrink ----------------------------------------

// enlargeHint mixes the target coffer with the calling thread so the shard
// fast path spreads hot-coffer enlarges across the pool.
func enlargeHint(id coffer.ID, tid int) uint64 {
	return uint64(id) ^ uint64(tid)<<32 ^ uint64(tid)
}

// CofferEnlarge allocates npages more pages to a mapped coffer (Table 5:
// coffer_enlarge) and maps them into every process that has the coffer
// mapped. When zero is set the kernel scrubs the pages before granting them
// (required for pages that will hold metadata parsed by other processes) —
// those that may hold old bytes: a page not granted since mkfs reads zero.
//
// This used to be the scaling cliff of Figures 7(d)/(g): scrub + table
// write + PTE charge all ran under one global kernel mutex. Now the charged
// work runs with no lock held — the staged pages are invisible until
// publication, so scrubbing them unlocked is race-free by construction —
// and the coffer lock covers only the volatile publish (owner set + page
// tables).
func (k *KernFS) CofferEnlarge(th *proc.Thread, id coffer.ID, npages int64, zero bool) ([]coffer.Extent, error) {
	defer kcall(th, "coffer_enlarge")()
	th.Syscall()
	k.rec().Inc(telemetry.CtrKernCofferEnlarge)
	k.rec().Add(telemetry.CtrKernEnlargePages, npages)
	ci, ok := k.cofferLoad(id)
	if !ok {
		return nil, ErrNotFound
	}
	// Fail fast before committing pages — lock-free, from the root-page
	// snapshot and the per-process table. Taking ci.mu here would defeat the
	// whole staging design: Lock drains the caller's clock to the previous
	// holder's release stamp, so a locked precheck stacks every thread's
	// (otherwise parallel) staging work end-to-end and the per-coffer lock
	// convoys exactly like kernfs.big did. The publish path re-checks under
	// the lock; this check only avoids staging work that is already doomed.
	rp := ci.snap.load()
	if rp.Flags&coffer.FlagOffline != 0 {
		return nil, ErrCofferOffline
	}
	if rp.Flags&coffer.FlagReadOnly != 0 {
		return nil, ErrCofferReadOnly
	}
	if ps := k.stateOf(th.Proc.PID); ps == nil || !ps.isWritable(id) {
		return nil, ErrNotMapped
	}

	// Stage: shard extraction, grant scrubbing and the table write, all
	// lock-free.
	var dirty [4]coffer.Extent
	exts, dirtied, err := k.space.takeFree(th.Clk, enlargeHint(id, th.TID), npages, nil, dirty[:0])
	if err != nil {
		return nil, err
	}
	if zero {
		// Grant scrubbing is allocator overhead in the byte-flow ledger.
		for _, e := range dirtied {
			k.dev.ZeroClass(th.Clk, byteflow.ClassAlloc, e.Start*nvm.PageSize, e.Count*nvm.PageSize)
		}
	}
	for _, e := range exts {
		k.space.writeRun(th.Clk, e.Start, e.Count, id)
	}
	th.CPU(perfmodel.PTEUpdate * npages)

	// Publish under the coffer lock, re-validating the gate: the coffer may
	// have been deleted or quarantined while we staged.
	ci.mu.Lock(th.Clk)
	if err := ci.writeGate(th.Proc.PID); err != nil {
		ci.mu.Unlock(th.Clk)
		for _, e := range exts {
			k.space.writeRun(th.Clk, e.Start, e.Count, 0)
		}
		k.space.returnFree(th.Clk, exts)
		return nil, err
	}
	own := k.space.ownerSet(id)
	for _, e := range exts {
		own.Add(e.Start, e.Count)
	}
	for _, m := range ci.mappers.all {
		key, w := m.access(id)
		for _, e := range exts {
			m.p.Mem.Map(e.Start, e.Count, key, w)
		}
	}
	ci.mu.Unlock(th.Clk)
	k.space.uninflight(exts)
	return exts, nil
}

// MovePages retags specific pages from coffer src to coffer dst (used by
// cross-coffer renames). Both coffers must be write-mapped by the caller and
// of the same permission class; each page is retagged individually — as
// expensive per page as coffer_split (Table 9).
// Locks both coffers in ascending ID order.
func (k *KernFS) MovePages(th *proc.Thread, src, dst coffer.ID, pages []int64) error {
	defer kcall(th, "move_pages")()
	th.Syscall()
	k.rec().Inc(telemetry.CtrKernMovePages)
	si, di, err := k.lockPair(th.Clk, src, dst)
	if err != nil {
		return err
	}
	defer k.unlockPair(th.Clk, si, di)
	ps := k.stateOf(th.Proc.PID)
	if ps == nil {
		return ErrNotMapped
	}
	if _, sw := ps.access(src); !sw {
		return ErrNotMapped
	}
	if _, dw := ps.access(dst); !dw {
		return ErrNotMapped
	}
	if si.rp.Class() != di.rp.Class() {
		return fmt.Errorf("%w: move requires one permission class", ErrInvalid)
	}
	for _, pg := range pages {
		if pg == int64(src) {
			return fmt.Errorf("%w: cannot move the root page", ErrInvalid)
		}
		if err := k.movePage(th, pg, src, dst, si.mappers.all, di.mappers.all); err != nil {
			return err
		}
	}
	return nil
}

// movePage is the one per-page step of every page move (move_pages,
// coffer_split and its rollback, coffer_merge): it retags page pg from
// coffer src to dst, unmaps it from the processes in unmap, maps it into
// those in mapIn under their keys for dst, and charges the per-page cost.
// Either process set may be nil. The caller holds the coffer locks.
func (k *KernFS) movePage(th *proc.Thread, pg int64, src, dst coffer.ID, unmap, mapIn []*procState) error {
	if err := k.space.retag(th.Clk, src, dst, pg, 1); err != nil {
		return err
	}
	for _, m := range unmap {
		m.p.Mem.Unmap(pg, 1)
	}
	for _, m := range mapIn {
		key, w := m.access(dst)
		m.p.Mem.Map(pg, 1, key, w)
	}
	th.CPU(perfmodel.CPUSmallOp)
	return nil
}

// lockPair locks two distinct coffers in ascending ID order (the in-class
// ordering rule for kernfs.coffer locks).
func (k *KernFS) lockPair(clk *simclock.Clock, a, b coffer.ID) (ai, bi *cofferInfo, err error) {
	if a == b {
		return nil, nil, fmt.Errorf("%w: identical coffers", ErrInvalid)
	}
	first, second := a, b
	if second < first {
		first, second = second, first
	}
	fi := k.lockCoffer(clk, first)
	if fi == nil {
		return nil, nil, ErrNotFound
	}
	sei := k.lockCoffer(clk, second)
	if sei == nil {
		fi.mu.Unlock(clk)
		return nil, nil, ErrNotFound
	}
	if a == first {
		return fi, sei, nil
	}
	return sei, fi, nil
}

func (k *KernFS) unlockPair(clk *simclock.Clock, ai, bi *cofferInfo) {
	ai.mu.Unlock(clk)
	bi.mu.Unlock(clk)
}

// CofferShrink returns free pages from a coffer to the global pool
// (Table 5: coffer_shrink).
func (k *KernFS) CofferShrink(th *proc.Thread, id coffer.ID, exts []coffer.Extent) error {
	defer kcall(th, "coffer_shrink")()
	th.Syscall()
	k.rec().Inc(telemetry.CtrKernCofferShrink)
	ci := k.lockCoffer(th.Clk, id)
	if ci == nil {
		return ErrNotFound
	}
	defer ci.mu.Unlock(th.Clk)
	if err := ci.writeGate(th.Proc.PID); err != nil {
		return err
	}
	for _, e := range exts {
		if root := int64(id); root >= e.Start && root < e.End() {
			return fmt.Errorf("%w: cannot shrink away the root page", ErrInvalid)
		}
		if err := k.space.release(th.Clk, id, e.Start, e.Count); err != nil {
			return err
		}
		for _, m := range ci.mappers.all {
			m.p.Mem.Unmap(e.Start, e.Count)
		}
	}
	return nil
}

// ---- coffer_map / coffer_unmap ---------------------------------------------

// MapInfo is returned by CofferMap: everything a µFS needs to manage the
// coffer from user space.
type MapInfo struct {
	Key      mpk.Key
	Writable bool
	Root     coffer.RootPage
}

// CofferMap checks permissions and maps all of a coffer's pages into the
// calling process (Table 5: coffer_map; §3.1). The root page is always
// mapped read-only. Returns ErrNoMPKRegions when the process has exhausted
// the 15 available protection keys (§3.4.2).
func (k *KernFS) CofferMap(th *proc.Thread, id coffer.ID, write bool) (MapInfo, error) {
	defer kcall(th, "coffer_map")()
	th.Syscall()
	k.rec().Inc(telemetry.CtrKernCofferMap)
	ci := k.lockCoffer(th.Clk, id)
	if ci == nil {
		return MapInfo{}, ErrNotFound
	}
	if ci.rp.Flags&coffer.FlagInRecovery != 0 {
		ci.mu.Unlock(th.Clk)
		return MapInfo{}, ErrInRecovery
	}
	if ci.rp.Flags&coffer.FlagOffline != 0 {
		ci.mu.Unlock(th.Clk)
		return MapInfo{}, ErrCofferOffline
	}
	if write && ci.rp.Flags&coffer.FlagReadOnly != 0 {
		ci.mu.Unlock(th.Clk)
		return MapInfo{}, ErrCofferReadOnly
	}
	ps := k.stateOf(th.Proc.PID)
	if ps == nil {
		ci.mu.Unlock(th.Clk)
		return MapInfo{}, fmt.Errorf("%w: fs_mount first", ErrInvalid)
	}
	if !coffer.Access(ci.rp.Mode, ci.rp.UID, ci.rp.GID, th.Proc.UID(), th.Proc.GID(), write) {
		ci.mu.Unlock(th.Clk)
		return MapInfo{}, ErrPerm
	}

	ps.mu.Lock()
	if key, have := ps.keys[id]; have {
		// Upgrade to writable if requested and permitted.
		upgrade := write && !ps.writable[id]
		if upgrade {
			ps.writable[id] = true
		}
		w := ps.writable[id]
		ps.mu.Unlock()
		if upgrade {
			k.mapPagesLocked(ps, ci, key, true)
		}
		info := MapInfo{Key: key, Writable: w, Root: ci.rp}
		ci.mu.Unlock(th.Clk)
		return info, nil
	}
	key, ok := ps.allocKeyLocked()
	if !ok {
		ps.mu.Unlock()
		ci.mu.Unlock(th.Clk)
		return MapInfo{}, ErrNoMPKRegions
	}
	ps.keys[id] = key
	ps.writable[id] = write
	ps.mu.Unlock()
	ci.mappers.add(ps)
	k.mapPagesLocked(ps, ci, key, write)
	npg := k.space.pagesOf(id)
	info := MapInfo{Key: key, Writable: write, Root: ci.rp}
	ci.mu.Unlock(th.Clk)
	th.CPU(perfmodel.CPUSmallOp * npg / 32) // page-table setup
	return info, nil
}

// mapPagesLocked installs a coffer's pages in one process's address space.
// The root page is read-only regardless of the requested access. Caller
// holds ci.mu.
func (k *KernFS) mapPagesLocked(ps *procState, ci *cofferInfo, key mpk.Key, write bool) {
	if own := k.space.peekOwner(ci.rp.ID); own != nil {
		own.Each(func(start, count int64) { ps.p.Mem.Map(start, count, key, write) })
	}
	ps.p.Mem.Map(int64(ci.rp.ID), 1, key, false)
}

// allocKeyLocked grabs a free MPK key; the caller holds ps.mu.
func (ps *procState) allocKeyLocked() (mpk.Key, bool) {
	for key := mpk.Key(1); key < mpk.NumKeys; key++ {
		if ps.usedKeys&(1<<key) == 0 {
			ps.usedKeys |= 1 << key
			return key, true
		}
	}
	return 0, false
}

// CofferUnmap removes a coffer from the calling process (Table 5:
// coffer_unmap), releasing its MPK region.
func (k *KernFS) CofferUnmap(th *proc.Thread, id coffer.ID) error {
	defer kcall(th, "coffer_unmap")()
	th.Syscall()
	k.rec().Inc(telemetry.CtrKernCofferUnmap)
	ps := k.stateOf(th.Proc.PID)
	if ps == nil {
		return ErrInvalid
	}
	if !ps.hasKey(id) {
		return ErrNotMapped
	}
	ci := k.lockCoffer(th.Clk, id)
	if ci == nil {
		ps.forgetKey(id)
		return nil
	}
	k.unmapLocked(ci, ps)
	ci.mu.Unlock(th.Clk)
	return nil
}

// unmapLocked tears one process's mapping of a coffer down; caller holds
// ci.mu.
func (k *KernFS) unmapLocked(ci *cofferInfo, ps *procState) {
	id := ci.rp.ID
	if own := k.space.peekOwner(id); own != nil {
		own.Each(ps.p.Mem.Unmap)
	}
	ps.forgetKey(id)
	ci.mappers.remove(ps.p.PID)
}

// revokeLocked is unmapLocked for kernel-initiated evictions: the process
// did not ask for this, so the coffer is logged and the revocation generation
// bumped to tell the µFS that mount is stale.
func (k *KernFS) revokeLocked(ci *cofferInfo, ps *procState) {
	k.unmapLocked(ci, ps)
	ps.revoked(ci.rp.ID)
}

// RevocationGen returns the process's revocation generation. This is not a
// system call: it models a load from a kernel-maintained, user-readable
// shared page (vDSO-style), which is why it takes no clock and charges no
// syscall cost.
func (k *KernFS) RevocationGen(pid int) uint64 {
	ps := k.stateOf(pid)
	if ps == nil {
		return 0
	}
	return ps.revGen.Load()
}

// Revoked calls drop for each coffer the kernel revoked or downgraded in the
// process after revocation generation since, and returns the generation that
// brings the caller up to. whole is false when the log no longer says — more
// than revLogLen revocations since, or a setuid — and the caller must treat
// every mapping as revoked. Like RevocationGen it models reading the shared
// page: no system call.
func (k *KernFS) Revoked(pid int, since uint64, drop func(coffer.ID)) (gen uint64, whole bool) {
	ps := k.stateOf(pid)
	if ps == nil {
		return 0, false
	}
	ps.mu.Lock()
	defer ps.mu.Unlock()
	gen = ps.revGen.Load()
	if gen-since > revLogLen {
		return gen, false
	}
	for g := since + 1; g <= gen; g++ {
		id := ps.revLog[g%revLogLen]
		if id == allCoffers {
			return gen, false
		}
		drop(id)
	}
	return gen, true
}

// MappedCoffers returns the coffers currently mapped by a process.
func (k *KernFS) MappedCoffers(pid int) []coffer.ID {
	ps := k.stateOf(pid)
	if ps == nil {
		return nil
	}
	return ps.mappedIDs()
}

// ---- metadata updates -------------------------------------------------------

// SetCofferMeta updates a coffer's permission/ownership in place (the cheap
// chmod path, used when the whole coffer changes permission); MayAlter says who.
func (k *KernFS) SetCofferMeta(th *proc.Thread, id coffer.ID, mode coffer.Mode, uid, gid uint32) error {
	defer kcall(th, "set_coffer_meta")()
	th.Syscall()
	ci, err := k.lockToAlter(th, id)
	if err != nil {
		return err
	}
	defer ci.mu.Unlock(th.Clk)
	ci.rp.Mode, ci.rp.UID, ci.rp.GID = mode, uid, gid
	ci.publishRP()
	k.updateRootPage(th.Clk, &ci.rp, 0)
	return nil
}

// SetCofferType rewrites a coffer's µFS type (MayAlter says who; used by
// formatting tools that re-dedicate a coffer to a different µFS — the
// interior must be re-initialized by the new µFS).
func (k *KernFS) SetCofferType(th *proc.Thread, id coffer.ID, typ coffer.Type, mode coffer.Mode) error {
	defer kcall(th, "set_coffer_type")()
	th.Syscall()
	ci, err := k.lockToAlter(th, id)
	if err != nil {
		return err
	}
	defer ci.mu.Unlock(th.Clk)
	ci.rp.Type = typ
	ci.rp.Mode = mode
	ci.publishRP()
	k.updateRootPage(th.Clk, &ci.rp, 0)
	return nil
}

// RenameCoffer changes a coffer's path and rewrites the paths of every
// descendant coffer — the expensive prefix rewrite behind cross-coffer
// renames (Table 9).
func (k *KernFS) RenameCoffer(th *proc.Thread, oldPath, newPath string) error {
	defer kcall(th, "rename_coffer")()
	th.Syscall()
	return k.renameTree(th, oldPath, newPath, true)
}

// RenamePrefix rewrites the paths of every coffer at or under oldPath,
// without requiring oldPath itself to be a coffer. µFSs call this when a
// plain in-coffer directory is renamed, so that descendant coffers keep
// consistent paths. A no-op when no coffer matches — detected lock-free
// against the path mirror, so the common case (renaming a directory with
// no descendant coffers) costs one scan of it and takes no lock at all.
func (k *KernFS) RenamePrefix(th *proc.Thread, oldPath, newPath string) error {
	defer kcall(th, "rename_prefix")()
	th.Syscall()
	if id, ok := k.paths.lookup(th.Clk, oldPath); !ok || id == 0 {
		hit := false
		k.paths.each(func(p string, _ coffer.ID) bool {
			hit = pathBelow(oldPath, p)
			return !hit
		})
		if !hit {
			return nil
		}
	}
	return k.renameTree(th, oldPath, newPath, false)
}

// renameOp moves one coffer's path.
type renameOp struct {
	ci       *cofferInfo
	from, to string
}

// renameTree moves the path of oldPath's coffer (if any) and of every coffer
// under it. The path entries move under the registry lock, and each coffer's
// published path with them; the root pages follow after it, each under its
// coffer's lock (ascending ID order), and each takes the path its coffer is
// published under by then, so racing renames leave the last one's. A coffer
// that a delete or merge has marked dead meanwhile counts as already gone.
func (k *KernFS) renameTree(th *proc.Thread, oldPath, newPath string, exact bool) error {
	var one [1]renameOp // the usual rename moves a coffer with none below it
	k.regMu.Lock(th.Clk)
	ops, err := k.movePaths(th, oldPath, newPath, exact, one[:0])
	k.regMu.Unlock(th.Clk)
	for _, op := range ops {
		ci := op.ci
		ci.mu.Lock(th.Clk)
		if p := ci.snap.published(); !ci.dead && p != ci.rp.Path {
			old := len(ci.rp.Path)
			ci.rp.Path = p
			ci.publishRP()
			k.updateRootPage(th.Clk, &ci.rp, old)
		}
		ci.mu.Unlock(th.Clk)
		th.CPU(perfmodel.CPUSmallOp)
	}
	return err
}

// movePaths is renameTree's registry section: it checks the rename, re-keys
// the path entries and publishes the new paths, and returns the coffers moved
// (all of them but after an error). Caller holds regMu, which keeps the coffer
// set stable.
func (k *KernFS) movePaths(th *proc.Thread, oldPath, newPath string, exact bool, ops []renameOp) ([]renameOp, error) {
	if id, ok := k.paths.lookup(th.Clk, oldPath); ok {
		ci, _ := k.cofferLoad(id)
		if ci == nil {
			return nil, ErrNotFound
		}
		if !MayAlter(ci.snap.load(), th.Proc.UID()) {
			return nil, ErrPerm
		}
		ops = append(ops, renameOp{ci, oldPath, newPath})
	} else if exact {
		return nil, ErrNotFound
	}
	if _, dup := k.paths.lookup(th.Clk, newPath); dup {
		return nil, ErrExists
	}
	k.paths.each(func(p string, cid coffer.ID) bool {
		if ci, _ := k.cofferLoad(cid); ci != nil && pathBelow(oldPath, p) {
			ops = append(ops, renameOp{ci, p, newPath + "/" + strings.TrimPrefix(p[len(oldPath):], "/")})
		}
		return true
	})
	slices.SortFunc(ops, func(a, b renameOp) int { return cmp.Compare(a.ci.rp.ID, b.ci.rp.ID) })
	for i, op := range ops {
		e, err := k.paths.rename(th.Clk, op.from, op.to, op.ci.rp.ID)
		if err != nil {
			return ops[:i], err
		}
		op.ci.snap.rename(e)
	}
	return ops, nil
}

// ---- coffer_split / coffer_merge --------------------------------------------

// CofferSplit carves a new coffer with a different permission out of an
// existing one (Table 5: coffer_split), moving the given pages to it.
// Every moved page is retagged individually in the allocation table —
// "the split procedure will change the coffer of all file pages, which
// takes a long time" (Table 9). rootInode/custom are the new coffer's entry
// points (chosen by the µFS from among the moved pages).
//
// The new coffer is staged like coffer_new's, under the old coffer's lock:
// its root page is taken and written first, naming the old coffer in
// SplitFrom, so that Mount gives the pages back if a crash cuts the split
// before it publishes; then the pages are retagged. Only the publish — path
// entry and registry slot — runs under the registry lock. A publish that
// loses the path to a racing create or split rolls the split back (unsplit).
func (k *KernFS) CofferSplit(th *proc.Thread, old coffer.ID, newPath string, mode coffer.Mode, uid, gid uint32, pages []int64, rootInode, custom int64) (coffer.ID, error) {
	defer kcall(th, "coffer_split")()
	th.Syscall()
	k.rec().Inc(telemetry.CtrKernCofferSplit)
	ci, err := k.lockToAlter(th, old)
	if err != nil {
		return 0, err
	}
	if _, dup := k.paths.lookup(th.Clk, newPath); dup {
		ci.mu.Unlock(th.Clk)
		return 0, ErrExists
	}
	// New root page, written below: nothing to scrub.
	var one, dirty [1]coffer.Extent
	exts, dirtied, err := k.space.takeFree(th.Clk, enlargeHint(old, th.TID), 1, one[:0], dirty[:0])
	if err != nil {
		ci.mu.Unlock(th.Clk)
		return 0, err
	}
	rootPg := exts[0].Start
	id := coffer.ID(rootPg)
	k.space.writeRun(th.Clk, rootPg, 1, id)
	k.space.ownerSet(id).Add(rootPg, 1)
	k.space.uninflight(exts)
	rp := coffer.RootPage{
		ID: id, Type: ci.rp.Type, Mode: mode, UID: uid, GID: gid,
		RootInode: rootInode, Custom: custom, SplitFrom: old, Path: newPath,
	}
	k.writeRootPage(th.Clk, rootPg, &rp, dirtied)

	// Move pages one at a time (the expensive part), unmapping each from
	// every process mapping the old coffer: they now belong to a coffer with
	// a different permission.
	moved := 0
	for _, pg := range pages {
		if err = k.movePage(th, pg, old, id, ci.mappers.all, nil); err != nil {
			break
		}
		moved++
	}
	ci.mu.Unlock(th.Clk)
	if err != nil {
		k.unsplit(th, ci, id, pages[:moved])
		return 0, err
	}

	k.regMu.Lock(th.Clk)
	var e *pathEnt
	if e, err = k.paths.insert(th.Clk, newPath, id); err == nil {
		k.coffers.store(id, k.newCofferInfo(rp, e))
	}
	k.regMu.Unlock(th.Clk)
	if err != nil {
		k.unsplit(th, ci, id, pages)
		return 0, err
	}
	return id, nil
}

// unsplit rolls back a split that never published coffer id: the moved pages
// go back to the old coffer, mapped as its mappers map it now, and id's root
// page is freed. If the old coffer has died meanwhile, its pages went with it
// and the moved ones follow.
func (k *KernFS) unsplit(th *proc.Thread, ci *cofferInfo, id coffer.ID, moved []int64) {
	ci.mu.Lock(th.Clk)
	if !ci.dead {
		for _, pg := range moved {
			_ = k.movePage(th, pg, id, ci.rp.ID, nil, ci.mappers.all) // a page that will not retag is skipped
		}
	}
	ci.mu.Unlock(th.Clk)
	k.space.releaseAll(th.Clk, id, false)
}

// CofferMerge folds coffer src into coffer dst (Table 5: coffer_merge).
// Both must be of the same permission class; src's pages are retagged one by
// one, its root inode page first, with both coffers locked in ascending ID
// order, and src, marked dead, is then unpublished and its root page freed. A
// crash after the first retag leaves src published with its root inode page
// in dst, which Mount reads as a cut merge and finishes.
func (k *KernFS) CofferMerge(th *proc.Thread, dst, src coffer.ID) error {
	defer kcall(th, "coffer_merge")()
	th.Syscall()
	k.rec().Inc(telemetry.CtrKernCofferMerge)
	si, di, err := k.lockPair(th.Clk, src, dst)
	if err != nil {
		if errors.Is(err, ErrInvalid) {
			return ErrNotFound
		}
		return err
	}
	if err = k.foldLocked(th, si, di); err == nil {
		si.dead = true
	}
	k.unlockPair(th.Clk, si, di)
	if err != nil {
		return err
	}
	return k.unpublish(th, si)
}

// foldLocked is coffer_merge's work under both coffer locks: the checks
// (MayMerge, the same permission class), the retagging of every page of si
// but its root page to di, and si's unmapping.
func (k *KernFS) foldLocked(th *proc.Thread, si, di *cofferInfo) error {
	src, dst := si.rp.ID, di.rp.ID
	if !MayMerge(di.rp, si.rp, th.Proc.UID()) {
		return ErrPerm
	}
	if di.rp.Class() != si.rp.Class() {
		return fmt.Errorf("%w: merge requires one permission class", ErrInvalid)
	}
	for _, ps := range si.mappers.all {
		if di.mappers.get(ps.p.PID) == nil {
			return ErrBusy
		}
	}
	// The root inode page moves first: from then on, Mount finishes a merge
	// that a crash cuts (a coffer belongs where its root inode page is).
	if err := k.movePage(th, si.rp.RootInode, src, dst, nil, di.mappers.all); err != nil {
		return err
	}
	// Retagging takes pages out of the set being walked, so the walk re-finds
	// its place after every extent; all that stays behind is the root page.
	srcRoot, own := int64(src), k.space.ownerSet(src)
	for e, ok := own.Next(0); ok; e, ok = own.Next(e.End()) {
		for pg := e.Start; pg < e.End(); pg++ {
			if pg == srcRoot {
				continue
			}
			// Remap under dst's key for every dst mapper; si's mappers
			// are unmapped whole below.
			if err := k.movePage(th, pg, src, dst, nil, di.mappers.all); err != nil {
				return err
			}
		}
	}
	si.mappers.each(func(m *procState) { k.unmapLocked(si, m) })
	return nil
}

// ---- coffer_recover ----------------------------------------------------------

// BeginRecover marks a coffer in-recovery with a lease and unmaps it from
// every process except the initiator (Table 5: coffer_recover; §3.5).
// Returns the coffer's extents for the initiator's scan.
func (k *KernFS) BeginRecover(th *proc.Thread, id coffer.ID, leaseNS uint64) ([]coffer.Extent, error) {
	defer kcall(th, "begin_recover")()
	th.Syscall()
	k.rec().Inc(telemetry.CtrKernRecoveries)
	ci := k.lockCoffer(th.Clk, id)
	if ci == nil {
		return nil, ErrNotFound
	}
	defer ci.mu.Unlock(th.Clk)
	if !coffer.Access(ci.rp.Mode, ci.rp.UID, ci.rp.GID, th.Proc.UID(), th.Proc.GID(), true) {
		return nil, ErrPerm
	}
	ci.rp.Flags |= coffer.FlagInRecovery
	ci.rp.Lease = uint64(th.Clk.Now()) + leaseNS
	ci.publishRP()
	k.updateRootPage(th.Clk, &ci.rp, 0)
	ci.mappers.each(func(ps *procState) {
		if ps.p.PID != th.Proc.PID {
			k.revokeLocked(ci, ps)
		}
	})
	return k.space.extentsOf(id), nil
}

// EndRecover completes recovery: pages owned by the coffer but absent from
// inUse are reclaimed, and the in-recovery flag cleared (§3.5: "sends the
// addresses of in-use pages to KernFS, who will compare them to pages
// allocated to the coffer and reclaim pages that are not used").
func (k *KernFS) EndRecover(th *proc.Thread, id coffer.ID, inUse []int64) error {
	defer kcall(th, "end_recover")()
	th.Syscall()
	ci := k.lockCoffer(th.Clk, id)
	if ci == nil {
		return ErrNotFound
	}
	defer ci.mu.Unlock(th.Clk)
	if ci.rp.Flags&coffer.FlagInRecovery == 0 {
		return fmt.Errorf("%w: coffer not in recovery", ErrInvalid)
	}
	used := make(map[int64]bool, len(inUse)+1)
	used[int64(id)] = true // root page always lives
	for _, pg := range inUse {
		used[pg] = true
	}
	// "compare them to pages allocated to the coffer and reclaim pages that
	// are not used" (§3.5): the kernel walks every owned page — the bulk of
	// the paper's kernel-side recovery time.
	var reclaim []int64
	for _, e := range k.space.extentsOf(id) {
		for pg := e.Start; pg < e.End(); pg++ {
			th.CPU(perfmodel.CPUSmallOp)
			if !used[pg] {
				reclaim = append(reclaim, pg)
			}
		}
	}
	for _, pg := range reclaim {
		if err := k.space.release(th.Clk, id, pg, 1); err != nil {
			return err
		}
		for _, m := range ci.mappers.all {
			m.p.Mem.Unmap(pg, 1)
		}
		th.CPU(perfmodel.CPUSmallOp)
	}
	ci.rp.Flags &^= coffer.FlagInRecovery
	ci.rp.Lease = 0
	ci.publishRP()
	k.updateRootPage(th.Clk, &ci.rp, 0)
	return nil
}

// ---- quarantine (DESIGN.md §13) ---------------------------------------------

// QuarantineCoffer fences one coffer: read-only (offline=false) keeps read
// mappings alive but downgrades every write mapping and refuses new write
// maps/enlarges/shrinks; offline (offline=true) unmaps the coffer from every
// process and refuses all maps. The flag is persisted in the root page so the
// quarantine survives reboot; every other coffer is untouched — the paper's
// fault-containment claim (§3.1) made operational. MayAlter says who.
func (k *KernFS) QuarantineCoffer(th *proc.Thread, id coffer.ID, offline bool) error {
	defer kcall(th, "quarantine_coffer")()
	th.Syscall()
	ci, err := k.lockToAlter(th, id)
	if err != nil {
		return err
	}
	defer ci.mu.Unlock(th.Clk)
	k.quarantineLocked(th, ci, offline)
	return nil
}

// quarantineLocked applies the quarantine under ci.mu: flag + root page
// write, then mapper downgrade (read-only) or eviction (offline).
func (k *KernFS) quarantineLocked(th *proc.Thread, ci *cofferInfo, offline bool) {
	k.rec().Inc(telemetry.CtrKernQuarantines)
	if offline {
		ci.rp.Flags |= coffer.FlagOffline
	} else {
		ci.rp.Flags |= coffer.FlagReadOnly
	}
	ci.publishRP()
	k.updateRootPage(th.Clk, &ci.rp, 0)
	id := ci.rp.ID
	if offline {
		ci.mappers.each(func(ps *procState) { k.revokeLocked(ci, ps) })
		return
	}
	for _, ps := range ci.mappers.all {
		if ps.isWritable(id) {
			ps.mu.Lock()
			ps.writable[id] = false
			ps.mu.Unlock()
			key, _ := ps.access(id)
			k.mapPagesLocked(ps, ci, key, false)
			// The mapping survives but its write grant is gone — dropping
			// the mount on the µFS side turns the next write into a clean
			// typed error instead of an MPK fault.
			ps.revoked(id)
		}
	}
}

// ReportViolation records an MPK violation whose faulting address fell in
// the given coffer (fslibs' SIGSEGV-analogue handler reports these). After
// violationThreshold reports the kernel fences the coffer read-only — a
// byzantine client spraying stray writes at one coffer degrades that coffer,
// not the device. Reports on an already-quarantined coffer are counted but
// change nothing. Returns true when this report triggered the quarantine.
func (k *KernFS) ReportViolation(th *proc.Thread, id coffer.ID) (bool, error) {
	defer kcall(th, "report_violation")()
	th.Syscall()
	k.rec().Inc(telemetry.CtrKernViolationReports)
	k.regMu.Lock(th.Clk)
	defer k.regMu.Unlock(th.Clk)
	ci := k.lockCoffer(th.Clk, id)
	if ci == nil {
		return false, ErrNotFound
	}
	defer ci.mu.Unlock(th.Clk)
	k.violations[id]++
	if k.violations[id] < violationThreshold ||
		ci.rp.Flags&(coffer.FlagReadOnly|coffer.FlagOffline) != 0 {
		return false, nil
	}
	k.quarantineLocked(th, ci, false)
	return true, nil
}

// Violations reports the volatile violation tally for a coffer (tooling).
func (k *KernFS) Violations(id coffer.ID) int {
	k.regMu.Lock(nil)
	defer k.regMu.Unlock(nil)
	return k.violations[id]
}

// OwnerOf resolves a device page to the coffer owning it (the kernel's
// allocation-table view) — how the violation handler attributes a stray
// write's faulting address to a victim coffer. Returns false for free or
// kernel-owned pages. Reads the persistent table slot directly: the table
// is the authority and the read takes no lock.
func (k *KernFS) OwnerOf(page int64) (coffer.ID, bool) {
	if page < 0 || page >= k.space.npages {
		return 0, false
	}
	id := k.space.slotOwner(page)
	if id == 0 || id == coffer.KernelID {
		return 0, false
	}
	return id, true
}

// ---- file_mmap / file_execve ---------------------------------------------------

// FileMmap maps file data pages into the process as ordinary application
// memory (key 0), the Table 5 file_mmap operation: the µFS supplies the
// data locations, the kernel edits the page table.
func (k *KernFS) FileMmap(th *proc.Thread, id coffer.ID, pages []int64, writable bool) error {
	defer kcall(th, "file_mmap")()
	th.Syscall()
	ci := k.lockCoffer(th.Clk, id)
	if ci == nil {
		return ErrNotFound
	}
	defer ci.mu.Unlock(th.Clk)
	ps := ci.mappers.get(th.Proc.PID)
	if ps == nil {
		return ErrNotMapped
	}
	if writable && !ps.isWritable(id) {
		return ErrPerm
	}
	own := k.space.peekOwner(id)
	for _, pg := range pages {
		if own == nil || !own.Contains(pg, 1) {
			return fmt.Errorf("%w: page %d not in coffer %d", ErrInvalid, pg, id)
		}
		th.Proc.Mem.Map(pg, 1, 0, writable)
		th.CPU(perfmodel.CPUSmallOp)
	}
	return nil
}

// FileExecve validates an execve target (Table 5: file_execve): the µFS
// supplies the executable's data pages; the kernel charges the exec setup.
// Actual program launch is outside the simulation's scope.
func (k *KernFS) FileExecve(th *proc.Thread, id coffer.ID, pages []int64) error {
	if err := k.FileMmap(th, id, pages, false); err != nil {
		return err
	}
	th.CPU(perfmodel.ContextSwitch)
	return nil
}
