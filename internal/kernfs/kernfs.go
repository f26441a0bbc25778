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
//	kernfs.registry          create/delete/rename visibility (short sections)
//	kernfs.coffer/<id>       one per coffer: flags, mappers, owner tree
//	kernfs.paths             path-table write side (readers take no lock)
//	kernfs.freeshard/<i>     free-pool shards; transient leaves
//
// Class order is strictly descending in that list; within kernfs.coffer,
// multi-coffer operations (move_pages, coffer_merge) lock in ascending ID
// order. Charged work — grant scrubbing, allocation-table writes, PTE
// update costs — happens outside every lock, so concurrent coffer_enlarge
// calls no longer serialize in virtual time.
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
	sbMagic        = 0x5A6F46535F535550 // "ZoFS_SUP"
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

	// regMu is the registry lock: a short critical section ordering coffer
	// create/delete/rename visibility (the paths table and the coffer map
	// change together under it). Steady-state operations — enlarge, map,
	// shrink, lookups — never touch it.
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
// guards rp, dead and mappers plus the coffer's owner tree in the space
// manager; snap republishes rp after every change so Info and permission
// checks read it without the lock (validated against NVM truth the same way
// the dcache is).
type cofferInfo struct {
	mu   lockprof.Mutex
	dead bool // set by coffer_delete/merge; checked after every acquire
	rp   coffer.RootPage
	snap rootSnap

	mappers map[int]*procState // PID → mapper; made by the first coffer_map
}

func newCofferInfo(rp coffer.RootPage) *cofferInfo {
	ci := &cofferInfo{rp: rp}
	ci.mu.InitKeyed("kernfs.coffer", int64(rp.ID))
	ci.publishRP()
	return ci
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
	ps := ci.mappers[pid]
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
	// (coffer delete, recovery eviction, quarantine). It models a
	// user-readable shared counter: the µFS compares it against its cached
	// value before trusting its mount cache, so a mapping the kernel pulled
	// out from under the library is noticed before — not after — the library
	// dereferences a dead key. Voluntary coffer_unmap does not bump it.
	revGen atomic.Uint64
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
// must not land in the ledger's residual.
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

	sm := newSpaceManager(dev, 1*nvm.PageSize, npages)
	sm.initTable(nil, kernPages)
	pt := &pathTable{dev: dev, bucketOff: (1 + allocPages) * nvm.PageSize, sm: sm}
	pt.init(nil)

	// Root coffer: root page + root dir inode page + custom page.
	var one [1]coffer.Extent
	exts, err := sm.takeFree(nil, 0, 3, one[:0])
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
	// Root pages are the coffer's super-inode; interior scrubbing is
	// allocator overhead, same as a zeroed enlarge grant.
	var page [nvm.PageSize]byte
	coffer.EncodeRootPage(&page, rp)
	dev.WriteNTClass(nil, byteflow.ClassInode, pages[0]*nvm.PageSize, page[:])
	dev.ZeroClass(nil, byteflow.ClassAlloc, pages[1]*nvm.PageSize, nvm.PageSize)
	dev.ZeroClass(nil, byteflow.ClassAlloc, pages[2]*nvm.PageSize, nvm.PageSize)
	if err := pt.insert(nil, "/", rootID); err != nil {
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
	// Materialize coffer infos from root pages.
	buf := make([]byte, nvm.PageSize)
	var bad error
	k.paths.each(func(path string, id coffer.ID) bool {
		dev.ReadNoCharge(int64(id)*nvm.PageSize, buf)
		rp, err := coffer.DecodeRootPage(buf)
		if err != nil {
			bad = fmt.Errorf("kernfs: coffer %d (%s): %v", id, path, err)
			return false
		}
		k.coffers.store(id, newCofferInfo(*rp))
		return true
	})
	if bad != nil {
		return nil, bad
	}
	return k, nil
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

// writeRootPage persists a coffer's root page. Root pages are the coffer's
// super-inode, so the byte-flow ledger books them inode-class.
func (k *KernFS) writeRootPage(clk *simclock.Clock, pg int64, rp *coffer.RootPage) {
	var page [nvm.PageSize]byte
	coffer.EncodeRootPage(&page, rp)
	k.dev.WriteNTClass(clk, byteflow.ClassInode, pg*nvm.PageSize, page[:])
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

// FreeExtents returns the global free pool's extents in address order
// (df-style tools derive device-level fragmentation from them).
func (k *KernFS) FreeExtents() []coffer.Extent { return k.space.freeSnapshot().All() }

// VerifySpace re-reads the persistent allocation table and cross-checks it
// against the kernel's volatile extent trees: per-slot ownership, per-owner
// page counts, the sharded free pool (including in-flight grant batches)
// and the whole-device census. Uncharged (a fsck/tooling operation, not a
// modeled syscall).
func (k *KernFS) VerifySpace() error { return k.space.verify() }

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
			k.revokeLocked(ci, ps)
			ci.mu.Unlock(th.Clk)
		} else {
			ps.forgetKey(id)
		}
	}
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

// Coffers returns a snapshot of all coffer IDs in ascending order (fsck,
// tooling).
func (k *KernFS) Coffers() []coffer.ID {
	var out []coffer.ID
	k.coffers.each(func(id coffer.ID, _ *cofferInfo) { out = append(out, id) })
	return out
}

// ExtentsOf returns the pages owned by a coffer (kernel view). Works for
// coffer.KernelID too — the kernel's own metadata pages have no registry
// entry but do have an owner tree.
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

	// Stage: take pages, tag them, scrub the metadata pages, write the root
	// page. No lock is held; the ID is not yet discoverable.
	var one [1]coffer.Extent
	exts, err := k.space.takeFree(th.Clk, uint64(parent)^uint64(th.TID)<<32, npages, one[:0])
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
	k.writeRootPage(th.Clk, pages[0], &rp)
	wprev := th.Clk.SwapWriteClass(uint8(byteflow.ClassAlloc))
	k.dev.Zero(th.Clk, pages[1]*nvm.PageSize, nvm.PageSize)
	k.dev.Zero(th.Clk, pages[2]*nvm.PageSize, nvm.PageSize)
	th.Clk.SetWriteClass(wprev)

	// Publish: path entry and registry record become visible together.
	k.regMu.Lock(th.Clk)
	if err := k.paths.insert(th.Clk, path, id); err != nil {
		k.regMu.Unlock(th.Clk)
		k.space.releaseAll(th.Clk, id) // roll back the staged allocation
		return 0, err
	}
	k.coffers.store(id, newCofferInfo(rp))
	k.regMu.Unlock(th.Clk)
	return id, nil
}

// CofferDelete removes a coffer and frees all its pages (Table 5:
// coffer_delete). Only the owner (or root) may delete. Every process's
// mapping is revoked first — the same eviction discipline BeginRecover
// uses — so a deleted coffer can never stay readable through stale page
// tables; a straggler faults on its next access and re-resolves the path.
// Runs under the registry lock (delete visibility), then the coffer lock.
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
	k.regMu.Lock(th.Clk)
	defer k.regMu.Unlock(th.Clk)
	ci := k.lockCoffer(th.Clk, id)
	if ci == nil {
		return ErrNotFound
	}
	defer ci.mu.Unlock(th.Clk)
	if u := th.Proc.UID(); u != 0 && u != ci.rp.UID {
		return ErrPerm
	}
	if id == k.rootCoffer {
		return fmt.Errorf("%w: cannot delete root coffer", ErrInvalid)
	}
	for _, ps := range ci.mappers {
		k.revokeLocked(ci, ps)
	}
	if err := k.paths.remove(th.Clk, ci.rp.Path); err != nil {
		return err
	}
	ci.dead = true
	k.space.releaseAll(th.Clk, id)
	k.coffers.store(id, nil)
	delete(k.violations, id)
	return nil
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
// (required for pages that will hold metadata parsed by other processes).
//
// This used to be the scaling cliff of Figures 7(d)/(g): scrub + table
// write + PTE charge all ran under one global kernel mutex. Now the charged
// work runs with no lock held — the staged pages are invisible until
// publication, so scrubbing them unlocked is race-free by construction —
// and the coffer lock covers only the volatile publish (owner tree + page
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
	exts, err := k.space.takeFree(th.Clk, enlargeHint(id, th.TID), npages, nil)
	if err != nil {
		return nil, err
	}
	if zero {
		// Grant scrubbing is allocator overhead in the byte-flow ledger.
		wprev := th.Clk.SwapWriteClass(uint8(byteflow.ClassAlloc))
		for _, e := range exts {
			k.dev.Zero(th.Clk, e.Start*nvm.PageSize, e.Count*nvm.PageSize)
		}
		th.Clk.SetWriteClass(wprev)
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
	for _, m := range ci.mappers {
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
// cross-coffer renames when the permissions match). Both coffers must be
// write-mapped by the caller and carry identical permissions; each page is
// retagged individually — as expensive per page as coffer_split (Table 9).
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
	if si.rp.Mode != di.rp.Mode || si.rp.UID != di.rp.UID || si.rp.GID != di.rp.GID {
		return fmt.Errorf("%w: move requires identical permissions", ErrInvalid)
	}
	for _, pg := range pages {
		if pg == int64(src) {
			return fmt.Errorf("%w: cannot move the root page", ErrInvalid)
		}
		if err := k.space.retag(th.Clk, src, dst, pg, 1); err != nil {
			return err
		}
		for _, m := range si.mappers {
			m.p.Mem.Unmap(pg, 1)
		}
		for _, m := range di.mappers {
			key, w := m.access(dst)
			m.p.Mem.Map(pg, 1, key, w)
		}
		th.CPU(perfmodel.CPUSmallOp)
	}
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
		for _, m := range ci.mappers {
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
	if ci.mappers == nil {
		ci.mappers = map[int]*procState{}
	}
	ci.mappers[th.Proc.PID] = ps
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
	delete(ci.mappers, ps.p.PID)
}

// revokeLocked is unmapLocked for kernel-initiated evictions: the process
// did not ask for this, so its revocation generation is bumped to tell the
// µFS its mount cache is stale.
func (k *KernFS) revokeLocked(ci *cofferInfo, ps *procState) {
	k.unmapLocked(ci, ps)
	ps.revGen.Add(1)
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
// chmod path, used when the whole coffer changes permission). Owner or root
// only.
func (k *KernFS) SetCofferMeta(th *proc.Thread, id coffer.ID, mode coffer.Mode, uid, gid uint32) error {
	defer kcall(th, "set_coffer_meta")()
	th.Syscall()
	ci := k.lockCoffer(th.Clk, id)
	if ci == nil {
		return ErrNotFound
	}
	defer ci.mu.Unlock(th.Clk)
	if u := th.Proc.UID(); u != 0 && u != ci.rp.UID {
		return ErrPerm
	}
	ci.rp.Mode, ci.rp.UID, ci.rp.GID = mode, uid, gid
	ci.publishRP()
	k.writeRootPage(th.Clk, int64(id), &ci.rp)
	return nil
}

// SetCofferType rewrites a coffer's µFS type (owner or root only; used by
// formatting tools that re-dedicate a coffer to a different µFS — the
// interior must be re-initialized by the new µFS).
func (k *KernFS) SetCofferType(th *proc.Thread, id coffer.ID, typ coffer.Type, mode coffer.Mode) error {
	defer kcall(th, "set_coffer_type")()
	th.Syscall()
	ci := k.lockCoffer(th.Clk, id)
	if ci == nil {
		return ErrNotFound
	}
	defer ci.mu.Unlock(th.Clk)
	if u := th.Proc.UID(); u != 0 && u != ci.rp.UID {
		return ErrPerm
	}
	ci.rp.Type = typ
	ci.rp.Mode = mode
	ci.publishRP()
	k.writeRootPage(th.Clk, int64(id), &ci.rp)
	return nil
}

// UpdateRootPointers rewrites the root-file inode / custom page pointers in
// the (user-read-only) root page on behalf of the owning µFS.
func (k *KernFS) UpdateRootPointers(th *proc.Thread, id coffer.ID, rootInode, custom int64) error {
	defer kcall(th, "update_root_pointers")()
	th.Syscall()
	ci := k.lockCoffer(th.Clk, id)
	if ci == nil {
		return ErrNotFound
	}
	defer ci.mu.Unlock(th.Clk)
	ps := ci.mappers[th.Proc.PID]
	if ps == nil || !ps.isWritable(id) {
		return ErrNotMapped
	}
	ci.rp.RootInode, ci.rp.Custom = rootInode, custom
	ci.publishRP()
	k.writeRootPage(th.Clk, int64(id), &ci.rp)
	return nil
}

// RenameCoffer changes a coffer's path and rewrites the paths of every
// descendant coffer — the expensive prefix rewrite behind cross-coffer
// renames (Table 9).
func (k *KernFS) RenameCoffer(th *proc.Thread, oldPath, newPath string) error {
	defer kcall(th, "rename_coffer")()
	th.Syscall()
	k.regMu.Lock(th.Clk)
	defer k.regMu.Unlock(th.Clk)
	return k.renameTreeLocked(th, oldPath, newPath, true)
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
	k.regMu.Lock(th.Clk)
	defer k.regMu.Unlock(th.Clk)
	return k.renameTreeLocked(th, oldPath, newPath, false)
}

// renameTreeLocked rewrites the path of oldPath's coffer (if any) and of
// every coffer under it. Caller holds regMu, which keeps the coffer set
// stable; each affected coffer is locked (ascending ID order) around its
// root-page rewrite.
func (k *KernFS) renameTreeLocked(th *proc.Thread, oldPath, newPath string, exact bool) error {
	type renameOp struct {
		id       coffer.ID
		from, to string
	}
	var one [1]renameOp // the usual rename moves a coffer with none below it
	ops := one[:0]
	if id, ok := k.paths.lookup(th.Clk, oldPath); ok {
		ci, _ := k.cofferLoad(id)
		if ci == nil {
			return ErrNotFound
		}
		rp := ci.snap.load()
		if u := th.Proc.UID(); u != 0 && u != rp.UID {
			return ErrPerm
		}
		ops = append(ops, renameOp{id, oldPath, newPath})
	} else if exact {
		return ErrNotFound
	}
	if _, dup := k.paths.lookup(th.Clk, newPath); dup {
		return ErrExists
	}
	k.paths.each(func(p string, cid coffer.ID) bool {
		if pathBelow(oldPath, p) {
			ops = append(ops, renameOp{cid, p, newPath + "/" + strings.TrimPrefix(p[len(oldPath):], "/")})
		}
		return true
	})
	slices.SortFunc(ops, func(a, b renameOp) int { return cmp.Compare(a.id, b.id) })
	for _, op := range ops {
		ci := k.lockCoffer(th.Clk, op.id)
		if ci == nil {
			return ErrNotFound
		}
		if err := k.paths.rename(th.Clk, op.from, op.to, op.id); err != nil {
			ci.mu.Unlock(th.Clk)
			return err
		}
		ci.rp.Path = op.to
		ci.publishRP()
		k.writeRootPage(th.Clk, int64(op.id), &ci.rp)
		ci.mu.Unlock(th.Clk)
		th.CPU(perfmodel.CPUSmallOp)
	}
	return nil
}

// ---- coffer_split / coffer_merge --------------------------------------------

// CofferSplit carves a new coffer with a different permission out of an
// existing one (Table 5: coffer_split), moving the given pages to it.
// Every moved page is retagged individually in the allocation table —
// "the split procedure will change the coffer of all file pages, which
// takes a long time" (Table 9). rootInode/custom are the new coffer's entry
// points (chosen by the µFS from among the moved pages).
func (k *KernFS) CofferSplit(th *proc.Thread, old coffer.ID, newPath string, mode coffer.Mode, uid, gid uint32, pages []int64, rootInode, custom int64) (coffer.ID, error) {
	defer kcall(th, "coffer_split")()
	th.Syscall()
	k.rec().Inc(telemetry.CtrKernCofferSplit)
	k.regMu.Lock(th.Clk)
	defer k.regMu.Unlock(th.Clk)
	ci := k.lockCoffer(th.Clk, old)
	if ci == nil {
		return 0, ErrNotFound
	}
	defer ci.mu.Unlock(th.Clk)
	if u := th.Proc.UID(); u != 0 && u != ci.rp.UID {
		return 0, ErrPerm
	}
	if _, dup := k.paths.lookup(th.Clk, newPath); dup {
		return 0, ErrExists
	}
	// New root page.
	var one [1]coffer.Extent
	exts, err := k.space.takeFree(th.Clk, enlargeHint(old, th.TID), 1, one[:0])
	if err != nil {
		return 0, err
	}
	rootPg := exts[0].Start
	id := coffer.ID(rootPg)
	k.space.writeRun(th.Clk, rootPg, 1, id)
	k.space.ownerSet(id).Add(rootPg, 1)
	k.space.uninflight(exts)

	// Move pages one at a time (the expensive part).
	for _, pg := range pages {
		if err := k.space.retag(th.Clk, old, id, pg, 1); err != nil {
			return 0, err
		}
		// Unmap moved pages from every process mapping the old coffer:
		// they now belong to a coffer with a different permission.
		for _, m := range ci.mappers {
			m.p.Mem.Unmap(pg, 1)
		}
		th.CPU(perfmodel.CPUSmallOp)
	}

	rp := coffer.RootPage{
		ID: id, Type: ci.rp.Type, Mode: mode, UID: uid, GID: gid,
		RootInode: rootInode, Custom: custom, Path: newPath,
	}
	k.writeRootPage(th.Clk, rootPg, &rp)
	if err := k.paths.insert(th.Clk, newPath, id); err != nil {
		return 0, err
	}
	k.coffers.store(id, newCofferInfo(rp))
	return id, nil
}

// CofferMerge folds coffer src into coffer dst (Table 5: coffer_merge).
// Both must carry identical permissions; src's pages are retagged one by
// one and its root page freed. Runs under the registry lock (src is
// deleted) with both coffers locked in ascending ID order.
func (k *KernFS) CofferMerge(th *proc.Thread, dst, src coffer.ID) error {
	defer kcall(th, "coffer_merge")()
	th.Syscall()
	k.rec().Inc(telemetry.CtrKernCofferMerge)
	k.regMu.Lock(th.Clk)
	defer k.regMu.Unlock(th.Clk)
	si, di, err := k.lockPair(th.Clk, src, dst)
	if err != nil {
		if errors.Is(err, ErrInvalid) {
			return ErrNotFound
		}
		return err
	}
	defer k.unlockPair(th.Clk, si, di)
	if u := th.Proc.UID(); u != 0 && (u != di.rp.UID || u != si.rp.UID) {
		return ErrPerm
	}
	if di.rp.Mode&^0o111 != si.rp.Mode&^0o111 || di.rp.UID != si.rp.UID || di.rp.GID != si.rp.GID {
		return fmt.Errorf("%w: merge requires identical permissions", ErrInvalid)
	}
	for pid := range si.mappers {
		if _, alsoDst := di.mappers[pid]; !alsoDst {
			return ErrBusy
		}
	}
	// Retagging takes pages out of the tree being walked, so the walk re-finds
	// its place after every extent; all that stays behind is the root page.
	srcRoot, own := int64(src), k.space.ownerSet(src)
	for e, ok := own.Next(0); ok; e, ok = own.Next(e.End()) {
		for pg := e.Start; pg < e.End(); pg++ {
			if pg == srcRoot {
				continue
			}
			if err := k.space.retag(th.Clk, src, dst, pg, 1); err != nil {
				return err
			}
			// Remap under dst's key for every dst mapper.
			for _, m := range di.mappers {
				key, w := m.access(dst)
				m.p.Mem.Map(pg, 1, key, w)
			}
			th.CPU(perfmodel.CPUSmallOp)
		}
	}
	for _, m := range si.mappers {
		k.unmapLocked(si, m)
	}
	if err := k.paths.remove(th.Clk, si.rp.Path); err != nil {
		return err
	}
	si.dead = true
	k.space.releaseAll(th.Clk, src) // only the root page remains
	k.coffers.store(src, nil)
	delete(k.violations, src)
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
	k.writeRootPage(th.Clk, int64(id), &ci.rp)
	for pid, ps := range ci.mappers {
		if pid != th.Proc.PID {
			k.revokeLocked(ci, ps)
		}
	}
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
		for _, m := range ci.mappers {
			m.p.Mem.Unmap(pg, 1)
		}
		th.CPU(perfmodel.CPUSmallOp)
	}
	ci.rp.Flags &^= coffer.FlagInRecovery
	ci.rp.Lease = 0
	ci.publishRP()
	k.writeRootPage(th.Clk, int64(id), &ci.rp)
	return nil
}

// ---- quarantine (DESIGN.md §13) ---------------------------------------------

// QuarantineCoffer fences one coffer: read-only (offline=false) keeps read
// mappings alive but downgrades every write mapping and refuses new write
// maps/enlarges/shrinks; offline (offline=true) unmaps the coffer from every
// process and refuses all maps. The flag is persisted in the root page so the
// quarantine survives reboot; every other coffer is untouched — the paper's
// fault-containment claim (§3.1) made operational. Owner or root only.
func (k *KernFS) QuarantineCoffer(th *proc.Thread, id coffer.ID, offline bool) error {
	defer kcall(th, "quarantine_coffer")()
	th.Syscall()
	ci := k.lockCoffer(th.Clk, id)
	if ci == nil {
		return ErrNotFound
	}
	defer ci.mu.Unlock(th.Clk)
	if u := th.Proc.UID(); u != 0 && u != ci.rp.UID {
		return ErrPerm
	}
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
	k.writeRootPage(th.Clk, int64(ci.rp.ID), &ci.rp)
	id := ci.rp.ID
	if offline {
		for _, ps := range ci.mappers {
			k.revokeLocked(ci, ps)
		}
		return
	}
	for _, ps := range ci.mappers {
		if ps.isWritable(id) {
			ps.mu.Lock()
			ps.writable[id] = false
			ps.mu.Unlock()
			key, _ := ps.access(id)
			k.mapPagesLocked(ps, ci, key, false)
			// The mapping survives but its write grant is gone — a cache
			// flush on the µFS side turns the next write into a clean typed
			// error instead of an MPK fault.
			ps.revGen.Add(1)
		}
	}
}

// UnquarantineCoffer lifts a quarantine (operator action, or µFS recovery
// that repaired the damage). Mappings are not restored — processes re-map on
// their next access and go back through the permission check. Owner or root
// only. Takes the registry lock (violation tally) before the coffer lock.
func (k *KernFS) UnquarantineCoffer(th *proc.Thread, id coffer.ID) error {
	defer kcall(th, "unquarantine_coffer")()
	th.Syscall()
	k.regMu.Lock(th.Clk)
	defer k.regMu.Unlock(th.Clk)
	ci := k.lockCoffer(th.Clk, id)
	if ci == nil {
		return ErrNotFound
	}
	defer ci.mu.Unlock(th.Clk)
	if u := th.Proc.UID(); u != 0 && u != ci.rp.UID {
		return ErrPerm
	}
	ci.rp.Flags &^= uint32(coffer.FlagReadOnly | coffer.FlagOffline)
	ci.publishRP()
	k.writeRootPage(th.Clk, int64(id), &ci.rp)
	delete(k.violations, id)
	return nil
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
	ps := ci.mappers[th.Proc.PID]
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
