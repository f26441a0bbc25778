package zofs

import (
	"errors"
	"fmt"
	"sync"

	"zofs/internal/coffer"
	"zofs/internal/kernfs"
	"zofs/internal/lockprof"
	"zofs/internal/mpk"
	"zofs/internal/nvm"
	"zofs/internal/perfmodel"
	"zofs/internal/proc"
	"zofs/internal/vfs"
)

// Options selects ZoFS variants used in the paper's breakdown and
// worst-case experiments.
type Options struct {
	// SysEmptyPerWrite issues an empty system call before each file write
	// (ZoFS-sysempty, Figure 8).
	SysEmptyPerWrite bool
	// KernelWrite implements file writes "in kernel space": every write
	// charges a syscall and skips MPK window switches (ZoFS-kwrite,
	// Figure 8).
	KernelWrite bool
	// OneCoffer stores all files in a single coffer even when permissions
	// differ: chmod/chown become pure user-space inode updates and no
	// coffer is ever split (ZoFS-1coffer, Table 9).
	OneCoffer bool
	// InlineData embeds small files' contents in the inode page (§5.1's
	// future-work optimization): no data page, no block pointer, one page
	// per small file instead of two.
	InlineData bool
	// DataEnlargeBatch and MetaEnlargeBatch cap the coffer_enlarge request
	// sizes (pages) for the data and metadata per-thread free lists: a
	// thread's grants in a coffer ramp up to the cap (enlarge). Metadata
	// grants are kernel-zeroed; data grants are not (§5.2).
	DataEnlargeBatch int64
	MetaEnlargeBatch int64
}

func (o *Options) fill() {
	if o.DataEnlargeBatch <= 0 {
		o.DataEnlargeBatch = 512
	}
	if o.MetaEnlargeBatch <= 0 {
		o.MetaEnlargeBatch = 32
	}
}

// FS is one process's ZoFS µFS instance. It caches coffer mappings and
// per-thread allocator slots; all persistent state lives in the device.
// Methods that take a *proc.Thread expect threads of the process that
// created the instance (FSLibs guarantees this).
type FS struct {
	kern *kernfs.KernFS
	sh   *shared
	opts Options

	mu      lockprof.RealMutex // guards mounts and revSeen; real-only, no virtual cost
	mounts  map[coffer.ID]*mount
	mapSeq  uint64 // ensureMapped calls so far; stamps mount.seq
	revSeen uint64 // last-seen kernel revocation generation (see ensureMapped)

	hmu   sync.Mutex // guards hfree
	hfree *file      // closed handles awaiting reuse, linked through file.next
}

// mount is a cached coffer mapping.
type mount struct {
	id       coffer.ID
	seq      uint64 // FS.mapSeq at the last ensureMapped, for LRU eviction
	key      mpk.Key
	writable bool
	root     int64 // root-file inode page
	custom   int64 // allocator pool page

	slots sync.Map // TID (int) -> *threadSlots, claimed allocator slots
}

// threadSlots caches one thread's claimed allocator slot per class. Each
// value is touched only by its owning thread (the map is keyed by TID), so
// the fields need no further locking.
type threadSlots struct {
	slot [2]int32 // pool slot index per class; -1 = none
	head [2]int64 // volatile cache of the slot's free-list head
	// cache holds batched page grants and recycled frees as a volatile
	// per-thread free list (LIFO). Pages here are owned by the coffer but
	// referenced by nothing persistent: a crash leaks them and recovery
	// reclaims them as not-in-use (§5.3).
	cache [2][]int64
	// granted counts the pages coffer_enlarge has granted this thread per
	// class; it sizes the next grant (enlarge).
	granted [2]int64
	// noSlotTries counts consecutive exhausted pool scans per class; it
	// indexes the unified retry policy's backoff schedule and resets to
	// zero once a slot is claimed.
	noSlotTries [2]int
	// noSlotUntil backs off pool-claim retries per class after claimSlot
	// found every slot leased (more live threads than pool slots): until
	// this virtual instant the thread allocates slotless through the
	// volatile cache instead of rescanning the pool on every page.
	noSlotUntil [2]int64
}

// Allocation classes: metadata pages are kernel-zeroed on enlarge, data
// pages are not.
const (
	classMeta = 0
	classData = 1
)

// New creates a ZoFS instance over a mounted KernFS for the calling
// process. The caller must have registered the process via kern.FSMount.
func New(kern *kernfs.KernFS, opts Options) *FS {
	opts.fill()
	f := &FS{
		kern:   kern,
		sh:     sharedFor(kern.Device()),
		opts:   opts,
		mounts: map[coffer.ID]*mount{},
	}
	f.mu.Init("zofs.mounts", "")
	return f
}

// Name implements vfs.FileSystem.
func (f *FS) Name() string { return "ZoFS" }

// Kern exposes the kernel module (tooling, tests).
func (f *FS) Kern() *kernfs.KernFS { return f.kern }

// Options returns the options the instance runs with, defaults filled in
// (a remount after a crash takes the same ones).
func (f *FS) Options() Options { return f.opts }

// Device returns the backing NVM device (byte-flow accounting, tooling).
func (f *FS) Device() *nvm.Device { return f.kern.Device() }

// errno translates kernel errors into vfs errors.
func errno(err error) error {
	switch {
	case err == nil:
		return nil
	case errors.Is(err, kernfs.ErrPerm):
		return vfs.ErrPerm
	case errors.Is(err, kernfs.ErrNotFound):
		return vfs.ErrNotExist
	case errors.Is(err, kernfs.ErrExists):
		return vfs.ErrExist
	case errors.Is(err, kernfs.ErrNoSpace):
		return vfs.ErrNoSpace
	case errors.Is(err, kernfs.ErrCofferReadOnly):
		return vfs.ErrReadOnlyCoffer
	case errors.Is(err, kernfs.ErrCofferOffline):
		return vfs.ErrOfflineCoffer
	case errors.Is(err, kernfs.ErrInRecovery), errors.Is(err, kernfs.ErrBusy):
		return vfs.ErrIO
	default:
		return err
	}
}

// ensureMapped returns the mount for a coffer, mapping it on demand and
// evicting another mapping when the process runs out of MPK regions
// (§3.4.2: "the µFS should call coffer_unmap to release MPK regions before
// mapping new coffers").
func (f *FS) ensureMapped(th *proc.Thread, id coffer.ID, write bool) (*mount, error) {
	gen := f.kern.RevocationGen(th.Proc.PID)
	f.mu.Lock()
	if gen != f.revSeen {
		// The kernel revoked or downgraded mappings behind our back (coffer
		// delete, recovery eviction, quarantine, setuid): those mounts are
		// suspect — a deleted coffer's ID may already name a new coffer.
		// Drop them, or every mount when the kernel's log no longer says
		// which; the rest, and their threads' page batches, stay.
		var whole bool
		f.revSeen, whole = f.kern.Revoked(th.Proc.PID, f.revSeen, func(id coffer.ID) { delete(f.mounts, id) })
		if !whole {
			f.mounts = make(map[coffer.ID]*mount)
		}
	}
	if m, ok := f.mounts[id]; ok && (!write || m.writable) {
		f.mapSeq++
		m.seq = f.mapSeq
		f.mu.Unlock()
		return m, nil
	}
	f.mu.Unlock()

	for {
		mi, err := f.kern.CofferMap(th, id, write)
		if err == nil {
			f.mu.Lock()
			m, ok := f.mounts[id]
			if !ok {
				m = &mount{id: id}
				f.mounts[id] = m
			}
			f.mapSeq++
			m.seq = f.mapSeq
			m.key, m.writable = mi.Key, mi.Writable
			m.root, m.custom = mi.Root.RootInode, mi.Root.Custom
			f.mu.Unlock()
			return m, nil
		}
		if !errors.Is(err, kernfs.ErrNoMPKRegions) {
			return nil, errno(err)
		}
		if !f.evictOne(th, id) {
			return nil, errno(err)
		}
	}
}

// evictOne unmaps the least recently ensured coffer other than keep. The
// choice is a function of the op history alone, so a process over the MPK
// region limit loses the same coffers — and pays the same re-maps in
// virtual time — on every run; and the coffers the op in flight has just
// walked through are the last to go. A coffer on which any thread of the
// process holds a window open is never the victim: that thread's next access
// would fault. (One ensured but not yet windowed can go, as the last choice.)
func (f *FS) evictOne(th *proc.Thread, keep coffer.ID) bool {
	f.mu.Lock()
	var victim *mount
	for id, m := range f.mounts {
		if id != keep && !th.Proc.WindowOpen(m.key) && (victim == nil || m.seq < victim.seq) {
			victim = m
		}
	}
	if victim != nil {
		delete(f.mounts, victim.id)
	}
	f.mu.Unlock()
	return victim != nil && f.kern.CofferUnmap(th, victim.id) == nil
}

// window opens the MPK access window for one coffer (guidelines G1+G2);
// closing the returned value shuts it. Variants that model kernel-side
// implementations skip the PKRU writes.
func (f *FS) window(th *proc.Thread, m *mount, write bool) window {
	if f.opts.KernelWrite {
		// Kernel-side variant: accesses are not MPK-mediated, so the switch
		// is free; the register is still tracked so the memory safety checks
		// stay meaningful.
		th.SetPKRUFree(mpk.DefaultPKRU().WithAccess(m.key, true, write && m.writable))
		return window{th: th, free: true}
	}
	th.OpenWindow(m.key, write && m.writable)
	return window{th: th}
}

// window is a thread's open MPK window. It is a value, not a closure: every
// op opens at least one, and a func capturing the thread is a heap object.
type window struct {
	th   *proc.Thread
	free bool // opened without the WRPKRU charge; closes the same way
}

func (w window) close() {
	if w.free {
		w.th.SetPKRUFree(mpk.DefaultPKRU())
	} else {
		w.th.CloseWindow()
	}
}

// walkPos is the result of a path walk: the coffer and inode a path
// resolves to, with the MPK window left OPEN on pos.m — the caller must
// invoke pos.close when done. path is a prefix of the string handed to walk.
type walkPos struct {
	m    *mount
	ino  int64
	typ  vfs.FileType
	path string
	win  window
}

func (p walkPos) close() { p.win.close() }

// walk resolves an absolute, cleaned path to an inode.
//
// Per §5 it first finds the nearest enclosing coffer by backwards path
// parsing (longest prefix first), maps it, then walks the remaining
// components inside the coffer. A validated cross-coffer dentry switches
// the window to the target coffer (guidelines G2/G3). Symlink expansion is
// reported to the dispatcher via *vfs.SymlinkError (§4.2, expandSymlink).
//
// followFinal controls whether a symlink at the final component is
// expanded. write requests a writable mapping/window on the final coffer.
//
// The walk builds no strings: a component is path[start:end], the path of the
// inode it names is path[:end], and what a mid-walk symlink leaves unconsumed
// is path[start:].
func (f *FS) walk(th *proc.Thread, path string, followFinal, write bool) (walkPos, error) {
	cid, cofferPath, ok := f.kern.ResolveLongest(th.Clk, path)
	if !ok {
		return walkPos{}, vfs.ErrNotExist
	}
	m, err := f.ensureMapped(th, cid, write)
	if err != nil {
		return walkPos{}, err
	}
	// cofferPath is path's longest coffer root, component-wise: path[:end].
	end := len(cofferPath)
	pos := walkPos{m: m, ino: m.root, path: path[:end], win: f.window(th, m, write)}
	if end == len(path) {
		hdr := f.readInodeHeader(th, pos.ino)
		if u32at(hdr, inoMagicOff) != inoMagic {
			pos.close()
			return walkPos{}, fmt.Errorf("%w: bad root inode magic at %q ino %d", vfs.ErrCorrupted, pos.path, pos.ino)
		}
		pos.typ = vfs.FileType(u32at(hdr, inoTypeOff))
		if pos.typ == vfs.TypeSymlink && followFinal {
			return walkPos{}, f.expandSymlink(th, pos, "")
		}
		return pos, nil
	}

	start := end + 1 // past the separator after the coffer root
	if end == 1 {
		start = 1 // the root coffer's path is the separator
	}
	for start < len(path) {
		end = start
		for end < len(path) && path[end] != '/' {
			end++
		}
		comp, childPath := path[start:end], path[:end]
		if len(comp) > MaxNameLen {
			pos.close()
			return walkPos{}, vfs.ErrNameTooLong
		}
		hdr := f.readInodeHeader(th, pos.ino)
		if u32at(hdr, inoMagicOff) != inoMagic {
			pos.close()
			return walkPos{}, fmt.Errorf("%w: bad dir inode magic at %q ino %d", vfs.ErrCorrupted, pos.path, pos.ino)
		}
		typ := vfs.FileType(u32at(hdr, inoTypeOff))
		if typ == vfs.TypeSymlink {
			// Symlink in the middle of the walk: expand and re-dispatch.
			return walkPos{}, f.expandSymlink(th, pos, path[start:])
		}
		if typ != vfs.TypeDir {
			pos.close()
			return walkPos{}, vfs.ErrNotDir
		}
		de, _, err := f.dirLookup(th, pos.ino, comp)
		if err != nil {
			pos.close()
			return walkPos{}, err
		}
		if de.cofferID != 0 {
			// Cross-coffer reference: validate per G3 before making the
			// target accessible.
			target := coffer.ID(de.cofferID)
			info, ok := f.kern.Info(target)
			if !ok || info.Path != childPath || info.RootInode != de.inode {
				pos.close()
				return walkPos{}, fmt.Errorf("%w: cross-coffer dentry %q names coffer %d (known=%v path %q root %d, dentry inode %d)",
					vfs.ErrCorrupted, childPath, target, ok, info.Path, info.RootInode, de.inode)
			}
			pos.close()
			nm, err := f.ensureMapped(th, target, write)
			if err != nil {
				return walkPos{}, err
			}
			pos.m = nm
			pos.win = f.window(th, nm, write)
		}
		pos.ino = de.inode
		pos.path = childPath
		if end == len(path) {
			hdr := f.readInodeHeader(th, pos.ino)
			if u32at(hdr, inoMagicOff) != inoMagic {
				pos.close()
				return walkPos{}, fmt.Errorf("%w: bad final inode magic at %q ino %d", vfs.ErrCorrupted, pos.path, pos.ino)
			}
			pos.typ = vfs.FileType(u32at(hdr, inoTypeOff))
			if pos.typ == vfs.TypeSymlink && followFinal {
				return walkPos{}, f.expandSymlink(th, pos, "")
			}
		}
		start = end + 1
	}
	return pos, nil
}

// expandSymlink ends a walk that stands on a symlink: it reads the target,
// closes the window and reports the path the dispatcher retries — the target,
// joined to the link's directory when relative, then rest, the suffix of the
// walked path the link left unconsumed. The path is assembled in the thread's
// scratch around the target as it is read, so the string handed back is the one
// heap object; the error is the thread's own reusable one.
func (f *FS) expandSymlink(th *proc.Thread, pos walkPos, rest string) error {
	dir, _ := vfs.SplitPath(pos.path)
	at := len(dir) // where the target goes: after dir and its separator
	if dir != "/" {
		at++
	}
	buf := th.Scratch.Buf(at + symMaxLen + 1 + len(rest))
	target := f.readSymlink(th, pos.ino, buf[at:])
	pos.close()
	start, end := at, at+len(target)
	if len(target) == 0 || target[0] != '/' {
		copy(buf, dir)
		buf[at-1] = '/'
		start = 0
	}
	if rest != "" {
		buf[end] = '/'
		end += 1 + copy(buf[end+1:], rest)
	}
	se, _ := th.Scratch.Link.(*vfs.SymlinkError)
	if se == nil {
		se = new(vfs.SymlinkError)
		th.Scratch.Link = se
	}
	se.Path = vfs.Clean(string(buf[start:end]))
	return se
}

// readView borrows the device image over [off, off+n), charged like a device
// read. Every caller asks for a positive range inside one page, and a page
// never crosses a device chunk, so the view cannot fail. It aliases live
// media: read-only, valid only while the current MPK window stays open.
func (f *FS) readView(th *proc.Thread, off, n int64) []byte {
	v, _ := th.ReadView(off, n)
	return v
}

// readViewCached is readView charged as a CPU-cache hit.
func (f *FS) readViewCached(th *proc.Thread, off, n int64) []byte {
	v, _ := th.ReadViewCached(off, n)
	return v
}

// readInodeHeader reads the 64-byte inode header, charged as a CPU-cache
// hit: walks repeatedly touch the same hot inode headers, exactly the lines
// a real CPU keeps resident. The result borrows the device image — callers
// only decode fields from it.
func (f *FS) readInodeHeader(th *proc.Thread, ino int64) []byte {
	return f.readViewCached(th, ino*pageSize, inoHeaderLen)
}

// readSymlink reads a symlink inode's target — its length, then that many
// bytes — into buf, which holds symMaxLen or more, and returns the part filled.
func (f *FS) readSymlink(th *proc.Thread, ino int64, buf []byte) []byte {
	var lenb [2]byte
	th.Read(ino*pageSize+inoSymLenOff, lenb[:])
	n := int(lenb[0]) | int(lenb[1])<<8
	if n <= 0 || n > symMaxLen {
		return buf[:0]
	}
	th.Read(ino*pageSize+inoSymTgtOff, buf[:n])
	return buf[:n]
}

// maybeEmptySyscall implements the ZoFS-sysempty variant (Figure 8).
func (f *FS) maybeEmptySyscall(th *proc.Thread) {
	if f.opts.SysEmptyPerWrite {
		th.Syscall()
	}
}

// maybeKernelCall implements the ZoFS-kwrite variant (Figure 8): the write
// path runs in the kernel, so it pays syscall entry/exit plus the generic
// in-kernel dispatch work (argument copying, VFS-layer locking).
func (f *FS) maybeKernelCall(th *proc.Thread) {
	if f.opts.KernelWrite {
		th.Syscall()
		th.CPU(perfmodel.VFSOverhead)
	}
}
