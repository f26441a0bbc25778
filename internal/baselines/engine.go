// Package baselines implements the four NVM file systems the paper
// evaluates ZoFS against — PMFS, NOVA (with its NOVAi and -noindex
// variants), Strata and Ext4-DAX — as instances of one kernel-FS engine
// with pluggable allocator, data-write and metadata-commit policies.
//
// Fidelity notes: every performance-relevant media access (data writes,
// copy-on-write copies, journal/log records, digestion double-writes) is
// physically performed on the simulated device and charged to the calling
// thread's virtual clock; the namespace index (dentry cache) is a volatile
// mirror, as the real systems' dcache is in DRAM. Kernel file systems
// charge one syscall per operation; Strata's user-space paths do not.
// Crash recovery is exercised for ZoFS (the paper's subject), not for the
// baselines.
package baselines

import (
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"zofs/internal/byteflow"
	"zofs/internal/coffer"
	"zofs/internal/lockprof"
	"zofs/internal/nvm"
	"zofs/internal/perfmodel"
	"zofs/internal/proc"
	"zofs/internal/simclock"
	"zofs/internal/vfs"
)

const pageSize = nvm.PageSize

// globalAllocHold is the time a global-allocator FS (PMFS, Ext4) holds its
// allocation lock per page: free-list search, bitmap update and journaling
// the allocation record.
const globalAllocHold = 350

// Config is a file system personality.
type Config struct {
	Name string
	// UserSpace skips the per-operation syscall (Strata's common paths).
	UserSpace bool
	// VFS is extra per-operation CPU (generic VFS dispatch, Ext4).
	VFS int64
	// GlobalAlloc serializes page allocation on one lock (PMFS, Ext4);
	// otherwise allocation is per-thread with pre-split shares (NOVA,
	// Strata).
	GlobalAlloc bool
	// WriteBlock writes one (possibly partial) block of file data.
	WriteBlock func(e *Engine, th *proc.Thread, ino *Inode, blk int64, data []byte, off int64)
	// MetaCommit makes one metadata operation durable (journal/log write).
	// n is the number of distinct objects touched (dentry+inode = 2 …).
	MetaCommit func(e *Engine, th *proc.Thread, n int)
	// PostWrite runs after each data write (index updates etc.).
	PostWrite func(e *Engine, th *proc.Thread, ino *Inode, bytes int)
	// Access intercepts every inode access for cross-process coordination
	// (Strata's lease + digestion).
	Access func(e *Engine, th *proc.Thread, ino *Inode, write bool)
	// Sync implements fsync beyond the default (the kernel FSs modeled here
	// persist synchronously on the write path, so the default is a no-op
	// past the Access hook).
	Sync func(e *Engine, th *proc.Thread, ino *Inode)
}

// Inode is a baseline file system inode. Data pages live on the device;
// the block map and namespace links are volatile mirrors.
type Inode struct {
	ID    int64
	Typ   vfs.FileType
	Mode  coffer.Mode
	UID   uint32
	GID   uint32
	Nlink uint32
	// inoPage is the on-device inode-table page backing this inode.
	inoPage int64

	Lock lockprof.RWMutex // per-file readers-writer lock

	mu     sync.Mutex // protects the fields below
	size   int64
	mtime  int64
	blocks []int64
	target string
	// synced is the fsync writeback watermark: blocks below it were covered
	// by a previous Sync, keeping fsync O(new blocks) rather than O(file).
	synced int
	// opens counts the handles open on the file. A file unlinked while
	// opens > 0 is an orphan: its pages are freed at the last close (POSIX),
	// not under a reader that still holds the file's read lock.
	opens  int
	orphan bool

	children *sync.Map // name -> *Inode (directories)

	// Strata log state.
	logOwner   atomic.Int64 // PID of the process whose log holds updates
	logPending atomic.Int64 // undigested bytes
}

// Size returns the current file size.
func (ino *Inode) Size() int64 {
	ino.mu.Lock()
	defer ino.mu.Unlock()
	return ino.size
}

// Engine is the shared kernel-FS machinery.
type Engine struct {
	cfg Config
	dev *nvm.Device

	root *Inode

	nextIno  atomic.Int64
	nextPage atomic.Int64 // bump allocator over the data region
	freeMu   lockprof.Mutex
	freeList []int64

	pools   sync.Map // tid -> *pagePool (per-thread allocators)
	poolSz  int64
	journal atomic.Int64 // rotating journal write offset
	jStart  int64
	jBytes  int64
	jMu     sync.Mutex // serializes journal byte copies across ring wrap

	// Strata: per-process log usage and the single kernel digestion
	// worker (digests from different processes serialize on it).
	procPending sync.Map // pid -> *atomic.Int64
	digestRes   simclock.Resource
}

// procLog returns a process's pending-log counter.
func (e *Engine) procLog(pid int) *atomic.Int64 {
	v, _ := e.procPending.LoadOrStore(pid, &atomic.Int64{})
	return v.(*atomic.Int64)
}

type pagePool struct {
	pages []int64
}

// NewEngine formats a device for a baseline FS.
func NewEngine(dev *nvm.Device, cfg Config) *Engine {
	e := &Engine{cfg: cfg, dev: dev}
	e.freeMu.Init("baseline.freelist", cfg.Name)
	// First 1024 pages are the journal/log area.
	e.jStart = 0
	e.jBytes = 1024 * pageSize
	e.nextPage.Store(1024)
	e.poolSz = 4096
	e.root = e.newInode(vfs.TypeDir, 0o755, 0, 0)
	return e
}

// Name implements vfs.FileSystem.
func (e *Engine) Name() string { return e.cfg.Name }

// Device returns the backing device.
func (e *Engine) Device() *nvm.Device { return e.dev }

func (e *Engine) newInode(typ vfs.FileType, mode coffer.Mode, uid, gid uint32) *Inode {
	ino := &Inode{
		ID: e.nextIno.Add(1), Typ: typ, Mode: mode, UID: uid, GID: gid, Nlink: 1,
	}
	ino.Lock.Init("baseline.inode", strconv.FormatInt(ino.ID, 10))
	if typ == vfs.TypeDir {
		ino.children = &sync.Map{}
	}
	return ino
}

// enter charges the per-operation entry cost.
func (e *Engine) enter(th *proc.Thread) {
	if !e.cfg.UserSpace {
		th.Syscall()
	}
	th.CPU(e.cfg.VFS)
}

// ---- allocation ----------------------------------------------------------------

// AllocPage returns a free page, through the configured allocator.
func (e *Engine) AllocPage(th *proc.Thread) int64 {
	if e.cfg.GlobalAlloc {
		// One big allocator lock: the PMFS behaviour that stops scaling
		// after ~4 threads (§6.1, Fig. 7d/7g). The hold covers the free
		// list/bitmap search and journaling the allocation.
		e.freeMu.Lock(th.Clk)
		th.CPU(globalAllocHold)
		var pg int64
		if n := len(e.freeList); n > 0 {
			pg = e.freeList[n-1]
			e.freeList = e.freeList[:n-1]
		} else {
			pg = e.nextPage.Add(1) - 1
		}
		e.freeMu.Unlock(th.Clk)
		return pg
	}
	// Per-thread pool (NOVA-style per-core allocator): refills are rare
	// because each pool takes a large share.
	v, _ := e.pools.LoadOrStore(th.TID, &pagePool{})
	pool := v.(*pagePool)
	th.CPU(perfmodel.CPUSmallOp)
	if len(pool.pages) == 0 {
		start := e.nextPage.Add(e.poolSz) - e.poolSz
		for pg := start + e.poolSz - 1; pg >= start; pg-- {
			pool.pages = append(pool.pages, pg)
		}
	}
	pg := pool.pages[len(pool.pages)-1]
	pool.pages = pool.pages[:len(pool.pages)-1]
	return pg
}

// FreePage returns a page to the allocator.
func (e *Engine) FreePage(th *proc.Thread, pg int64) {
	if e.cfg.GlobalAlloc {
		// Frees pay the same global-lock serialization as allocations.
		e.freeMu.Lock(th.Clk)
		th.CPU(globalAllocHold)
		e.freeList = append(e.freeList, pg)
		e.freeMu.Unlock(th.Clk)
		return
	}
	v, _ := e.pools.LoadOrStore(th.TID, &pagePool{})
	pool := v.(*pagePool)
	pool.pages = append(pool.pages, pg)
}

// JournalWrite appends n bytes to the journal/log area and returns the
// device offset written (media cost charged).
func (e *Engine) JournalWrite(th *proc.Thread, buf []byte) int64 {
	off := e.jStart + (e.journal.Add(int64(len(buf)))-int64(len(buf)))%(e.jBytes-int64(len(buf))-8)
	if off < 0 {
		off = e.jStart
	}
	// The cursor claim above is atomic, but once the ring wraps two
	// in-flight commits can alias the same slot; exclude the byte copy.
	// Virtual time is charged per-thread inside WriteNT, so this real-time
	// lock does not perturb simulated results.
	e.jMu.Lock()
	prev := th.Clk.SwapWriteClass(uint8(byteflow.ClassJournal))
	e.dev.WriteNT(th.Clk, off, buf)
	th.Clk.SetWriteClass(prev)
	e.jMu.Unlock()
	return off
}

// ---- namespace -----------------------------------------------------------------

// lookup walks a cleaned absolute path through the volatile dcache.
// A symlink anywhere but the final component is expanded and reported to
// the dispatcher via SymlinkError, keeping the vfs contract uniform.
func (e *Engine) lookup(th *proc.Thread, path string) (*Inode, error) {
	ino := e.root
	if path == "/" {
		return ino, nil
	}
	comps := strings.Split(path[1:], "/")
	for i, comp := range comps {
		th.CPU(perfmodel.DCacheLookup)
		if ino.Typ != vfs.TypeDir {
			return nil, vfs.ErrNotDir
		}
		v, ok := ino.children.Load(comp)
		if !ok {
			return nil, vfs.ErrNotExist
		}
		child := v.(*Inode)
		if child.Typ == vfs.TypeSymlink && i < len(comps)-1 {
			child.mu.Lock()
			target := child.target
			child.mu.Unlock()
			dir := "/" + strings.Join(comps[:i], "/")
			var base string
			if strings.HasPrefix(target, "/") {
				base = target
			} else {
				base = dir + "/" + target
			}
			rest := strings.Join(comps[i+1:], "/")
			return nil, &vfs.SymlinkError{Path: vfs.Clean(base + "/" + rest)}
		}
		ino = child
	}
	return ino, nil
}

// followFinal expands a symlink at the final path component.
func followFinal(path string, ino *Inode) error {
	if ino.Typ != vfs.TypeSymlink {
		return nil
	}
	ino.mu.Lock()
	target := ino.target
	ino.mu.Unlock()
	if strings.HasPrefix(target, "/") {
		return &vfs.SymlinkError{Path: vfs.Clean(target)}
	}
	dir, _ := vfs.SplitPath(path)
	return &vfs.SymlinkError{Path: vfs.Clean(dir + "/" + target)}
}

// lookupParent resolves the parent directory of path.
func (e *Engine) lookupParent(th *proc.Thread, path string) (*Inode, string, error) {
	dir, base := vfs.SplitPath(path)
	if base == "" {
		return nil, "", vfs.ErrInvalid
	}
	ino, err := e.lookup(th, dir)
	if err != nil {
		return nil, "", err
	}
	if ino.Typ != vfs.TypeDir {
		return nil, "", vfs.ErrNotDir
	}
	return ino, base, nil
}

func (e *Engine) access(th *proc.Thread, ino *Inode, write bool) {
	if e.cfg.Access != nil {
		e.cfg.Access(e, th, ino, write)
	}
}
