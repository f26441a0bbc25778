// Package fslibs implements the user-space half of Treasury (paper §3.2,
// §4.2): the library preloaded into applications. It contains the
// dispatcher that routes intercepted file system calls to the right µFS by
// coffer type, the user-space FD mapping table with POSIX lowest-FD
// semantics (dup-correct, serializable across exec), current-working-
// directory tracking, symlink re-dispatch, and the graceful-error-return
// mechanism that converts faults inside µFS code into file system errors
// instead of killing the process (§3.4.2).
package fslibs

import (
	"encoding/base64"
	"encoding/json"
	"errors"
	"fmt"
	"strconv"
	"strings"

	"zofs/internal/coffer"
	"zofs/internal/kernfs"
	"zofs/internal/lockprof"
	"zofs/internal/logfs"
	"zofs/internal/mpk"
	"zofs/internal/nvm"
	"zofs/internal/obsfs"
	"zofs/internal/proc"
	"zofs/internal/spans"
	"zofs/internal/telemetry"
	"zofs/internal/vfs"
	"zofs/internal/zofs"
)

// Options configures a Lib instance.
type Options struct {
	// MountPath is where the Treasury namespace appears in the process's
	// view; paths outside it are rejected (or routed to Fallback).
	// Defaults to "/".
	MountPath string
	// Fallback handles paths outside MountPath (the "kernel file system"
	// in the paper's dispatcher). Nil means such paths fail with
	// vfs.ErrNotExist.
	Fallback vfs.FileSystem
	// ZoFS options for the instantiated µFS.
	ZoFS zofs.Options
}

// Lib is one process's FSLibs instance.
type Lib struct {
	kern  *kernfs.KernFS
	opts  Options
	byTyp map[coffer.Type]vfs.FileSystem

	mu   lockprof.RealMutex // guards fds, low, free, every openFile and cwd; real-only, no virtual cost
	fds  []*openFile        // descriptor table: fd → open-file description, nil = unused
	low  int                // no unused descriptor number lies below it
	free *openFile          // descriptions awaiting reuse, linked through next
	cwd  string
}

// openFile is an open-file description (POSIX's term): what open creates and
// dup shares — the µFS handle, the flags and the offset. Descriptors are
// numbers that name one. refs counts the descriptors naming it plus the
// operations in flight on it (pin); whoever drops the last reference closes
// the handle and puts the struct on the free list, from where the next open
// takes it — so a description outlives its file, and an op that pinned one
// cannot find another file in it however the table changes meanwhile.
type openFile struct {
	h     vfs.Handle
	path  string
	flags int
	pos   int64
	refs  int32
	next  *openFile
}

// maxFDs bounds descriptor numbers (RLIMIT_NOFILE's role): the table is dense,
// so Dup2 onto an absurd number must fail rather than size it.
const maxFDs = 1 << 20

// Mount registers the process with KernFS (fs_mount) and builds the
// dispatcher with a ZoFS µFS attached for ZoFS-type coffers.
func Mount(kern *kernfs.KernFS, th *proc.Thread, opts Options) (*Lib, error) {
	if opts.MountPath == "" {
		opts.MountPath = "/"
	}
	if err := kern.FSMount(th); err != nil {
		return nil, err
	}
	l := &Lib{
		kern: kern,
		opts: opts,
		byTyp: map[coffer.Type]vfs.FileSystem{
			coffer.TypeZoFS: zofs.New(kern, opts.ZoFS),
			logfs.TypeLogFS: logfs.New(kern),
		},
		cwd: "/",
	}
	l.mu.Init("fslib.fds", strconv.Itoa(th.Proc.PID))
	return l, nil
}

// RegisterFS attaches a µFS for a coffer type (Treasury supports multiple
// µFS implementations side by side, §3.2).
func (l *Lib) RegisterFS(typ coffer.Type, fs vfs.FileSystem) { l.byTyp[typ] = fs }

// MicroFS returns the µFS the dispatcher routes coffers of type typ to.
func (l *Lib) MicroFS(typ coffer.Type) vfs.FileSystem { return l.byTyp[typ] }

// ZoFS returns the attached ZoFS instance (tooling, recovery).
func (l *Lib) ZoFS() *zofs.FS { return l.MicroFS(coffer.TypeZoFS).(*zofs.FS) }

// guard is the graceful-error-return mechanism: panics raised by MPK
// violations or wild device accesses inside µFS code are converted into a
// file system error, and the thread's protection window is force-closed —
// the analogue of the SIGSEGV handler's siglongjmp back to the FSLibs
// function entry (§3.4.2).
func (l *Lib) guard(th *proc.Thread, err *error) {
	r := recover()
	if r == nil {
		return
	}
	if nvm.IsInjectedCrash(r) {
		panic(r) // crash injection must propagate to the test harness
	}
	viol, isViolation := r.(mpk.Violation)
	if _, isFault := r.(nvm.Fault); !isFault && !isViolation {
		panic(r)
	}
	rec := l.kern.Device().Recorder()
	rec.Inc(telemetry.CtrFaultsRecovered)
	// The op survives with an error, but its span records the abort so
	// the attribution tables can separate faulted from clean latency.
	spans.FromClock(th.Clk).MarkAborted()
	th.CloseWindow()
	if isViolation {
		rec.Inc(telemetry.CtrMPKViolations)
		// Attribute the faulting page to its coffer and report it, so
		// repeated stray writes at one victim trip the kernel's read-only
		// quarantine (DESIGN.md §13) instead of faulting forever.
		if id, ok := l.kern.OwnerOf(viol.Page); ok {
			l.kern.ReportViolation(th, id)
		}
	}
	// The kernel may have changed our mappings behind the library's
	// back (recovery unmaps coffers, §3.5; quarantine downgrades or
	// evicts them): drop cached mappings so the next operation re-issues
	// coffer_map and observes the typed quarantine error.
	if z, ok := l.byTyp[coffer.TypeZoFS].(*zofs.FS); ok {
		z.InvalidateAll()
	}
	*err = fmt.Errorf("%w: fault inside FS library: %v", vfs.ErrIO, r)
}

// trace starts a per-op observation against the thread's virtual clock
// (obsfs.Begin), returning the closure that records it. Deferred textually
// before guard so it observes the clock after any fault recovery has been
// charged — and, for spans, so the root closes after guard has marked it
// aborted.
func (l *Lib) trace(th *proc.Thread, op telemetry.Op) func() {
	return l.traceAt(th, op, "")
}

// traceAt is trace for path-taking operations, whose root span carries the
// path's hash.
func (l *Lib) traceAt(th *proc.Thread, op telemetry.Op, path string) func() {
	return obsfs.Begin(th.Clk, op, path)
}

// resolve normalizes a path against the CWD and checks the mount point,
// returning the µFS-internal path.
func (l *Lib) resolve(path string) (string, bool) {
	if !strings.HasPrefix(path, "/") {
		l.mu.Lock()
		path = l.cwd + "/" + path
		l.mu.Unlock()
	}
	path = vfs.Clean(path)
	mp := l.opts.MountPath
	if mp == "/" {
		return path, true
	}
	if path == mp {
		return "/", true
	}
	if strings.HasPrefix(path, mp+"/") {
		return path[len(mp):], true
	}
	return path, false
}

// fsFor picks the µFS for a path by the enclosing coffer's type (§4.2:
// "dispatch the system calls to the corresponding µFS according to the
// coffer type").
func (l *Lib) fsFor(th *proc.Thread, path string) (vfs.FileSystem, error) {
	id, _, ok := l.kern.ResolveLongest(th.Clk, path)
	if !ok {
		return nil, vfs.ErrNotExist
	}
	info, ok := l.kern.Info(id)
	if !ok {
		return nil, vfs.ErrNotExist
	}
	fs := l.byTyp[info.Type]
	if fs == nil {
		return nil, fmt.Errorf("%w: no µFS for coffer type %d", vfs.ErrInvalid, info.Type)
	}
	return fs, nil
}

// dispatch runs op against the µFS for path, re-dispatching on symlink
// expansion (§4.2: "the new path will be returned to the dispatcher, which
// will re-dispatch the file request").
func (l *Lib) dispatch(th *proc.Thread, path string, op func(fs vfs.FileSystem, p string) error) error {
	sp := spans.FromClock(th.Clk)
	p, inMount := l.resolve(path)
	_, err := vfs.Follow(p, func(p string) (struct{}, error) {
		t0 := th.Clk.Now()
		fs := l.opts.Fallback
		if inMount {
			var err error
			if fs, err = l.fsFor(th, p); err != nil {
				return struct{}{}, err
			}
		} else if fs == nil {
			return struct{}{}, vfs.ErrNotExist
		}
		// Coffer-type routing (resolve + ResolveLongest) is the dispatcher's
		// own cost; record it as a child span per hop so symlink re-dispatch
		// shows up as repeated dispatch segments on the timeline.
		sp.Child("fslib.dispatch", t0, th.Clk.Now()-t0)
		return struct{}{}, op(fs, p)
	})
	return err
}

// ---- FD table ----------------------------------------------------------------

// at returns the description fd names, nil if it names none. Caller holds mu.
func (l *Lib) at(fd int) *openFile {
	if fd < 0 || fd >= len(l.fds) {
		return nil
	}
	return l.fds[fd]
}

// lowestFree returns the lowest unused FD number — the dup() guarantee the
// paper calls out as incompatible with range-split FD schemes (§4.2). Caller
// holds mu.
func (l *Lib) lowestFree() int {
	for l.low < len(l.fds) && l.fds[l.low] != nil {
		l.low++
	}
	return l.low
}

// install makes the unused number fd name f, which gains a reference. Caller
// holds mu.
func (l *Lib) install(fd int, f *openFile) {
	if fd >= len(l.fds) {
		l.fds = append(l.fds, make([]*openFile, fd+1-len(l.fds))...)
	}
	l.fds[fd] = f
	f.refs++
}

// drop makes fd unused and returns the description it named, nil if none; the
// caller, who holds mu, owes that description an unref once it has let go.
func (l *Lib) drop(fd int) *openFile {
	f := l.at(fd)
	if f != nil {
		l.fds[fd] = nil
		l.low = min(l.low, fd)
	}
	return f
}

// newFile takes a description off the free list. Caller holds mu.
func (l *Lib) newFile(h vfs.Handle, path string, flags int, pos int64) *openFile {
	f := l.free
	if f == nil {
		f = new(openFile)
	}
	l.free = f.next
	*f = openFile{h: h, path: path, flags: flags, pos: pos}
	return f
}

// pin resolves fd for one operation and holds the description: until the
// matching unref no close — of this number or of a duplicate — closes the µFS
// handle or lets an open reuse the struct.
func (l *Lib) pin(fd int) (*openFile, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	f := l.at(fd)
	if f == nil {
		return nil, vfs.ErrBadFD
	}
	f.refs++
	return f, nil
}

// unref drops one reference: a descriptor's when it is closed or displaced, an
// operation's pin when it returns. The last one out closes the µFS handle.
func (l *Lib) unref(th *proc.Thread, f *openFile) error {
	var h vfs.Handle
	l.mu.Lock()
	if f.refs--; f.refs == 0 {
		h = f.h
		*f = openFile{next: l.free}
		l.free = f
	}
	l.mu.Unlock()
	if h == nil {
		return nil
	}
	return h.Close(th)
}

// Open opens path, returning the new FD. O_CREATE is one probe through the
// µFS interface, not a Stat before the Create: open what is there, and create
// only when the µFS says nothing is. An exclusive create never uses what the
// probe opened, so it probes read-only — no truncation, no write access
// needed to learn that the name is taken. The probe and the create are two
// µFS calls, so O_EXCL is not atomic against a concurrent creator (nor were
// the Stat and Create this replaces); that needs a create-if-absent method on
// vfs.FileSystem.
func (l *Lib) Open(th *proc.Thread, path string, flags int, mode coffer.Mode) (fd int, err error) {
	defer l.traceAt(th, telemetry.OpOpen, path)()
	defer l.guard(th, &err)
	probe := flags &^ (vfs.O_CREATE | vfs.O_EXCL)
	excl := flags&(vfs.O_CREATE|vfs.O_EXCL) == vfs.O_CREATE|vfs.O_EXCL
	if excl {
		probe = vfs.O_RDONLY
	}
	var h vfs.Handle
	var finalPath string
	err = l.dispatch(th, path, func(fs vfs.FileSystem, p string) error {
		finalPath = p
		var e error
		h, e = fs.Open(th, p, probe)
		switch {
		case flags&vfs.O_CREATE == 0:
		case e == nil && excl:
			h.Close(th)
			return vfs.ErrExist
		case errors.Is(e, vfs.ErrNotExist):
			h, e = fs.Create(th, p, mode)
		}
		return e
	})
	if err != nil {
		return -1, err
	}
	var pos int64
	if flags&vfs.O_APPEND != 0 {
		if fi, serr := h.Stat(th); serr == nil {
			pos = fi.Size
		}
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	fd = l.lowestFree()
	l.install(fd, l.newFile(h, finalPath, flags, pos))
	return fd, nil
}

// Create is creat(2): create-or-truncate, write-only FD.
func (l *Lib) Create(th *proc.Thread, path string, mode coffer.Mode) (int, error) {
	return l.Open(th, path, vfs.O_CREATE|vfs.O_TRUNC|vfs.O_RDWR, mode)
}

// Close releases an FD. The file itself is closed when its last descriptor
// is, and not before an operation in flight on it has returned.
func (l *Lib) Close(th *proc.Thread, fd int) (err error) {
	defer l.trace(th, telemetry.OpClose)()
	defer l.guard(th, &err)
	l.mu.Lock()
	f := l.drop(fd)
	l.mu.Unlock()
	if f == nil {
		return vfs.ErrBadFD
	}
	return l.unref(th, f)
}

// Dup duplicates an FD onto the lowest available number. Both numbers name
// one description: shared offset, as with POSIX dup, and the file stays open
// until both are closed.
func (l *Lib) Dup(fd int) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	f := l.at(fd)
	if f == nil {
		return -1, vfs.ErrBadFD
	}
	nfd := l.lowestFree()
	l.install(nfd, f)
	return nfd, nil
}

// Dup2 duplicates an FD onto a specific number, closing any previous one.
// That implicit close may reclaim an unlinked file's pages, so it runs under
// guard like Close: a fault in it is Dup2's error (§3.4.2), reported after
// the duplicate has taken the number.
func (l *Lib) Dup2(th *proc.Thread, fd, to int) (nfd int, err error) {
	nfd = -1 // what a fault recovered by guard returns beside its error
	defer l.guard(th, &err)
	if to < 0 || to >= maxFDs {
		return -1, vfs.ErrBadFD
	}
	l.mu.Lock()
	f := l.at(fd)
	var old *openFile
	if f != nil {
		old = l.drop(to)
		l.install(to, f)
	}
	l.mu.Unlock()
	if f == nil {
		return -1, vfs.ErrBadFD
	}
	if old != nil {
		l.unref(th, old)
	}
	return to, nil
}

// Read reads from the FD's current offset.
func (l *Lib) Read(th *proc.Thread, fd int, buf []byte) (n int, err error) {
	defer l.trace(th, telemetry.OpRead)()
	defer l.guard(th, &err)
	e, err := l.pin(fd)
	if err != nil {
		return 0, err
	}
	defer l.unref(th, e)
	l.mu.Lock()
	pos := e.pos
	l.mu.Unlock()
	n, err = e.h.ReadAt(th, buf, pos)
	l.mu.Lock()
	e.pos = pos + int64(n)
	l.mu.Unlock()
	return n, err
}

// Write writes at the FD's current offset (or atomically at EOF for
// O_APPEND FDs).
func (l *Lib) Write(th *proc.Thread, fd int, buf []byte) (n int, err error) {
	defer l.trace(th, telemetry.OpWrite)()
	defer l.guard(th, &err)
	e, err := l.pin(fd)
	if err != nil {
		return 0, err
	}
	defer l.unref(th, e)
	if e.flags&vfs.O_APPEND != 0 {
		off, aerr := e.h.Append(th, buf)
		if aerr != nil {
			return 0, aerr
		}
		l.kern.Device().AddAppBytes(int64(len(buf)))
		l.mu.Lock()
		e.pos = off + int64(len(buf))
		l.mu.Unlock()
		return len(buf), nil
	}
	l.mu.Lock()
	pos := e.pos
	l.mu.Unlock()
	n, err = e.h.WriteAt(th, buf, pos)
	// The dispatcher is the application boundary for preloaded programs, so
	// it credits the byte-flow ledger's app bytes — the same role obsfs
	// plays for the benchmark harnesses.
	l.kern.Device().AddAppBytes(int64(n))
	l.mu.Lock()
	e.pos = pos + int64(n)
	l.mu.Unlock()
	return n, err
}

// Pread reads at an explicit offset without moving the FD offset.
func (l *Lib) Pread(th *proc.Thread, fd int, buf []byte, off int64) (n int, err error) {
	defer l.trace(th, telemetry.OpRead)()
	defer l.guard(th, &err)
	e, err := l.pin(fd)
	if err != nil {
		return 0, err
	}
	defer l.unref(th, e)
	return e.h.ReadAt(th, buf, off)
}

// Pwrite writes at an explicit offset without moving the FD offset.
func (l *Lib) Pwrite(th *proc.Thread, fd int, buf []byte, off int64) (n int, err error) {
	defer l.trace(th, telemetry.OpWrite)()
	defer l.guard(th, &err)
	e, err := l.pin(fd)
	if err != nil {
		return 0, err
	}
	defer l.unref(th, e)
	n, err = e.h.WriteAt(th, buf, off)
	l.kern.Device().AddAppBytes(int64(n))
	return n, err
}

// Lseek whence values.
const (
	SeekSet = 0
	SeekCur = 1
	SeekEnd = 2
)

// Lseek repositions the FD offset. SeekEnd enters the µFS for the size, so it
// does that under guard and before taking l.mu: the inode lock it may wait on
// in virtual time must not stall the process's other FD operations.
func (l *Lib) Lseek(th *proc.Thread, fd int, off int64, whence int) (pos int64, err error) {
	defer l.guard(th, &err)
	e, err := l.pin(fd)
	if err != nil {
		return 0, err
	}
	defer l.unref(th, e)
	var size int64
	if whence == SeekEnd {
		fi, serr := e.h.Stat(th)
		if serr != nil {
			return 0, serr
		}
		size = fi.Size
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	var base int64
	switch whence {
	case SeekSet:
	case SeekCur:
		base = e.pos
	case SeekEnd:
		base = size
	default:
		return 0, vfs.ErrInvalid
	}
	if base+off < 0 {
		return 0, vfs.ErrInvalid
	}
	e.pos = base + off
	return e.pos, nil
}

// Fsync persists an FD (synchronous µFSs make this a no-op).
func (l *Lib) Fsync(th *proc.Thread, fd int) (err error) {
	defer l.trace(th, telemetry.OpFsync)()
	defer l.guard(th, &err)
	e, err := l.pin(fd)
	if err != nil {
		return err
	}
	defer l.unref(th, e)
	return e.h.Sync(th)
}

// Fstat stats an open FD.
func (l *Lib) Fstat(th *proc.Thread, fd int) (fi vfs.FileInfo, err error) {
	defer l.trace(th, telemetry.OpStat)()
	defer l.guard(th, &err)
	e, err := l.pin(fd)
	if err != nil {
		return vfs.FileInfo{}, err
	}
	defer l.unref(th, e)
	return e.h.Stat(th)
}

// Ftruncate resizes an open FD.
func (l *Lib) Ftruncate(th *proc.Thread, fd int, size int64) (err error) {
	defer l.trace(th, telemetry.OpTruncate)()
	defer l.guard(th, &err)
	e, err := l.pin(fd)
	if err != nil {
		return err
	}
	defer l.unref(th, e)
	return l.dispatch(th, e.path, func(fs vfs.FileSystem, p string) error {
		return fs.Truncate(th, p, size)
	})
}

// ---- path operations -----------------------------------------------------------

// Stat stats a path (following symlinks).
func (l *Lib) Stat(th *proc.Thread, path string) (fi vfs.FileInfo, err error) {
	defer l.traceAt(th, telemetry.OpStat, path)()
	defer l.guard(th, &err)
	err = l.dispatch(th, path, func(fs vfs.FileSystem, p string) error {
		var e error
		fi, e = fs.Stat(th, p)
		return e
	})
	return fi, err
}

// Mkdir creates a directory.
func (l *Lib) Mkdir(th *proc.Thread, path string, mode coffer.Mode) (err error) {
	defer l.traceAt(th, telemetry.OpMkdir, path)()
	defer l.guard(th, &err)
	return l.dispatch(th, path, func(fs vfs.FileSystem, p string) error {
		return fs.Mkdir(th, p, mode)
	})
}

// Unlink removes a file.
func (l *Lib) Unlink(th *proc.Thread, path string) (err error) {
	defer l.traceAt(th, telemetry.OpUnlink, path)()
	defer l.guard(th, &err)
	return l.dispatch(th, path, func(fs vfs.FileSystem, p string) error {
		return fs.Unlink(th, p)
	})
}

// Rmdir removes an empty directory.
func (l *Lib) Rmdir(th *proc.Thread, path string) (err error) {
	defer l.traceAt(th, telemetry.OpRmdir, path)()
	defer l.guard(th, &err)
	return l.dispatch(th, path, func(fs vfs.FileSystem, p string) error {
		return fs.Rmdir(th, p)
	})
}

// Rename moves a file or directory.
func (l *Lib) Rename(th *proc.Thread, oldPath, newPath string) (err error) {
	defer l.traceAt(th, telemetry.OpRename, oldPath)()
	defer l.guard(th, &err)
	np, inMount := l.resolve(newPath)
	if !inMount {
		return vfs.ErrCrossDevice
	}
	return l.dispatch(th, oldPath, func(fs vfs.FileSystem, p string) error {
		return fs.Rename(th, p, np)
	})
}

// Chmod changes permission bits.
func (l *Lib) Chmod(th *proc.Thread, path string, mode coffer.Mode) (err error) {
	defer l.traceAt(th, telemetry.OpChmod, path)()
	defer l.guard(th, &err)
	return l.dispatch(th, path, func(fs vfs.FileSystem, p string) error {
		return fs.Chmod(th, p, mode)
	})
}

// Chown changes ownership.
func (l *Lib) Chown(th *proc.Thread, path string, uid, gid uint32) (err error) {
	defer l.traceAt(th, telemetry.OpChown, path)()
	defer l.guard(th, &err)
	return l.dispatch(th, path, func(fs vfs.FileSystem, p string) error {
		return fs.Chown(th, p, uid, gid)
	})
}

// Symlink creates a symbolic link.
func (l *Lib) Symlink(th *proc.Thread, target, link string) (err error) {
	defer l.traceAt(th, telemetry.OpSymlink, link)()
	defer l.guard(th, &err)
	return l.dispatch(th, link, func(fs vfs.FileSystem, p string) error {
		return fs.Symlink(th, target, p)
	})
}

// Readlink reads a symlink's target.
func (l *Lib) Readlink(th *proc.Thread, path string) (target string, err error) {
	defer l.traceAt(th, telemetry.OpReadlink, path)()
	defer l.guard(th, &err)
	err = l.dispatch(th, path, func(fs vfs.FileSystem, p string) error {
		var e error
		target, e = fs.Readlink(th, p)
		return e
	})
	return target, err
}

// ReadDir lists a directory. The µFS's result is passed through unchanged:
// like readdir(3)'s, it may be storage owned by th that th's next ReadDir
// overwrites (vfs.FileSystem.ReadDir), so a caller keeping it clones it.
func (l *Lib) ReadDir(th *proc.Thread, path string) (ents []vfs.DirEntry, err error) {
	defer l.traceAt(th, telemetry.OpReadDir, path)()
	defer l.guard(th, &err)
	err = l.dispatch(th, path, func(fs vfs.FileSystem, p string) error {
		var e error
		ents, e = fs.ReadDir(th, p)
		return e
	})
	return ents, err
}

// Truncate resizes a file by path.
func (l *Lib) Truncate(th *proc.Thread, path string, size int64) (err error) {
	defer l.traceAt(th, telemetry.OpTruncate, path)()
	defer l.guard(th, &err)
	return l.dispatch(th, path, func(fs vfs.FileSystem, p string) error {
		return fs.Truncate(th, p, size)
	})
}

// Chdir changes the maintained working directory (§4.2: "we prepend the
// maintained current working directory path to the relative path").
func (l *Lib) Chdir(th *proc.Thread, path string) error {
	fi, err := l.Stat(th, path)
	if err != nil {
		return err
	}
	if fi.Type != vfs.TypeDir {
		return vfs.ErrNotDir
	}
	p, _ := l.resolve(path)
	l.mu.Lock()
	l.cwd = p
	l.mu.Unlock()
	return nil
}

// Getcwd returns the maintained working directory.
func (l *Lib) Getcwd() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.cwd
}

// ---- vfs.FileSystem view ---------------------------------------------------------

// FS returns the process's dispatcher as a vfs.FileSystem, so what drives a
// µFS — the conformance suite, vfs.Op, vfs.Model.Check — drives FSLibs too,
// through the same resolution, guard and tracing as an application. Path
// operations are the Lib's own; a handle is a descriptor.
func (l *Lib) FS() vfs.FileSystem { return libFS{l} }

// libFS's promoted Lib methods are its path operations; Create and Open
// return descriptors wrapped as handles.
type libFS struct{ *Lib }

func (libFS) Name() string { return "FSLibs" }

func (f libFS) Create(th *proc.Thread, path string, mode coffer.Mode) (vfs.Handle, error) {
	return f.handle(f.Lib.Create(th, path, mode))
}

// Open creates with mode 0o644 under O_CREATE, as the µFSs' Open does.
func (f libFS) Open(th *proc.Thread, path string, flags int) (vfs.Handle, error) {
	return f.handle(f.Lib.Open(th, path, flags, 0o644))
}

func (f libFS) handle(fd int, err error) (vfs.Handle, error) {
	if err != nil {
		return nil, err
	}
	return fdHandle{f.Lib, fd}, nil
}

// fdHandle is a descriptor as a vfs.Handle: each call is the Lib's positional
// call on it, and Close closes the descriptor.
type fdHandle struct {
	l  *Lib
	fd int
}

func (h fdHandle) ReadAt(th *proc.Thread, p []byte, off int64) (int, error) {
	return h.l.Pread(th, h.fd, p, off)
}

func (h fdHandle) WriteAt(th *proc.Thread, p []byte, off int64) (int, error) {
	return h.l.Pwrite(th, h.fd, p, off)
}

// Append appends through the description's µFS handle, which reports where
// the bytes landed; Write on an O_APPEND descriptor does not.
func (h fdHandle) Append(th *proc.Thread, p []byte) (off int64, err error) {
	defer h.l.trace(th, telemetry.OpWrite)()
	defer h.l.guard(th, &err)
	e, err := h.l.pin(h.fd)
	if err != nil {
		return 0, err
	}
	defer h.l.unref(th, e)
	if off, err = e.h.Append(th, p); err == nil {
		h.l.kern.Device().AddAppBytes(int64(len(p)))
	}
	return off, err
}

func (h fdHandle) Stat(th *proc.Thread) (vfs.FileInfo, error) { return h.l.Fstat(th, h.fd) }
func (h fdHandle) Sync(th *proc.Thread) error                 { return h.l.Fsync(th, h.fd) }
func (h fdHandle) Close(th *proc.Thread) error                { return h.l.Close(th, h.fd) }

// ---- exec FD-table serialization -------------------------------------------------

// fdEnvVar is the dedicated environment variable carrying the FD table
// across exec (§4.2: "we serialize the FD mapping table content using
// base64 and pass it across exec calls").
const fdEnvVar = "ZOFS_FDTABLE"

// fdRecord is one descriptor. Records with equal Desc name one description
// (they were dup'ed from each other) and agree on everything but FD.
type fdRecord struct {
	FD    int    `json:"fd"`
	Desc  int    `json:"desc"`
	Path  string `json:"path"`
	Flags int    `json:"flags"`
	Pos   int64  `json:"pos"`
}

// SerializeFDs encodes the FD table for exec, returning the environment
// entry ("ZOFS_FDTABLE=...").
func (l *Lib) SerializeFDs() (string, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	recs := make([]fdRecord, 0, len(l.fds))
	descs := map[*openFile]int{}
	for fd, f := range l.fds {
		if f == nil {
			continue
		}
		d, seen := descs[f]
		if !seen {
			d = len(descs)
			descs[f] = d
		}
		recs = append(recs, fdRecord{FD: fd, Desc: d, Path: f.path, Flags: f.flags, Pos: f.pos})
	}
	raw, err := json.Marshal(recs)
	if err != nil {
		return "", err
	}
	return fdEnvVar + "=" + base64.StdEncoding.EncodeToString(raw), nil
}

// RestoreFDs rebuilds the FD table in a freshly exec'd process from the
// environment entry produced by SerializeFDs.
func (l *Lib) RestoreFDs(th *proc.Thread, env string) error {
	v, ok := strings.CutPrefix(env, fdEnvVar+"=")
	if !ok {
		return fmt.Errorf("fslibs: bad FD-table env entry")
	}
	raw, err := base64.StdEncoding.DecodeString(v)
	if err != nil {
		return err
	}
	var recs []fdRecord
	if err := json.Unmarshal(raw, &recs); err != nil {
		return err
	}
	descs := map[int]*openFile{} // one reopen per description, shared by its FDs
	for _, r := range recs {
		l.mu.Lock()
		taken := r.FD < 0 || r.FD >= maxFDs || l.at(r.FD) != nil
		l.mu.Unlock()
		if taken {
			continue // not a table SerializeFDs wrote
		}
		f, seen := descs[r.Desc]
		if !seen {
			// A file that vanished or whose coffer faulted leaves its FDs
			// simply absent, as after a failed reopen.
			if h, derr := l.reopen(th, r.Path, r.Flags&^(vfs.O_TRUNC|vfs.O_EXCL|vfs.O_CREATE)); derr == nil {
				l.mu.Lock()
				f = l.newFile(h, r.Path, r.Flags, r.Pos)
				l.mu.Unlock()
			}
			descs[r.Desc] = f
		}
		if f != nil {
			l.mu.Lock()
			l.install(r.FD, f)
			l.mu.Unlock()
		}
	}
	return nil
}

// reopen opens one restored FD's file, under guard like any other entry into
// the µFS.
func (l *Lib) reopen(th *proc.Thread, path string, flags int) (h vfs.Handle, err error) {
	defer l.guard(th, &err)
	err = l.dispatch(th, path, func(fs vfs.FileSystem, p string) error {
		var e error
		h, e = fs.Open(th, p, flags)
		return e
	})
	return h, err
}

// Exec simulates execve through Treasury: the FD table is serialized into
// the environment, the kernel validates/maps the executable (file_execve),
// and a fresh Lib for the same process is returned with the FD table
// restored.
func (l *Lib) Exec(th *proc.Thread, exePath string) (*Lib, error) {
	env, err := l.SerializeFDs()
	if err != nil {
		return nil, err
	}
	p, inMount := l.resolve(exePath)
	if !inMount {
		return nil, vfs.ErrNotExist
	}
	id, _, ok := l.kern.ResolveLongest(th.Clk, p)
	if !ok {
		return nil, vfs.ErrNotExist
	}
	if err := l.kern.FileExecve(th, id, nil); err != nil && !errors.Is(err, kernfs.ErrNotMapped) {
		return nil, err
	}
	// The process image is replaced: fresh library state, same process.
	nl := &Lib{
		kern: l.kern,
		opts: l.opts,
		byTyp: map[coffer.Type]vfs.FileSystem{
			coffer.TypeZoFS: zofs.New(l.kern, l.opts.ZoFS),
			logfs.TypeLogFS: logfs.New(l.kern),
		},
		cwd: l.Getcwd(),
	}
	if err := nl.RestoreFDs(th, env); err != nil {
		return nil, err
	}
	return nl, nil
}
