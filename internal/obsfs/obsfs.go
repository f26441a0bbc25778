// Package obsfs is where observation comes together. Begin is the one
// op-observation site: every operation is counted, its simulated latency
// histogrammed and windowed, and bracketed by a causal root span so
// lower-layer costs are attributed to it. FSLibs calls it at dispatch; Wrap
// puts it around a vfs.FileSystem for workloads that drive a file system
// directly through the vfs interface (FxMark, Filebench), bypassing the
// FSLibs dispatcher. Doc (doc.go) is the one observation document the
// collectors' snapshots are gathered into, rendered from, checked by
// (Validate) and published as (obs.json), and Session the run-wide
// collection that publishes it, whole and cut per benchmark cell.
//
// The wrapper is transparent for correctness but not for type identity:
// harness code that type-asserts on the concrete file system must wrap only
// after such assertions.
package obsfs

import (
	"zofs/internal/byteflow"
	"zofs/internal/coffer"
	"zofs/internal/nvm"
	"zofs/internal/proc"
	"zofs/internal/series"
	"zofs/internal/simclock"
	"zofs/internal/spans"
	"zofs/internal/telemetry"
	"zofs/internal/vfs"
)

// FS observes a wrapped file system.
type FS struct {
	inner vfs.FileSystem
	rec   *telemetry.Recorder
	// dev is the wrapped FS's backing device when it exposes one. The
	// wrapper is the single place application-payload bytes are credited to
	// the byte-flow ledger, uniformly for every system under test — the
	// inner FS never self-reports, so app bytes are counted exactly once.
	dev *nvm.Device
}

// deviced is implemented by file systems that expose their backing device
// (zofs.FS, baselines.Engine).
type deviced interface{ Device() *nvm.Device }

// spacer is implemented by file systems that can report per-coffer space
// (zofs.FS).
type spacer interface{ SpaceReport() []byteflow.CofferSpace }

// Wrap returns fs instrumented against rec (which may be nil — the nil
// recorder is a valid no-op sink) and the process-wide span and series
// collectors. With neither telemetry, spans, series nor device byte-flow
// accounting enabled it returns fs unchanged — no wrapping cost when
// observability is off.
//
// While a Session is publishing, a wrap over a device with byte-flow
// accounting on also tells it which instance is live, so the published
// document carries that instance's byte-flow and coffer-space panels.
func Wrap(fs vfs.FileSystem, rec *telemetry.Recorder) vfs.FileSystem {
	var dev *nvm.Device
	if d, ok := fs.(deviced); ok {
		dev = d.Device()
	}
	if rec == nil && spans.Active() == nil && series.Active() == nil && !dev.AccountingEnabled() {
		return fs
	}
	w := &FS{inner: fs, rec: rec, dev: dev}
	if session.Load() != nil && dev.AccountingEnabled() {
		live.Store(w)
	}
	return w
}

// Unwrap returns the wrapped file system (tooling, type assertions).
func (f *FS) Unwrap() vfs.FileSystem { return f.inner }

// Begin opens op's root span on the thread owning clk and returns the
// closure recording its completion into rec (nil is a valid no-op sink), the
// windowed series and the span collector — one function, so the three stores
// see the identical op stream. The closure is meant to run deferred so the
// span closes (and the latency is recorded) even when the op panics —
// injected crashes unwind through here, which is what keeps spans leak-free
// across crash tests. path's hash is stamped on the root span so traces can
// be grouped by file without recording names ("" for handle-level ops). With
// every sink off it returns a shared no-op and allocates nothing.
func Begin(rec *telemetry.Recorder, clk *simclock.Clock, op telemetry.Op, path string) func() {
	sp, sc := spans.FromClock(clk), series.Active()
	if rec == nil && sp == nil && sc == nil {
		return func() {}
	}
	start := clk.Now()
	sp.Begin(op, spans.PathHash(path), start)
	return func() {
		now := clk.Now()
		rec.Inc(telemetry.CtrDispatchOps)
		rec.Observe(op, now-start)
		sc.Observe(op, start, now-start)
		sp.End(now)
	}
}

func (f *FS) Name() string { return f.inner.Name() }

func (f *FS) Create(th *proc.Thread, path string, mode coffer.Mode) (vfs.Handle, error) {
	defer Begin(f.rec, th.Clk, telemetry.OpCreate, path)()
	h, err := f.inner.Create(th, path, mode)
	if err != nil {
		return h, err
	}
	return &handle{inner: h, fs: f}, nil
}

func (f *FS) Open(th *proc.Thread, path string, flags int) (vfs.Handle, error) {
	defer Begin(f.rec, th.Clk, telemetry.OpOpen, path)()
	h, err := f.inner.Open(th, path, flags)
	if err != nil {
		return h, err
	}
	return &handle{inner: h, fs: f}, nil
}

func (f *FS) Mkdir(th *proc.Thread, path string, mode coffer.Mode) error {
	defer Begin(f.rec, th.Clk, telemetry.OpMkdir, path)()
	return f.inner.Mkdir(th, path, mode)
}

func (f *FS) Unlink(th *proc.Thread, path string) error {
	defer Begin(f.rec, th.Clk, telemetry.OpUnlink, path)()
	return f.inner.Unlink(th, path)
}

func (f *FS) Rmdir(th *proc.Thread, path string) error {
	defer Begin(f.rec, th.Clk, telemetry.OpRmdir, path)()
	return f.inner.Rmdir(th, path)
}

func (f *FS) Rename(th *proc.Thread, oldPath, newPath string) error {
	defer Begin(f.rec, th.Clk, telemetry.OpRename, oldPath)()
	return f.inner.Rename(th, oldPath, newPath)
}

func (f *FS) Stat(th *proc.Thread, path string) (vfs.FileInfo, error) {
	defer Begin(f.rec, th.Clk, telemetry.OpStat, path)()
	return f.inner.Stat(th, path)
}

func (f *FS) Chmod(th *proc.Thread, path string, mode coffer.Mode) error {
	defer Begin(f.rec, th.Clk, telemetry.OpChmod, path)()
	return f.inner.Chmod(th, path, mode)
}

func (f *FS) Chown(th *proc.Thread, path string, uid, gid uint32) error {
	defer Begin(f.rec, th.Clk, telemetry.OpChown, path)()
	return f.inner.Chown(th, path, uid, gid)
}

func (f *FS) Symlink(th *proc.Thread, target, link string) error {
	defer Begin(f.rec, th.Clk, telemetry.OpSymlink, link)()
	return f.inner.Symlink(th, target, link)
}

func (f *FS) Readlink(th *proc.Thread, path string) (string, error) {
	defer Begin(f.rec, th.Clk, telemetry.OpReadlink, path)()
	return f.inner.Readlink(th, path)
}

func (f *FS) ReadDir(th *proc.Thread, path string) ([]vfs.DirEntry, error) {
	defer Begin(f.rec, th.Clk, telemetry.OpReadDir, path)()
	return f.inner.ReadDir(th, path)
}

func (f *FS) Truncate(th *proc.Thread, path string, size int64) error {
	defer Begin(f.rec, th.Clk, telemetry.OpTruncate, path)()
	return f.inner.Truncate(th, path, size)
}

// handle observes an open file's operations.
type handle struct {
	inner vfs.Handle
	fs    *FS
}

func (h *handle) ReadAt(th *proc.Thread, p []byte, off int64) (int, error) {
	defer Begin(h.fs.rec, th.Clk, telemetry.OpRead, "")()
	return h.inner.ReadAt(th, p, off)
}

func (h *handle) WriteAt(th *proc.Thread, p []byte, off int64) (int, error) {
	defer Begin(h.fs.rec, th.Clk, telemetry.OpWrite, "")()
	n, err := h.inner.WriteAt(th, p, off)
	h.fs.dev.AddAppBytes(int64(n))
	return n, err
}

func (h *handle) Append(th *proc.Thread, p []byte) (int64, error) {
	defer Begin(h.fs.rec, th.Clk, telemetry.OpAppend, "")()
	off, err := h.inner.Append(th, p)
	if err == nil {
		h.fs.dev.AddAppBytes(int64(len(p)))
	}
	return off, err
}

func (h *handle) Stat(th *proc.Thread) (vfs.FileInfo, error) {
	defer Begin(h.fs.rec, th.Clk, telemetry.OpStat, "")()
	return h.inner.Stat(th)
}

func (h *handle) Sync(th *proc.Thread) error {
	defer Begin(h.fs.rec, th.Clk, telemetry.OpFsync, "")()
	return h.inner.Sync(th)
}

func (h *handle) Close(th *proc.Thread) error {
	defer Begin(h.fs.rec, th.Clk, telemetry.OpClose, "")()
	return h.inner.Close(th)
}
