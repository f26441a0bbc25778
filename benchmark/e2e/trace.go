package e2e

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"zofs/internal/coffer"
	"zofs/internal/proc"
	"zofs/internal/vfs"
)

// Span is one interval recorded by the benchmark around a call into a layer:
// a root span per driver op (Parent -1) and a child span per call crossing
// the fslibs→zofs (or sqldb→zofs) boundary. Both clocks are kept: host
// nanoseconds since the tracer started, and the calling thread's virtual ns.
type Span struct {
	ID, Parent int32
	Layer      uint8 // layerOp or layerZoFS
	Name       uint8 // index into the workload's kind names / zofsCallNames
	TID        int32
	HostStart  int64
	HostEnd    int64
	VStart     int64
	VEnd       int64
}

const (
	layerOp uint8 = iota
	layerZoFS
)

// zofs boundary call names, indexed by Span.Name for layerZoFS spans.
const (
	zcCreate uint8 = iota
	zcOpen
	zcMkdir
	zcUnlink
	zcRmdir
	zcRename
	zcStat
	zcChmod
	zcChown
	zcSymlink
	zcReadlink
	zcReadDir
	zcTruncate
	zcReadAt
	zcWriteAt
	zcAppend
	zcHStat
	zcSync
	zcClose
)

var zofsCallNames = [...]string{
	"create", "open", "mkdir", "unlink", "rmdir", "rename", "stat", "chmod",
	"chown", "symlink", "readlink", "readdir", "truncate", "read_at",
	"write_at", "append", "handle_stat", "sync", "close",
}

// maxSpans bounds the in-memory span store. Spans beyond it are still timed
// (the layer totals stay exact) but not kept; Dropped counts them.
const maxSpans = 1 << 19

// Tracer keeps spans in memory during the traced run; nothing is written
// until WriteSpans, after the timed region. A nil *Tracer is the untraced
// case: Begin/End return at once, so the end-to-end loops carry one
// predictable branch per op and no clock read. The stack under test runs on
// one goroutine, so the tracer needs no lock.
type Tracer struct {
	t0      time.Time
	spans   []Span
	Dropped int64

	root      int32 // index of the open root span, -1 when none or dropped
	rootStart int64
	rootOpen  bool

	// Host time inside driver ops and inside zofs boundary calls, summed
	// over every span whether kept or dropped.
	OpNS, ZoFSNS int64
	Ops, Calls   int64
	// Kind sums root spans per op kind on both clocks.
	Kind [maxKinds]KindTotal

	curKind uint8
	curVNS  int64
	stopped bool
}

const maxKinds = 16

// KindTotal is the count and both-clock time of one op kind's root spans.
type KindTotal struct{ N, HostNS, VNS int64 }

// NewTracer allocates the span store up front.
func NewTracer() *Tracer {
	return &Tracer{t0: time.Now(), spans: make([]Span, 0, maxSpans), root: -1}
}

// Reset discards spans and totals (between warm-up and the timed region).
func (t *Tracer) Reset() {
	if t == nil {
		return
	}
	t.spans = t.spans[:0]
	t.Dropped, t.OpNS, t.ZoFSNS, t.Ops, t.Calls = 0, 0, 0, 0, 0
	t.Kind = [maxKinds]KindTotal{}
	t.root, t.rootOpen, t.stopped = -1, false, false
	t.t0 = time.Now()
}

// Stop ends recording: calls that cross the boundary afterwards (the
// verifier's) are neither timed nor kept.
func (t *Tracer) Stop() {
	if t != nil {
		t.stopped = true
	}
}

func (t *Tracer) push(s Span) int32 {
	if len(t.spans) == cap(t.spans) {
		t.Dropped++
		return -1
	}
	s.ID = int32(len(t.spans))
	t.spans = append(t.spans, s)
	return s.ID
}

// Begin opens the root span of one driver op.
func (t *Tracer) Begin(kind uint8, tid int, vnow int64) {
	if t == nil {
		return
	}
	now := int64(time.Since(t.t0))
	t.rootStart, t.rootOpen = now, true
	t.curKind, t.curVNS = kind, vnow
	t.root = t.push(Span{Parent: -1, Layer: layerOp, Name: kind, TID: int32(tid), HostStart: now, VStart: vnow})
}

// End closes the root span opened by Begin.
func (t *Tracer) End(vnow int64) {
	if t == nil {
		return
	}
	now := int64(time.Since(t.t0))
	t.OpNS += now - t.rootStart
	t.Ops++
	k := &t.Kind[t.curKind%maxKinds]
	k.N, k.HostNS, k.VNS = k.N+1, k.HostNS+now-t.rootStart, k.VNS+vnow-t.curVNS
	if t.root >= 0 {
		s := &t.spans[t.root]
		s.HostEnd, s.VEnd = now, vnow
	}
	t.root, t.rootOpen = -1, false
}

// enter opens a zofs boundary span under the current root.
func (t *Tracer) enter(name uint8, th *proc.Thread) (idx int32, start int64) {
	if t.stopped {
		return -1, -1
	}
	start = int64(time.Since(t.t0))
	parent := int32(-1)
	if t.rootOpen {
		parent = t.root
	}
	idx = t.push(Span{Parent: parent, Layer: layerZoFS, Name: name, TID: int32(th.TID), HostStart: start, VStart: th.Clk.Now()})
	return idx, start
}

func (t *Tracer) leave(idx int32, start int64, th *proc.Thread) {
	if start < 0 {
		return
	}
	now := int64(time.Since(t.t0))
	t.ZoFSNS += now - start
	t.Calls++
	if idx >= 0 {
		s := &t.spans[idx]
		s.HostEnd, s.VEnd = now, th.Clk.Now()
	}
}

// WriteSpans writes the kept spans as JSON lines to dir/<name>.spans.jsonl.
func (t *Tracer) WriteSpans(dir, name string, kindNames []string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, name+".spans.jsonl"))
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	for _, s := range t.spans {
		layer, nm := "op", ""
		if s.Layer == layerZoFS {
			layer, nm = "zofs", zofsCallNames[s.Name]
		} else if int(s.Name) < len(kindNames) {
			nm = kindNames[s.Name]
		}
		fmt.Fprintf(w, `{"id":%d,"parent":%d,"layer":%q,"name":%q,"tid":%d,"host_start_ns":%d,"host_end_ns":%d,"v_start_ns":%d,"v_end_ns":%d}`+"\n",
			s.ID, s.Parent, layer, nm, s.TID, s.HostStart, s.HostEnd, s.VStart, s.VEnd)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// tracedFS interposes on the fslibs→zofs boundary (installed with
// Lib.RegisterFS) and, for app_tpcc, on the sqldb→zofs boundary. It only
// times calls; results pass through untouched.
type tracedFS struct {
	inner vfs.FileSystem
	tr    *Tracer
}

var _ vfs.FileSystem = (*tracedFS)(nil)

func (f *tracedFS) Name() string { return f.inner.Name() }

func (f *tracedFS) wrap(h vfs.Handle, err error) (vfs.Handle, error) {
	if err != nil || h == nil {
		return h, err
	}
	return &tracedHandle{inner: h, tr: f.tr}, nil
}

func (f *tracedFS) Create(th *proc.Thread, path string, mode coffer.Mode) (vfs.Handle, error) {
	i, s := f.tr.enter(zcCreate, th)
	h, err := f.inner.Create(th, path, mode)
	f.tr.leave(i, s, th)
	return f.wrap(h, err)
}

func (f *tracedFS) Open(th *proc.Thread, path string, flags int) (vfs.Handle, error) {
	i, s := f.tr.enter(zcOpen, th)
	h, err := f.inner.Open(th, path, flags)
	f.tr.leave(i, s, th)
	return f.wrap(h, err)
}

func (f *tracedFS) Mkdir(th *proc.Thread, path string, mode coffer.Mode) error {
	i, s := f.tr.enter(zcMkdir, th)
	defer f.tr.leave(i, s, th)
	return f.inner.Mkdir(th, path, mode)
}

func (f *tracedFS) Unlink(th *proc.Thread, path string) error {
	i, s := f.tr.enter(zcUnlink, th)
	defer f.tr.leave(i, s, th)
	return f.inner.Unlink(th, path)
}

func (f *tracedFS) Rmdir(th *proc.Thread, path string) error {
	i, s := f.tr.enter(zcRmdir, th)
	defer f.tr.leave(i, s, th)
	return f.inner.Rmdir(th, path)
}

func (f *tracedFS) Rename(th *proc.Thread, oldPath, newPath string) error {
	i, s := f.tr.enter(zcRename, th)
	defer f.tr.leave(i, s, th)
	return f.inner.Rename(th, oldPath, newPath)
}

func (f *tracedFS) Stat(th *proc.Thread, path string) (vfs.FileInfo, error) {
	i, s := f.tr.enter(zcStat, th)
	defer f.tr.leave(i, s, th)
	return f.inner.Stat(th, path)
}

func (f *tracedFS) Chmod(th *proc.Thread, path string, mode coffer.Mode) error {
	i, s := f.tr.enter(zcChmod, th)
	defer f.tr.leave(i, s, th)
	return f.inner.Chmod(th, path, mode)
}

func (f *tracedFS) Chown(th *proc.Thread, path string, uid, gid uint32) error {
	i, s := f.tr.enter(zcChown, th)
	defer f.tr.leave(i, s, th)
	return f.inner.Chown(th, path, uid, gid)
}

func (f *tracedFS) Symlink(th *proc.Thread, target, link string) error {
	i, s := f.tr.enter(zcSymlink, th)
	defer f.tr.leave(i, s, th)
	return f.inner.Symlink(th, target, link)
}

func (f *tracedFS) Readlink(th *proc.Thread, path string) (string, error) {
	i, s := f.tr.enter(zcReadlink, th)
	defer f.tr.leave(i, s, th)
	return f.inner.Readlink(th, path)
}

func (f *tracedFS) ReadDir(th *proc.Thread, path string) ([]vfs.DirEntry, error) {
	i, s := f.tr.enter(zcReadDir, th)
	defer f.tr.leave(i, s, th)
	return f.inner.ReadDir(th, path)
}

func (f *tracedFS) Truncate(th *proc.Thread, path string, size int64) error {
	i, s := f.tr.enter(zcTruncate, th)
	defer f.tr.leave(i, s, th)
	return f.inner.Truncate(th, path, size)
}

type tracedHandle struct {
	inner vfs.Handle
	tr    *Tracer
}

func (h *tracedHandle) ReadAt(th *proc.Thread, p []byte, off int64) (int, error) {
	i, s := h.tr.enter(zcReadAt, th)
	defer h.tr.leave(i, s, th)
	return h.inner.ReadAt(th, p, off)
}

func (h *tracedHandle) WriteAt(th *proc.Thread, p []byte, off int64) (int, error) {
	i, s := h.tr.enter(zcWriteAt, th)
	defer h.tr.leave(i, s, th)
	return h.inner.WriteAt(th, p, off)
}

func (h *tracedHandle) Append(th *proc.Thread, p []byte) (int64, error) {
	i, s := h.tr.enter(zcAppend, th)
	defer h.tr.leave(i, s, th)
	return h.inner.Append(th, p)
}

func (h *tracedHandle) Stat(th *proc.Thread) (vfs.FileInfo, error) {
	i, s := h.tr.enter(zcHStat, th)
	defer h.tr.leave(i, s, th)
	return h.inner.Stat(th)
}

func (h *tracedHandle) Sync(th *proc.Thread) error {
	i, s := h.tr.enter(zcSync, th)
	defer h.tr.leave(i, s, th)
	return h.inner.Sync(th)
}

func (h *tracedHandle) Close(th *proc.Thread) error {
	i, s := h.tr.enter(zcClose, th)
	defer h.tr.leave(i, s, th)
	return h.inner.Close(th)
}
