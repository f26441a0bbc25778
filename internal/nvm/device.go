// Package nvm simulates a byte-addressable non-volatile memory device.
//
// The device is an in-memory byte image with the cost model of Optane DC
// persistent memory (paper Table 1): per-cacheline read/write latencies, a
// shared write-bandwidth channel that caps aggregate write throughput, and
// flush/fence persistence semantics. All file system structures in this
// repository live directly inside the image, exactly as they would in real
// NVM.
//
// Persistence is simulated precisely enough to test crash consistency:
// cached stores leave cachelines dirty until they are flushed; a simulated
// crash (Crash) reverts every dirty line to its last persisted content.
// Non-temporal stores (WriteNT) persist at the next fence, which the model
// folds into the store itself. Tests can also inject a crash after the k-th
// persisting store (FailAfter) to probe every intermediate state of a
// multi-step update.
package nvm

import (
	"fmt"
	"math/bits"
	"runtime"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"unsafe"

	"zofs/internal/byteflow"
	"zofs/internal/lockprof"
	"zofs/internal/perfmodel"
	"zofs/internal/pmemtrace"
	"zofs/internal/simclock"
	"zofs/internal/spans"
	"zofs/internal/telemetry"
)

// PageSize is the device allocation granularity.
const PageSize = perfmodel.PageSize

// LineSize is the cacheline size used for persistence tracking.
const LineSize = perfmodel.CachelineSize

// crashSentinel is the panic value used by injected crashes.
type crashSentinel struct{ writes int64 }

func (c crashSentinel) String() string {
	return fmt.Sprintf("nvm: injected crash after %d writes", c.writes)
}

// IsInjectedCrash reports whether a recovered panic value is an injected
// device crash from FailAfter.
func IsInjectedCrash(v any) bool {
	_, ok := v.(crashSentinel)
	return ok
}

const lockStripes = 256

// Config controls optional device behaviour.
type Config struct {
	// Size is the device capacity in bytes; it is rounded up to a whole
	// number of pages.
	Size int64
	// TrackPersistence enables dirty-line tracking so Crash() can revert
	// unflushed stores. Disable for large throughput benchmarks.
	TrackPersistence bool
}

// chunkBytes is the lazy-allocation granularity of the device image:
// space is materialized only when first written, so multi-gigabyte devices
// cost memory proportional to their live data.
const chunkBytes = 4 << 20

// Device is a simulated NVM DIMM. All methods are safe for concurrent use,
// but — as with real memory — racing unsynchronized writes to the same
// bytes is the caller's bug; file systems must use their own locking.
//
// The media is released once the Device is unreachable, so nothing —
// above all no view — may use device memory after its last reference to the
// Device is gone.
type Device struct {
	size    int64
	media   *media // where chunks materialize (media_mmap.go, media_heap.go)
	chunks  []atomic.Pointer[chunk]
	allocMu sync.Mutex

	readBW  *simclock.Bandwidth
	writeBW *simclock.Bandwidth

	track bool
	dirty [lockStripes]struct {
		mu    sync.Mutex
		lines map[int64][]byte // line offset -> last persisted content
	}
	// dirtyCount approximates the number of unpersisted lines for the
	// telemetry high-water mark without walking the stripes.
	dirtyCount atomic.Int64

	// rec is the telemetry sink; nil (the default) is a valid no-op sink.
	rec *telemetry.Recorder
	// acct is the optional byte-flow ledger (see acct.go); nil (the
	// default) keeps every write path at a pointer load plus a branch.
	acct atomic.Pointer[acctState]
	// tr is the persistence flight recorder; nil (the default) is a valid
	// no-op sink, keeping the untraced store path at a pointer load.
	tr *pmemtrace.Recorder

	casMu [lockStripes]lockprof.RealMutex

	writeCount atomic.Int64
	failAfter  atomic.Int64 // 0 = disabled
	// failBefore selects the crash edge: false = the armed store completes
	// and then the crash fires (FailAfter); true = the crash fires before
	// the armed store takes effect (FailAtStart), leaving the epoch's cached
	// stores dirty — the mid-epoch states a crash-state explorer samples.
	failBefore atomic.Bool

	uid uint64 // process-unique identity; see UID

	// vol is the DRAM-only state the layers above keep about this device,
	// one attachment per owner (see Volatile). It hangs here so that it dies
	// with the device.
	volMu sync.Mutex
	vol   map[any]any
}

var nextDeviceUID atomic.Uint64

// NewDevice creates a device of the given size with persistence tracking on.
func NewDevice(size int64) *Device {
	return New(Config{Size: size, TrackPersistence: true})
}

// New creates a device from a Config.
func New(cfg Config) *Device {
	if cfg.Size <= 0 {
		panic("nvm: non-positive device size")
	}
	pages := (cfg.Size + PageSize - 1) / PageSize
	size := pages * PageSize
	chunks := (size + chunkBytes - 1) / chunkBytes
	d := &Device{
		size:    size,
		media:   newMedia(chunks),
		chunks:  make([]atomic.Pointer[chunk], chunks),
		readBW:  simclock.NewBandwidth(perfmodel.NVMReadBandwidth),
		writeBW: simclock.NewBandwidth(perfmodel.NVMWriteBandwidth),
		track:   cfg.TrackPersistence,
		rec:     telemetry.Active(),
		tr:      pmemtrace.Active(),
		uid:     nextDeviceUID.Add(1),
	}
	if d.track {
		for i := range d.dirty {
			d.dirty[i].lines = make(map[int64][]byte)
		}
	}
	for i := range d.casMu {
		d.casMu[i].Init("nvm.stripe", strconv.Itoa(i))
	}
	return d
}

type chunk [chunkBytes]byte

// word returns the 8-byte word at device offset off (8-aligned) for atomic
// access. A chunk starts on a page boundary — it is a multi-megabyte heap
// object or a whole-chunk offset into a mapping — which aligns every such
// word.
func (c *chunk) word(off int64) *uint64 {
	return (*uint64)(unsafe.Pointer(&c[off%chunkBytes]))
}

// hostBigEndian: the image is little-endian whatever the host is, so words
// moved whole are byte-swapped on a big-endian one.
var hostBigEndian = func() bool {
	x := uint16(1)
	return *(*byte)(unsafe.Pointer(&x)) == 0
}()

// le64 converts between a host word and its little-endian image.
func le64(v uint64) uint64 {
	if hostBigEndian {
		return bits.ReverseBytes64(v)
	}
	return v
}

// Size returns the device capacity in bytes.
func (d *Device) Size() int64 { return d.size }

// Recorder returns the device's telemetry sink; nil means telemetry is off.
// Every layer above the device (proc, kernfs, zofs, fslibs) reaches its
// recorder through this accessor.
func (d *Device) Recorder() *telemetry.Recorder { return d.rec }

// SetRecorder attaches a telemetry sink to an existing device (tools that
// load images attach after construction; nil detaches).
func (d *Device) SetRecorder(r *telemetry.Recorder) { d.rec = r }

// UID returns a process-unique identity for this device; the flight
// recorder stamps it on every event.
func (d *Device) UID() uint64 { return d.uid }

// Volatile returns owner's volatile attachment: state that describes the
// device but lives in DRAM, such as ZoFS's cross-process lock and directory
// tables or LogFS's logs. owner is a key of the attaching package's own type,
// so attachments never collide. With none attached, mk (when non-nil) builds
// one. Keeping it on the device rather than in a registry keyed by device
// means a discarded device takes it along to the collector.
func (d *Device) Volatile(owner any, mk func() any) any {
	d.volMu.Lock()
	defer d.volMu.Unlock()
	v := d.vol[owner]
	if v == nil && mk != nil {
		if d.vol == nil {
			d.vol = map[any]any{}
		}
		v = mk()
		d.vol[owner] = v
	}
	return v
}

// DropVolatile discards every attachment, as a power failure empties DRAM.
// Crash and CrashMediated call it.
func (d *Device) DropVolatile() {
	d.volMu.Lock()
	d.vol = nil
	d.volMu.Unlock()
}

// Pages returns the device capacity in pages.
func (d *Device) Pages() int64 { return d.size / PageSize }

// Blank reports, uncharged, whether no store has ever materialized media:
// every byte of the device still reads zero.
func (d *Device) Blank() bool {
	for i := range d.chunks {
		if d.chunks[i].Load() != nil {
			return false
		}
	}
	return true
}

// chunkFor returns the chunk containing offset off, materializing it if
// mustAlloc is set; a nil return means the chunk is untouched (all zero).
func (d *Device) chunkFor(off int64, mustAlloc bool) *chunk {
	idx := off / chunkBytes
	if c := d.chunks[idx].Load(); c != nil {
		return c
	}
	if !mustAlloc {
		return nil
	}
	d.allocMu.Lock()
	defer d.allocMu.Unlock()
	if c := d.chunks[idx].Load(); c != nil {
		return c
	}
	c := d.media.chunk(idx)
	d.chunks[idx].Store(c)
	return c
}

// copyOut copies device bytes [off, off+len(buf)) into buf.
//
// copyOut, copyIn and Load64 keep d alive to the end of their access: each
// may be a caller's last use of the Device, and the media must not be
// released under the copy.
func (d *Device) copyOut(off int64, buf []byte) {
	for len(buf) > 0 {
		c := d.chunkFor(off, false)
		co := off % chunkBytes
		n := chunkBytes - co
		if n > int64(len(buf)) {
			n = int64(len(buf))
		}
		if c == nil {
			clear(buf[:n])
		} else {
			copy(buf[:n], c[co:co+n])
		}
		buf = buf[n:]
		off += n
	}
	runtime.KeepAlive(d)
}

// copyIn copies buf into the device at off.
func (d *Device) copyIn(off int64, buf []byte) {
	for len(buf) > 0 {
		c := d.chunkFor(off, true)
		co := off % chunkBytes
		n := chunkBytes - co
		if n > int64(len(buf)) {
			n = int64(len(buf))
		}
		copy(c[co:co+n], buf[:n])
		buf = buf[n:]
		off += n
	}
	runtime.KeepAlive(d)
}

// SetConcurrency informs the cost model of the number of threads actively
// writing, applying the Optane write-bandwidth degradation factor.
func (d *Device) SetConcurrency(n int) {
	f := perfmodel.WriteBWDegradation(n)
	d.writeBW.SetDegradation(f)
	if f < 1 {
		d.rec.Inc(telemetry.CtrNVMDegradeEvents)
	}
	d.rec.Max(telemetry.GaugeWriteConcurrency, int64(n))
}

// check panics (like a machine check / SIGSEGV) on out-of-range access.
// Higher layers (FSLibs) recover such panics into file system errors,
// mirroring the paper's sigsetjmp/siglongjmp graceful error return.
func (d *Device) check(off, n int64) {
	if off < 0 || n < 0 || off+n > d.size {
		panic(Fault{Off: off, Len: n, Cause: "access outside device"})
	}
}

// Fault is the panic value raised by invalid device accesses.
type Fault struct {
	Off, Len int64
	Cause    string
}

func (f Fault) Error() string {
	return fmt.Sprintf("nvm fault: %s (off=%d len=%d)", f.Cause, f.Off, f.Len)
}

// lines returns the number of cachelines touched by [off, off+n).
func lines(off, n int64) int64 {
	if n <= 0 {
		return 0
	}
	first := off / LineSize
	last := (off + n - 1) / LineSize
	return last - first + 1
}

// Read copies device bytes into buf, charging read latency plus bandwidth.
func (d *Device) Read(clk *simclock.Clock, off int64, buf []byte) {
	n := int64(len(buf))
	d.check(off, n)
	if clk != nil {
		t0 := clk.Now()
		clk.Advance(perfmodel.NVMReadLatency)
		d.readBW.TransferUnqueued(clk, int(n))
		spans.BillNVM(clk, spans.CompMedia, clk.Now()-t0, n, 0, 0, 0)
	}
	d.rec.Inc(telemetry.CtrNVMReads)
	d.rec.Add(telemetry.CtrNVMBytesRead, n)
	d.copyOut(off, buf)
}

// ReadNoCharge copies bytes without advancing any clock (DRAM-cached reads,
// test harness verification).
func (d *Device) ReadNoCharge(off int64, buf []byte) {
	d.check(off, int64(len(buf)))
	d.copyOut(off, buf)
}

// zeroChunk backs read views over untouched (never-written) chunks, so a
// view over a hole costs no allocation. Writing through a zeroChunk view is
// the view-borrowing contract violation; WriteView never hands it out.
var zeroChunk = new(chunk)

// viewSpan reports whether [off, off+n) is view-eligible: a positive-length
// range inside a single chunk. PageSize divides chunkBytes, so any access
// that stays within one device page always qualifies; cross-chunk ranges
// fall back to the copy API.
func viewSpan(off, n int64) bool {
	return n > 0 && off/chunkBytes == (off+n-1)/chunkBytes
}

// ReadView returns a borrowed slice aliasing the device image over
// [off, off+n), charged exactly like Read (read latency + bandwidth). The
// second result is false when the range crosses a chunk boundary — callers
// fall back to Read. The slice is a window into live media: it stays
// coherent with later writes and must not be written through, retained
// across an operation boundary, or used once the device is unreachable.
func (d *Device) ReadView(clk *simclock.Clock, off, n int64) ([]byte, bool) {
	d.check(off, n)
	if !viewSpan(off, n) {
		return nil, false
	}
	if clk != nil {
		t0 := clk.Now()
		clk.Advance(perfmodel.NVMReadLatency)
		d.readBW.TransferUnqueued(clk, int(n))
		spans.BillNVM(clk, spans.CompMedia, clk.Now()-t0, n, 0, 0, 0)
	}
	d.rec.Inc(telemetry.CtrNVMReads)
	d.rec.Add(telemetry.CtrNVMBytesRead, n)
	c := d.chunkFor(off, false)
	if c == nil {
		c = zeroChunk
	}
	co := off % chunkBytes
	return c[co : co+n : co+n], true
}

// ReadViewNoCharge is ReadView without any clock charge (cache-hit reads;
// the caller charges CPU time itself).
func (d *Device) ReadViewNoCharge(off, n int64) ([]byte, bool) {
	d.check(off, n)
	if !viewSpan(off, n) {
		return nil, false
	}
	c := d.chunkFor(off, false)
	if c == nil {
		c = zeroChunk
	}
	co := off % chunkBytes
	return c[co : co+n : co+n], true
}

// WriteView hands out a borrowed slice the caller fills in place, with the
// cost model and persistence semantics of WriteNT: the write is charged,
// numbered as one persisting store, and traced at handout; the returned
// commit's Done marks the range persisted (clears dirty-line state) and fires
// the post-store crash edge. A crash between handout and Done leaves whatever
// the caller had already filled — legal non-temporal semantics, since NT
// stores may drain to media before the trailing fence. Returns ok=false for
// cross-chunk ranges; callers fall back to WriteNT.
func (d *Device) WriteView(clk *simclock.Clock, off, n int64) (buf []byte, commit ViewCommit, ok bool) {
	d.check(off, n)
	if !viewSpan(off, n) {
		return nil, ViewCommit{}, false
	}
	pp := d.persistPoint(clk)
	if clk != nil {
		t0 := clk.Now()
		clk.Advance(perfmodel.NVMWriteLatency + perfmodel.NTStoreExtra)
		if n < smallWrite {
			d.writeBW.TransferUnqueued(clk, int(n))
		} else {
			d.writeBW.Transfer(clk, int(n))
		}
		spans.BillNVM(clk, spans.CompMedia, clk.Now()-t0, 0, n, 0, 1)
	}
	d.rec.Inc(telemetry.CtrNVMNTStores)
	d.rec.Inc(telemetry.CtrNVMFences)
	d.rec.Add(telemetry.CtrNVMBytesWritten, n)
	d.acctWrite(clk, off, n, true, true)
	d.tr.Record(d.uid, clk, pmemtrace.KindNTStore, off, n)
	c := d.chunkFor(off, true)
	co := off % chunkBytes
	return c[co : co+n : co+n], ViewCommit{d: d, clk: clk, off: off, n: n, pp: pp}, true
}

// ViewCommit is the second half of a WriteView, returned by value so that a
// dentry write borrows the device image without a heap-allocated closure.
type ViewCommit struct {
	d          *Device
	clk        *simclock.Clock
	off, n, pp int64
}

// Done completes the write: call it once, after the view has been filled.
func (c ViewCommit) Done() {
	if c.d.track {
		c.d.clearDirty(c.off, c.n)
	}
	c.d.persistDone(c.clk, c.pp)
}

// saveDirty records the persisted content of every line in [off,off+n)
// before it is modified by a cached store.
func (d *Device) saveDirty(off, n int64) {
	first := off / LineSize * LineSize
	for lo := first; lo < off+n; lo += LineSize {
		s := &d.dirty[(lo/LineSize)%lockStripes]
		s.mu.Lock()
		if _, ok := s.lines[lo]; !ok {
			saved := make([]byte, LineSize)
			d.copyOut(lo, saved)
			s.lines[lo] = saved
			d.dirtyCount.Add(1)
		}
		s.mu.Unlock()
	}
	d.rec.Max(telemetry.GaugeDirtyLinesHWM, d.dirtyCount.Load())
}

// clearDirty marks every line in [off,off+n) persisted.
func (d *Device) clearDirty(off, n int64) {
	first := off / LineSize * LineSize
	for lo := first; lo < off+n; lo += LineSize {
		s := &d.dirty[(lo/LineSize)%lockStripes]
		s.mu.Lock()
		if _, ok := s.lines[lo]; ok {
			delete(s.lines, lo)
			d.dirtyCount.Add(-1)
		}
		s.mu.Unlock()
	}
}

// persistPoint numbers one persisting store and fires an armed fail-at-start
// crash before the store has any effect (no trace event, no image change);
// persistDone fires the classic FailAfter edge once the store has landed.
// Splitting the edges lets a crash-state explorer sample both the pre- and
// post-store image at every persistence point: the pre-store image is a
// mid-epoch state in which the interrupted epoch's cached lines are still
// dirty. The store that trips persistDone has already emitted its own trace
// event, so the injected-crash marker lands right after it in the stream.
// Every store after the tripping one crashes at its start, so a deferred
// cleanup that runs while the injected crash unwinds cannot add a store to
// the image.
func (d *Device) persistPoint(clk *simclock.Clock) int64 {
	n := d.writeCount.Add(1)
	if d.armed(n, true) {
		d.injectCrash(clk, n)
	}
	return n
}

func (d *Device) persistDone(clk *simclock.Clock, n int64) {
	if d.armed(n, false) {
		d.injectCrash(clk, n)
	}
}

// armed reports whether persisting store n crashes at this edge (before: at
// its start, else once it has landed). Under FailAtStart every store from the
// n-th on crashes at its start; under FailAfter the n-th crashes once it has
// landed and every later one at its start.
func (d *Device) armed(n int64, before bool) bool {
	fa := d.failAfter.Load()
	if fa <= 0 || n < fa {
		return false
	}
	return before == (d.failBefore.Load() || n > fa)
}

func (d *Device) injectCrash(clk *simclock.Clock, n int64) {
	d.tr.Record(d.uid, clk, pmemtrace.KindCrashInject, 0, n)
	panic(crashSentinel{writes: n})
}

// Write performs a cached (write-back) store: the new data is visible
// immediately but not persistent until flushed. It charges the
// read-for-ownership penalty and leaves the lines dirty.
func (d *Device) Write(clk *simclock.Clock, off int64, data []byte) {
	n := int64(len(data))
	d.check(off, n)
	if clk != nil {
		t0 := clk.Now()
		clk.Advance(perfmodel.CachedWriteRFO)
		d.readBW.TransferUnqueued(clk, int(n))
		spans.BillNVM(clk, spans.CompMedia, clk.Now()-t0, 0, 0, 0, 0)
	}
	d.rec.Inc(telemetry.CtrNVMCachedWrites)
	d.acctWrite(clk, off, n, false, false)
	d.tr.Record(d.uid, clk, pmemtrace.KindStore, off, n)
	if d.track {
		d.saveDirty(off, n)
	}
	d.copyIn(off, data)
}

// smallWrite is the threshold below which stores slip through the WPQ
// without queueing on the bulk write channel (no head-of-line blocking for
// metadata-sized stores).
const smallWrite = 1024

// WriteNT performs a non-temporal store followed (logically) by a fence:
// the data is persistent when the call returns. This is the write flavour
// ZoFS, NOVA and PMFS-nocache use for bulk data (§6.1).
func (d *Device) WriteNT(clk *simclock.Clock, off int64, data []byte) {
	d.writeNT(clk, clkClass(clk), off, data)
}

// WriteNTClass is WriteNT with an explicit ledger byte class, overriding the
// clock tag. Clock-less writers that still belong to a named class — mkfs
// formatting the allocation and path tables before any thread clock exists —
// use it so their bytes never land in the `other` residual.
func (d *Device) WriteNTClass(clk *simclock.Clock, cls byteflow.Class, off int64, data []byte) {
	d.writeNT(clk, cls, off, data)
}

func (d *Device) writeNT(clk *simclock.Clock, cls byteflow.Class, off int64, data []byte) {
	n := int64(len(data))
	d.check(off, n)
	pp := d.persistPoint(clk)
	if clk != nil {
		t0 := clk.Now()
		clk.Advance(perfmodel.NVMWriteLatency + perfmodel.NTStoreExtra)
		if n < smallWrite {
			d.writeBW.TransferUnqueued(clk, int(n))
		} else {
			d.writeBW.Transfer(clk, int(n))
		}
		spans.BillNVM(clk, spans.CompMedia, clk.Now()-t0, 0, n, 0, 1)
	}
	d.rec.Inc(telemetry.CtrNVMNTStores)
	d.rec.Inc(telemetry.CtrNVMFences) // WriteNT folds the trailing fence in
	d.rec.Add(telemetry.CtrNVMBytesWritten, n)
	d.acctWriteClass(cls, off, n, true, true)
	d.tr.Record(d.uid, clk, pmemtrace.KindNTStore, off, n)
	d.copyIn(off, data)
	if d.track {
		d.clearDirty(off, n)
	}
	d.persistDone(clk, pp)
}

// Flush issues clwb over [off, off+n) and a fence, making the range
// persistent. Charges per-line clwb cost plus write bandwidth.
func (d *Device) Flush(clk *simclock.Clock, off, n int64) {
	d.check(off, n)
	pp := d.persistPoint(clk)
	if clk != nil {
		t0 := clk.Now()
		clk.Advance(lines(off, n)*perfmodel.CLWBCost + perfmodel.FenceCost + perfmodel.NVMWriteLatency)
		if n < smallWrite {
			d.writeBW.TransferUnqueued(clk, int(n))
		} else {
			d.writeBW.Transfer(clk, int(n))
		}
		spans.BillNVM(clk, spans.CompFlush, clk.Now()-t0, 0, n, 1, 1)
	}
	d.rec.Inc(telemetry.CtrNVMFlushes)
	d.rec.Inc(telemetry.CtrNVMFences)
	d.rec.Add(telemetry.CtrNVMCLWBLines, lines(off, n))
	d.rec.Add(telemetry.CtrNVMBytesWritten, n)
	d.acctFlush(clk, off, n)
	d.tr.Record(d.uid, clk, pmemtrace.KindFlush, off, n)
	if d.track {
		d.clearDirty(off, n)
	}
	d.persistDone(clk, pp)
}

// Fence charges a store fence without persisting anything further (WriteNT
// and Flush already fold persistence in).
func (d *Device) Fence(clk *simclock.Clock) {
	if clk != nil {
		t0 := clk.Now()
		clk.Advance(perfmodel.FenceCost)
		spans.BillNVM(clk, spans.CompFlush, clk.Now()-t0, 0, 0, 0, 1)
	}
	d.rec.Inc(telemetry.CtrNVMFences)
	d.acctFence()
	d.tr.Record(d.uid, clk, pmemtrace.KindFence, 0, 0)
}

// Zero writes zeros over the range with non-temporal stores. Scrubbing is
// charged without occupying the shared write channel: zeroing of recycled
// pages is deferrable work that real systems overlap with foreground
// writes, so it must not head-of-line block them.
func (d *Device) Zero(clk *simclock.Clock, off, n int64) {
	d.zero(clk, clkClass(clk), off, n)
}

// ZeroClass is Zero with an explicit ledger byte class, for clock-less
// scrub paths (mkfs formatting) whose bytes belong to a named class.
func (d *Device) ZeroClass(clk *simclock.Clock, cls byteflow.Class, off, n int64) {
	d.zero(clk, cls, off, n)
}

func (d *Device) zero(clk *simclock.Clock, cls byteflow.Class, off, n int64) {
	d.check(off, n)
	pp := d.persistPoint(clk)
	if clk != nil {
		t0 := clk.Now()
		clk.Advance(perfmodel.NVMWriteLatency)
		d.writeBW.TransferUnqueued(clk, int(n))
		spans.BillNVM(clk, spans.CompMedia, clk.Now()-t0, 0, n, 0, 0)
	}
	d.rec.Inc(telemetry.CtrNVMNTStores)
	d.rec.Add(telemetry.CtrNVMZeroBytes, n)
	d.rec.Add(telemetry.CtrNVMBytesWritten, n)
	d.acctWriteClass(cls, off, n, true, false)
	d.tr.Record(d.uid, clk, pmemtrace.KindZero, off, n)
	for rem := n; rem > 0; {
		c := d.chunkFor(off, false)
		co := off % chunkBytes
		step := chunkBytes - co
		if step > rem {
			step = rem
		}
		if c != nil {
			clear(c[co : co+step])
		}
		off += step
		rem -= step
	}
	if d.track {
		d.clearDirty(off-n, n)
	}
	d.persistDone(clk, pp)
}

// Load64 atomically reads an 8-byte little-endian word: one atomic load, no
// lock. Store64 and CAS64 store atomically too, and serialize among
// themselves on the word's stripe lock.
func (d *Device) Load64(clk *simclock.Clock, off int64) uint64 {
	d.check(off, 8)
	if off%8 != 0 {
		panic(Fault{Off: off, Len: 8, Cause: "unaligned atomic load"})
	}
	if clk != nil {
		t0 := clk.Now()
		clk.Advance(perfmodel.NVMReadLatency)
		spans.BillNVM(clk, spans.CompMedia, clk.Now()-t0, 8, 0, 0, 0)
	}
	c := d.chunkFor(off, false)
	if c == nil {
		return 0
	}
	v := atomic.LoadUint64(c.word(off))
	runtime.KeepAlive(d)
	return le64(v)
}

// Store64 atomically writes an 8-byte word with persistence (ntstore+fence
// semantics) — the atomic building block of ZoFS's ordered metadata updates.
func (d *Device) Store64(clk *simclock.Clock, off int64, v uint64) {
	d.check(off, 8)
	if off%8 != 0 {
		panic(Fault{Off: off, Len: 8, Cause: "unaligned atomic store"})
	}
	pp := d.persistPoint(clk)
	if clk != nil {
		t0 := clk.Now()
		clk.Advance(perfmodel.NVMWriteLatency + perfmodel.FenceCost)
		d.writeBW.TransferUnqueued(clk, 8)
		spans.BillNVM(clk, spans.CompMedia, clk.Now()-t0, 0, 8, 0, 1)
	}
	d.rec.Inc(telemetry.CtrNVMNTStores)
	d.rec.Inc(telemetry.CtrNVMFences)
	d.rec.Add(telemetry.CtrNVMBytesWritten, 8)
	d.acctWrite(clk, off, 8, true, true)
	d.tr.Record(d.uid, clk, pmemtrace.KindStore64, off, 8)
	c := d.chunkFor(off, true)
	mu := &d.casMu[(off/8)%lockStripes]
	mu.Lock()
	atomic.StoreUint64(c.word(off), le64(v))
	mu.Unlock()
	if d.track {
		d.clearDirty(off, 8)
	}
	d.persistDone(clk, pp)
}

// CAS64 atomically compares-and-swaps an 8-byte word, persisting on
// success. Returns true if the swap happened.
func (d *Device) CAS64(clk *simclock.Clock, off int64, old, new uint64) bool {
	d.check(off, 8)
	if off%8 != 0 {
		panic(Fault{Off: off, Len: 8, Cause: "unaligned CAS"})
	}
	if clk != nil {
		t0 := clk.Now()
		clk.Advance(perfmodel.NVMWriteLatency + perfmodel.FenceCost)
		spans.BillNVM(clk, spans.CompMedia, clk.Now()-t0, 0, 8, 0, 1)
	}
	c := d.chunkFor(off, true)
	mu := &d.casMu[(off/8)%lockStripes]
	mu.Lock()
	if le64(atomic.LoadUint64(c.word(off))) != old {
		mu.Unlock()
		return false
	}
	// Failed CASes are not persistence points, so the store is numbered
	// only once the compare has succeeded; the stripe lock must be released
	// before an armed fail-at-start crash unwinds, or the post-crash
	// remount would deadlock on it.
	pp := d.writeCount.Add(1)
	if d.armed(pp, true) {
		mu.Unlock()
		d.injectCrash(clk, pp)
	}
	atomic.StoreUint64(c.word(off), le64(new))
	mu.Unlock()
	d.rec.Inc(telemetry.CtrNVMNTStores)
	d.rec.Inc(telemetry.CtrNVMFences)
	d.rec.Add(telemetry.CtrNVMBytesWritten, 8)
	d.acctWrite(clk, off, 8, true, true)
	d.tr.Record(d.uid, clk, pmemtrace.KindCAS, off, 8)
	if d.track {
		d.clearDirty(off, 8)
	}
	d.persistDone(clk, pp)
	return true
}

// LineFate decides what the media did to one dirty cacheline at a crash.
// The zero value is the classic outcome: the line reverts entirely to its
// last persisted content.
type LineFate struct {
	// Persist keeps the cached (unflushed) content, modeling a line the
	// cache happened to write back before power was lost.
	Persist bool
	// TornMask selects which of the line's eight 8-byte words were written
	// back (bit i = word i persisted), modeling stores torn at the media's
	// 8-byte atomic granularity. Ignored when Persist is set; zero tears
	// nothing and the whole line reverts.
	TornMask uint8
}

// CrashOutcome reports what a mediated crash did to the image: the device
// line offsets (sorted ascending) of every dirty line, split by fate.
type CrashOutcome struct {
	Reverted  []int64 // reverted to last-persisted content
	Persisted []int64 // dirty content survived intact
	Torn      []int64 // a mix of persisted and reverted 8-byte words
}

// Crash simulates a power failure: every dirty (unflushed) line reverts to
// its last persisted content, and every volatile attachment is dropped; the
// device image afterwards is exactly what a real NVM DIMM would hold after
// the crash. Panics on a device built with TrackPersistence off — see
// CrashMediated.
func (d *Device) Crash() {
	d.CrashMediated(nil)
}

// CrashMediated simulates a power failure under a caller-chosen media
// model: fate is consulted once per dirty line and decides whether the line
// reverts, survives (opportunistic writeback before power was lost), or
// tears at 8-byte granularity. A nil fate reverts every line — the
// all-dirty-lines-dropped model of Crash. The fate function must be
// deterministic in the line offset: stripe iteration order is not. Every
// volatile attachment is dropped (DropVolatile).
//
// Panics if the device was created with TrackPersistence off: such a device
// cannot tell persisted from cached content, so a "crash" would silently
// keep every unflushed store and let crash-consistency tests pass
// vacuously. Build crash-test devices with TrackPersistence: true.
func (d *Device) CrashMediated(fate func(line int64) LineFate) CrashOutcome {
	if !d.track {
		panic("nvm: Crash on a device with TrackPersistence off would silently keep unflushed stores; create crash-test devices with TrackPersistence: true")
	}
	d.tr.Record(d.uid, nil, pmemtrace.KindCrash, 0, d.dirtyCount.Load())
	d.DropVolatile()
	var out CrashOutcome
	buf := make([]byte, LineSize)
	for i := range d.dirty {
		s := &d.dirty[i]
		s.mu.Lock()
		for lo, saved := range s.lines {
			var f LineFate
			if fate != nil {
				f = fate(lo)
			}
			switch {
			case f.Persist:
				out.Persisted = append(out.Persisted, lo)
			case f.TornMask != 0:
				d.copyOut(lo, buf)
				for w := 0; w < LineSize/8; w++ {
					if f.TornMask&(1<<w) == 0 {
						copy(buf[w*8:(w+1)*8], saved[w*8:(w+1)*8])
					}
				}
				d.copyIn(lo, buf)
				out.Torn = append(out.Torn, lo)
			default:
				d.copyIn(lo, saved)
				out.Reverted = append(out.Reverted, lo)
			}
			delete(s.lines, lo)
			d.dirtyCount.Add(-1)
		}
		s.mu.Unlock()
	}
	slices.Sort(out.Reverted)
	slices.Sort(out.Persisted)
	slices.Sort(out.Torn)
	return out
}

// DirtyLines reports how many cachelines are currently unpersisted.
func (d *Device) DirtyLines() int {
	if !d.track {
		return 0
	}
	n := 0
	for i := range d.dirty {
		s := &d.dirty[i]
		s.mu.Lock()
		n += len(s.lines)
		s.mu.Unlock()
	}
	return n
}

// FailAfter arms crash injection: the n-th persisting store from now will
// panic with an injected-crash sentinel (recover with IsInjectedCrash, then
// call Crash and run recovery). The tripping store has landed when the
// panic unwinds; every persisting store after it panics before it has any
// effect. n <= 0 disarms.
func (d *Device) FailAfter(n int64) {
	if n <= 0 {
		d.failAfter.Store(0)
		d.failBefore.Store(false)
		return
	}
	d.writeCount.Store(0)
	d.failBefore.Store(false)
	d.failAfter.Store(n)
}

// FailAtStart arms crash injection at the opposite edge from FailAfter: the
// n-th persisting store from now panics before it has any effect (no trace
// event, no image change), so the post-crash image holds stores 1..n-1 plus
// whatever cached lines the interrupted epoch left dirty — the mid-epoch
// states a crash-state explorer samples. n <= 0 disarms.
func (d *Device) FailAtStart(n int64) {
	if n <= 0 {
		d.failAfter.Store(0)
		d.failBefore.Store(false)
		return
	}
	d.writeCount.Store(0)
	d.failBefore.Store(true)
	d.failAfter.Store(n)
}

// WriteCount returns the number of persisting stores performed.
func (d *Device) WriteCount() int64 { return d.writeCount.Load() }

// BytesWritten reports cumulative bytes pushed through the write channel.
func (d *Device) BytesWritten() int64 { return d.writeBW.TotalBytes() }

// BytesRead reports cumulative bytes pulled through the read channel.
func (d *Device) BytesRead() int64 { return d.readBW.TotalBytes() }
