package telemetry

import (
	"math/bits"
	"sync/atomic"
)

// Op enumerates the dispatched file system operations. The set mirrors the
// FSLibs entry points; the vfs-level observer (internal/obsfs) maps handle
// methods onto the same values, and the per-op collectors (internal/spans,
// internal/series) index their aggregates by it.
type Op int

const (
	OpOpen Op = iota
	OpCreate
	OpClose
	OpRead
	OpWrite
	OpAppend
	OpFsync
	OpStat
	OpMkdir
	OpUnlink
	OpRmdir
	OpRename
	OpChmod
	OpChown
	OpSymlink
	OpReadlink
	OpReadDir
	OpTruncate
	numOps
)

var opNames = [numOps]string{
	OpOpen:     "open",
	OpCreate:   "create",
	OpClose:    "close",
	OpRead:     "read",
	OpWrite:    "write",
	OpAppend:   "append",
	OpFsync:    "fsync",
	OpStat:     "stat",
	OpMkdir:    "mkdir",
	OpUnlink:   "unlink",
	OpRmdir:    "rmdir",
	OpRename:   "rename",
	OpChmod:    "chmod",
	OpChown:    "chown",
	OpSymlink:  "symlink",
	OpReadlink: "readlink",
	OpReadDir:  "readdir",
	OpTruncate: "truncate",
}

// Name returns the op's short name.
func (o Op) Name() string { return opNames[o] }

// NumOps is the number of Op values, exported so the per-op collectors can
// size their aggregate arrays.
const NumOps = int(numOps)

// The histogram buckets simulated-nanosecond latencies logarithmically with
// four sub-buckets per octave: values 0–7 land in exact buckets, larger
// values in bucket 8 + 4*(log2(v)-3) + next-two-bits. This bounds the
// relative quantile error at ~12% while keeping observation to a handful of
// bit operations and one atomic add.
const HistBuckets = 8 + 4*61 // exact small values + octaves 3..63

// BucketOf maps a latency to its bucket index. Every latency store in the
// stack (spans, series, lockprof) fills its vectors through this one mapping,
// so their bucket vectors add and compare exactly.
func BucketOf(ns int64) int {
	if ns < 0 {
		ns = 0
	}
	v := uint64(ns)
	if v < 8 {
		return int(v)
	}
	e := bits.Len64(v) - 1 // >= 3
	sub := (v >> (e - 2)) & 3
	return 8 + 4*(e-3) + int(sub)
}

// BucketUpper returns the largest latency contained in a bucket — the value
// quantile estimation reports.
func BucketUpper(idx int) int64 {
	if idx < 8 {
		return int64(idx)
	}
	idx -= 8
	e := idx/4 + 3
	sub := idx % 4
	return int64((uint64(sub)+5)<<(e-2)) - 1
}

// Hist is the log-bucketed latency histogram, safe for concurrent observers.
// Count, sum and cells saturate at the int64 ceiling instead of wrapping.
type Hist struct {
	count   atomic.Int64
	sum     atomic.Int64
	buckets [HistBuckets]atomic.Int64
}

// Observe records one value.
func (h *Hist) Observe(ns int64) {
	if h.count.Add(1) < 0 {
		h.count.Store(maxInt64)
	}
	if ns > 0 && h.sum.Add(ns) < 0 {
		h.sum.Store(maxInt64)
	}
	b := &h.buckets[BucketOf(ns)]
	if b.Add(1) < 0 {
		b.Store(maxInt64)
	}
}

// Reset zeroes the histogram.
func (h *Hist) Reset() {
	h.count.Store(0)
	h.sum.Store(0)
	for i := range h.buckets {
		h.buckets[i].Store(0)
	}
}

// Snapshot copies out the count, the (saturating) sum and the bucket vector.
func (h *Hist) Snapshot() (count, sum int64, buckets []int64) {
	buckets = make([]int64, HistBuckets)
	for i := range h.buckets {
		buckets[i] = h.buckets[i].Load()
	}
	return h.count.Load(), h.sum.Load(), buckets
}

// Quantile estimates the q-quantile (0 < q <= 1) of a bucket vector by
// reporting the upper bound of the bucket containing the q-th observation.
func Quantile(buckets []int64, count int64, q float64) int64 {
	if count <= 0 {
		return 0
	}
	rank := int64(q * float64(count))
	if rank < 1 {
		rank = 1
	}
	var seen int64
	for i, n := range buckets {
		seen += n
		if seen >= rank {
			return BucketUpper(i)
		}
	}
	return BucketUpper(len(buckets) - 1)
}
