package e2e

import "math/bits"

// subBits fixes the histogram resolution: every power of two above
// 2^(subBits+1) is split into 2^subBits buckets, so a bucket is at most
// 1/128 = 0.78 % wide relative to its lower edge.
const subBits = 7

const (
	subCount    = 1 << subBits
	histBuckets = (64-subBits)*subCount + subCount
)

// Hist is a fixed-size log-linear histogram of non-negative int64 values.
// It is allocated once, before the timed region; Record never allocates.
type Hist struct {
	counts [histBuckets]uint32
	n      int64
}

// bucketOf maps a value to its bucket: values below 2*subCount are exact,
// larger ones keep their top subBits+1 bits.
func bucketOf(v int64) int {
	if v < 2*subCount {
		if v < 0 {
			return 0
		}
		return int(v)
	}
	shift := bits.Len64(uint64(v)) - (subBits + 1)
	return shift*subCount + int(v>>uint(shift))
}

// bucketUpper is the largest value that maps to bucket i.
func bucketUpper(i int) int64 {
	if i < 2*subCount {
		return int64(i)
	}
	shift := i/subCount - 1
	m := int64(i - shift*subCount)
	return (m+1)<<uint(shift) - 1
}

// Record adds one value.
func (h *Hist) Record(v int64) {
	h.counts[bucketOf(v)]++
	h.n++
}

// Count is the number of recorded values.
func (h *Hist) Count() int64 { return h.n }

// Reset empties the histogram.
func (h *Hist) Reset() { *h = Hist{} }

// Quantile returns the upper bound of the bucket holding the ceil(q*n)-th
// smallest value (q in (0,1]); 0 when empty.
func (h *Hist) Quantile(q float64) int64 {
	if h.n == 0 {
		return 0
	}
	rank := int64(q * float64(h.n))
	if float64(rank) < q*float64(h.n) {
		rank++
	}
	if rank < 1 {
		rank = 1
	}
	var seen int64
	for i := range h.counts {
		seen += int64(h.counts[i])
		if seen >= rank {
			return bucketUpper(i)
		}
	}
	return bucketUpper(histBuckets - 1)
}
