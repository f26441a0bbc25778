package kernfs

import (
	"zofs/internal/coffer"
	"zofs/internal/rbtree"
)

// extentSet is a coalescing set of page extents built on a red-black tree
// (start page -> page count). KernFS keeps one for global free space and one
// per coffer for allocated space (§4.1).
type extentSet struct {
	t     *rbtree.Tree
	pages int64
}

func newExtentSet() *extentSet { return &extentSet{t: rbtree.New()} }

// Pages returns the total number of pages in the set.
func (s *extentSet) Pages() int64 { return s.pages }

// Add inserts [start, start+count), growing the adjacent extent in place
// where there is one. Overlapping adds are a caller bug and corrupt the set;
// callers guarantee disjointness (the allocation table is the source of
// truth).
func (s *extentSet) Add(start, count int64) {
	if count <= 0 {
		return
	}
	s.pages += count
	pk, pv, pred := s.t.Floor(start)
	pred = pred && pk+pv == start
	nk, nv, succ := s.t.Ceiling(start)
	succ = succ && start+count == nk
	switch {
	case pred && succ:
		s.t.Delete(nk)
		s.t.Insert(pk, pv+count+nv)
	case pred:
		s.t.Insert(pk, pv+count)
	case succ:
		s.t.Rekey(nk, start, count+nv)
	default:
		s.t.Insert(start, count)
	}
}

// Remove deletes [start, start+count) from the set, shrinking the containing
// extent in place (a cut from the middle adds one). It reports whether the
// full range was present.
func (s *extentSet) Remove(start, count int64) bool {
	if count <= 0 {
		return true
	}
	k, v, ok := s.t.Floor(start)
	end := start + count
	if !ok || k+v < end {
		return false
	}
	if k == start {
		s.cutFront(k, v, count)
		return true
	}
	s.t.Insert(k, start-k)
	if k+v > end {
		s.t.Insert(end, k+v-end)
	}
	s.pages -= count
	return true
}

// cutFront removes the first n pages of the extent (k, v).
func (s *extentSet) cutFront(k, v, n int64) {
	if n == v {
		s.t.Delete(k)
	} else {
		s.t.Rekey(k, k+n, v-n)
	}
	s.pages -= n
}

// Contains reports whether every page of [start, start+count) is present.
func (s *extentSet) Contains(start, count int64) bool {
	k, v, ok := s.t.Floor(start)
	return ok && k+v >= start+count
}

// TakeFirst removes and returns up to want pages as extents, first-fit in
// address order. It returns fewer pages only if the set runs dry.
func (s *extentSet) TakeFirst(want int64) []coffer.Extent {
	var out []coffer.Extent
	for want > 0 {
		k, v, ok := s.t.Min()
		if !ok {
			break
		}
		take := min(v, want)
		s.cutFront(k, v, take)
		out = append(out, coffer.Extent{Start: k, Count: take})
		want -= take
	}
	return out
}

// TakeRun removes and returns want pages as a single contiguous run, or
// ok=false (set untouched) when no extent is large enough. Best-fit: the
// smallest sufficient extent is split, keeping large runs intact for later
// batch grants.
func (s *extentSet) TakeRun(want int64) (coffer.Extent, bool) {
	if want <= 0 {
		return coffer.Extent{}, false
	}
	bestK, bestV := int64(-1), int64(0)
	s.t.Ascend(func(k, v int64) bool {
		if v >= want && (bestK < 0 || v < bestV) {
			bestK, bestV = k, v
			if v == want {
				return false
			}
		}
		return true
	})
	if bestK < 0 {
		return coffer.Extent{}, false
	}
	s.cutFront(bestK, bestV, want)
	return coffer.Extent{Start: bestK, Count: want}, true
}

// Each calls fn for every extent in address order. fn must not modify the
// set; a loop that does walks it with Next.
func (s *extentSet) Each(fn func(start, count int64)) {
	s.t.Ascend(func(k, v int64) bool {
		fn(k, v)
		return true
	})
}

// Next returns the first extent starting at or after page from.
func (s *extentSet) Next(from int64) (coffer.Extent, bool) {
	k, v, ok := s.t.Ceiling(from)
	return coffer.Extent{Start: k, Count: v}, ok
}

// All returns every extent in address order.
func (s *extentSet) All() []coffer.Extent {
	out := make([]coffer.Extent, 0, s.t.Len())
	s.Each(func(start, count int64) {
		out = append(out, coffer.Extent{Start: start, Count: count})
	})
	return out
}
