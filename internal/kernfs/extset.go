package kernfs

import (
	"cmp"
	"slices"

	"zofs/internal/coffer"
)

// extentSet is a coalescing set of page extents kept as a slice sorted by
// start page; no two extents overlap or abut. KernFS keeps one for each
// free-pool shard and one per coffer for allocated space (§4.1; the paper
// uses red-black trees, DESIGN.md §6 says why a slice does here).
type extentSet struct {
	ext   []coffer.Extent
	pages int64
}

func newExtentSet() *extentSet { return &extentSet{} }

// Pages returns the total number of pages in the set.
func (s *extentSet) Pages() int64 { return s.pages }

// ceil returns the index of the first extent starting at or after page.
func (s *extentSet) ceil(page int64) int {
	i, _ := slices.BinarySearchFunc(s.ext, page, func(e coffer.Extent, p int64) int {
		return cmp.Compare(e.Start, p)
	})
	return i
}

// floor returns the index of the last extent starting at or before page, or
// -1 when there is none.
func (s *extentSet) floor(page int64) int {
	i := s.ceil(page)
	if i < len(s.ext) && s.ext[i].Start == page {
		return i
	}
	return i - 1
}

// Add inserts [start, start+count), growing the adjacent extent in place
// where there is one. Overlapping adds are a caller bug and corrupt the set;
// callers guarantee disjointness (the allocation table is the source of
// truth).
func (s *extentSet) Add(start, count int64) {
	if count <= 0 {
		return
	}
	s.pages += count
	i := s.ceil(start)
	pred := i > 0 && s.ext[i-1].End() == start
	succ := i < len(s.ext) && start+count == s.ext[i].Start
	switch {
	case pred && succ:
		s.ext[i-1].Count += count + s.ext[i].Count
		s.ext = slices.Delete(s.ext, i, i+1)
	case pred:
		s.ext[i-1].Count += count
	case succ:
		s.ext[i].Start = start
		s.ext[i].Count += count
	default:
		s.ext = slices.Insert(s.ext, i, coffer.Extent{Start: start, Count: count})
	}
}

// Remove deletes [start, start+count) from the set, shrinking the containing
// extent in place (a cut from the middle adds one). It reports whether the
// full range was present.
func (s *extentSet) Remove(start, count int64) bool {
	if count <= 0 {
		return true
	}
	i := s.floor(start)
	end := start + count
	if i < 0 || s.ext[i].End() < end {
		return false
	}
	e := s.ext[i]
	if e.Start == start {
		s.cutFront(i, count)
		return true
	}
	s.ext[i].Count = start - e.Start
	if e.End() > end {
		s.ext = slices.Insert(s.ext, i+1, coffer.Extent{Start: end, Count: e.End() - end})
	}
	s.pages -= count
	return true
}

// cutFront removes the first n pages of extent i.
func (s *extentSet) cutFront(i int, n int64) {
	if e := &s.ext[i]; n < e.Count {
		e.Start += n
		e.Count -= n
	} else {
		s.ext = slices.Delete(s.ext, i, i+1)
	}
	s.pages -= n
}

// Carve removes whatever part of [start, start+count) the set holds and
// appends the parts it did not hold to out, in address order.
func (s *extentSet) Carve(start, count int64, out []coffer.Extent) []coffer.Extent {
	end := start + count
	for at := start; at < end; {
		i := s.floor(at)
		if i < 0 || s.ext[i].End() <= at {
			i++
		}
		if i == len(s.ext) || s.ext[i].Start >= end {
			return append(out, coffer.Extent{Start: at, Count: end - at})
		}
		e := s.ext[i]
		if e.Start > at {
			out = append(out, coffer.Extent{Start: at, Count: e.Start - at})
			at = e.Start
		}
		hi := min(e.End(), end)
		s.Remove(at, hi-at)
		at = hi
	}
	return out
}

// Contains reports whether every page of [start, start+count) is present.
func (s *extentSet) Contains(start, count int64) bool {
	i := s.floor(start)
	return i >= 0 && s.ext[i].End() >= start+count
}

// TakeFirst removes and returns up to want pages as extents, first-fit in
// address order. It returns fewer pages only if the set runs dry.
func (s *extentSet) TakeFirst(want int64) []coffer.Extent {
	var out []coffer.Extent
	n := 0 // extents taken whole
	for ; n < len(s.ext) && want > 0; n++ {
		e := &s.ext[n]
		take := min(e.Count, want)
		out = append(out, coffer.Extent{Start: e.Start, Count: take})
		s.pages -= take
		want -= take
		if take < e.Count {
			e.Start += take
			e.Count -= take
			break
		}
	}
	s.ext = slices.Delete(s.ext, 0, n)
	return out
}

// TakeRun removes and returns want pages as a single contiguous run, or
// ok=false (set untouched) when no extent is large enough. Best-fit: the
// smallest sufficient extent, the lowest on a tie, is split, keeping large
// runs intact for later batch grants.
func (s *extentSet) TakeRun(want int64) (coffer.Extent, bool) {
	if want <= 0 {
		return coffer.Extent{}, false
	}
	best := -1
	for i, e := range s.ext {
		if e.Count >= want && (best < 0 || e.Count < s.ext[best].Count) {
			best = i
			if e.Count == want {
				break
			}
		}
	}
	if best < 0 {
		return coffer.Extent{}, false
	}
	run := coffer.Extent{Start: s.ext[best].Start, Count: want}
	s.cutFront(best, want)
	return run, true
}

// Each calls fn for every extent in address order. fn must not modify the
// set; a loop that does walks it with Next.
func (s *extentSet) Each(fn func(start, count int64)) {
	for _, e := range s.ext {
		fn(e.Start, e.Count)
	}
}

// Next returns the first extent starting at or after page from.
func (s *extentSet) Next(from int64) (coffer.Extent, bool) {
	if i := s.ceil(from); i < len(s.ext) {
		return s.ext[i], true
	}
	return coffer.Extent{}, false
}

// All returns every extent in address order.
func (s *extentSet) All() []coffer.Extent {
	return append(make([]coffer.Extent, 0, len(s.ext)), s.ext...)
}

// Clear empties the set, keeping its capacity for the next owner.
func (s *extentSet) Clear() {
	s.ext = s.ext[:0]
	s.pages = 0
}
