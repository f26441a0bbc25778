package kernfs

import (
	"math/rand"
	"slices"
	"sort"
	"testing"

	"zofs/internal/coffer"
	"zofs/internal/rbtree"
)

// naiveSet mirrors extentSet with a plain page map.
type naiveSet map[int64]bool

func (n naiveSet) add(start, count int64) {
	for p := start; p < start+count; p++ {
		n[p] = true
	}
}
func (n naiveSet) remove(start, count int64) bool {
	for p := start; p < start+count; p++ {
		if !n[p] {
			return false
		}
	}
	for p := start; p < start+count; p++ {
		delete(n, p)
	}
	return true
}

func (n naiveSet) equal(s *extentSet) bool {
	if int64(len(n)) != s.Pages() {
		return false
	}
	for _, e := range s.All() {
		for p := e.Start; p < e.End(); p++ {
			if !n[p] {
				return false
			}
		}
	}
	return true
}

func TestExtentSetBasics(t *testing.T) {
	s := newExtentSet()
	s.Add(10, 5)
	s.Add(15, 5) // coalesce
	s.Add(0, 3)
	if s.Pages() != 13 {
		t.Fatalf("Pages = %d", s.Pages())
	}
	if all := s.All(); len(all) != 2 || all[1].Start != 10 || all[1].Count != 10 {
		t.Fatalf("All = %v", all)
	}
	if !s.Contains(12, 5) || s.Contains(8, 3) {
		t.Fatal("Contains wrong")
	}
	if !s.Remove(12, 3) {
		t.Fatal("Remove failed")
	}
	if s.Contains(12, 1) || !s.Contains(10, 2) || !s.Contains(15, 5) {
		t.Fatal("post-Remove state wrong")
	}
	if s.Remove(100, 1) {
		t.Fatal("Remove of absent range succeeded")
	}
}

func TestExtentSetTakeFirst(t *testing.T) {
	s := newExtentSet()
	s.Add(100, 4)
	s.Add(200, 10)
	got := s.TakeFirst(6)
	var n int64
	for _, e := range got {
		n += e.Count
	}
	if n != 6 || got[0].Start != 100 || got[0].Count != 4 {
		t.Fatalf("TakeFirst = %v", got)
	}
	if s.Pages() != 8 {
		t.Fatalf("remaining = %d", s.Pages())
	}
	// Exhaustion returns what exists.
	rest := s.TakeFirst(100)
	n = 0
	for _, e := range rest {
		n += e.Count
	}
	if n != 8 || s.Pages() != 0 {
		t.Fatalf("drain = %v, left %d", rest, s.Pages())
	}
}

// TestExtentSetAgainstModel runs randomized disjoint adds, removes and
// takes, comparing against a naive page-set model.
func TestExtentSetAgainstModel(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	s := newExtentSet()
	model := naiveSet{}
	for i := 0; i < 20000; i++ {
		switch rng.Intn(4) {
		case 0, 1: // add a disjoint range
			start := rng.Int63n(5000)
			count := rng.Int63n(8) + 1
			ok := true
			for p := start; p < start+count; p++ {
				if model[p] {
					ok = false
					break
				}
			}
			if !ok {
				continue
			}
			s.Add(start, count)
			model.add(start, count)
		case 2: // remove a present sub-range
			if len(model) == 0 {
				continue
			}
			pages := make([]int64, 0, len(model))
			for p := range model {
				pages = append(pages, p)
			}
			sort.Slice(pages, func(a, b int) bool { return pages[a] < pages[b] })
			start := pages[rng.Intn(len(pages))]
			count := int64(1)
			for model[start+count] && count < 4 {
				count++
			}
			got := s.Remove(start, count)
			want := model.remove(start, count)
			if got != want {
				t.Fatalf("step %d: Remove(%d,%d) = %v want %v", i, start, count, got, want)
			}
		case 3: // take
			want := rng.Int63n(6) + 1
			got := s.TakeFirst(want)
			var taken int64
			for _, e := range got {
				taken += e.Count
				if !model.remove(e.Start, e.Count) {
					t.Fatalf("step %d: TakeFirst returned absent range %v", i, e)
				}
			}
			if taken > want {
				t.Fatalf("step %d: took %d > %d", i, taken, want)
			}
		}
		if i%500 == 0 && !model.equal(s) {
			t.Fatalf("step %d: model divergence (pages %d vs %d)", i, len(model), s.Pages())
		}
	}
	if !model.equal(s) {
		t.Fatal("final divergence")
	}
}

// refExtentSet is the extent set as it was before it edited extents in place:
// every change deletes the old extent and inserts what is left of it. It is
// the reference TestExtentSetMatchesReference holds the in-place set to.
type refExtentSet struct{ t *rbtree.Tree }

func (s refExtentSet) Add(start, count int64) {
	if pk, pv, ok := s.t.Floor(start); ok && pk+pv == start {
		s.t.Delete(pk)
		start, count = pk, pv+count
	}
	if nk, nv, ok := s.t.Ceiling(start); ok && start+count == nk {
		s.t.Delete(nk)
		count += nv
	}
	s.t.Insert(start, count)
}

func (s refExtentSet) Remove(start, count int64) bool {
	k, v, ok := s.t.Floor(start)
	if !ok || k+v < start+count {
		return false
	}
	s.t.Delete(k)
	if k < start {
		s.t.Insert(k, start-k)
	}
	if k+v > start+count {
		s.t.Insert(start+count, k+v-(start+count))
	}
	return true
}

func (s refExtentSet) TakeFirst(want int64) []coffer.Extent {
	var out []coffer.Extent
	for want > 0 {
		k, v, ok := s.t.Min()
		if !ok {
			break
		}
		take := min(v, want)
		s.t.Delete(k)
		if take < v {
			s.t.Insert(k+take, v-take)
		}
		out = append(out, coffer.Extent{Start: k, Count: take})
		want -= take
	}
	return out
}

func (s refExtentSet) TakeRun(want int64) (coffer.Extent, bool) {
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
	s.t.Delete(bestK)
	if bestV > want {
		s.t.Insert(bestK+want, bestV-want)
	}
	return coffer.Extent{Start: bestK, Count: want}, true
}

func (s refExtentSet) All() []coffer.Extent {
	out := []coffer.Extent{}
	s.t.Ascend(func(k, v int64) bool {
		out = append(out, coffer.Extent{Start: k, Count: v})
		return true
	})
	return out
}

// TestExtentSetMatchesReference drives the set and the reference through
// 10,000 seeded steps of disjoint adds, removes of present sub-ranges,
// TakeRun and TakeFirst. Every take must return the same extents and every
// step must leave the same extent list — this is what pins page placement,
// and with it every simulated number, across the in-place rewrite. Each and
// Next must walk that same list.
func TestExtentSetMatchesReference(t *testing.T) {
	const space = 1024
	rng := rand.New(rand.NewSource(2024))
	s, ref := newExtentSet(), refExtentSet{rbtree.New()}
	for step := 0; step < 10000; step++ {
		all := ref.All()
		switch op := rng.Intn(10); {
		case op < 5: // add a range that overlaps nothing present; half of them abut
			start, count := rng.Int63n(space), rng.Int63n(12)+1
			if len(all) > 0 && rng.Intn(2) == 0 {
				if e := all[rng.Intn(len(all))]; rng.Intn(2) == 0 {
					start = e.End()
				} else {
					start = max(0, e.Start-count)
				}
			}
			free := true
			for _, e := range all {
				free = free && (start+count <= e.Start || e.End() <= start)
			}
			if !free {
				continue
			}
			s.Add(start, count)
			ref.Add(start, count)
		case op < 7: // remove the front, the tail, the middle or all of an extent
			if len(all) == 0 {
				continue
			}
			e := all[rng.Intn(len(all))]
			start := e.Start + rng.Int63n(e.Count)
			count := rng.Int63n(e.End()-start) + 1
			if rng.Intn(2) == 0 {
				start = e.Start
			}
			if got, want := s.Remove(start, count), ref.Remove(start, count); got != want || !got {
				t.Fatalf("step %d: Remove(%d,%d) = %v, reference %v", step, start, count, got, want)
			}
		case op < 8: // a range that is not wholly present must be refused
			start, count := rng.Int63n(space), rng.Int63n(40)+1
			if got, want := s.Remove(start, count), ref.Remove(start, count); got != want {
				t.Fatalf("step %d: Remove(%d,%d) = %v, reference %v", step, start, count, got, want)
			}
		case op < 9:
			want := rng.Int63n(16) + 1
			got, ok := s.TakeRun(want)
			rgot, rok := ref.TakeRun(want)
			if got != rgot || ok != rok {
				t.Fatalf("step %d: TakeRun(%d) = %v,%v, reference %v,%v", step, want, got, ok, rgot, rok)
			}
		default:
			want := rng.Int63n(24) + 1
			if got, rgot := s.TakeFirst(want), ref.TakeFirst(want); !slices.Equal(got, rgot) {
				t.Fatalf("step %d: TakeFirst(%d) = %v, reference %v", step, want, got, rgot)
			}
		}
		all = ref.All()
		if got := s.All(); !slices.Equal(got, all) {
			t.Fatalf("step %d: extents %v, reference %v", step, got, all)
		}
		var pages int64
		for _, e := range all {
			pages += e.Count
		}
		if s.Pages() != pages {
			t.Fatalf("step %d: Pages = %d, extents hold %d", step, s.Pages(), pages)
		}
		if step%100 == 0 {
			var walked []coffer.Extent
			for e, ok := s.Next(0); ok; e, ok = s.Next(e.End()) {
				walked = append(walked, e)
			}
			if !slices.Equal(walked, all) {
				t.Fatalf("step %d: Next walked %v, reference %v", step, walked, all)
			}
		}
	}
}
