package kernfs

import (
	"math/rand"
	"slices"
	"sort"
	"testing"

	"zofs/internal/coffer"
	"zofs/internal/nvm"
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

// runs returns the model's maximal runs in address order: the extents an
// extentSet holding the same pages must hold.
func (n naiveSet) runs() []coffer.Extent {
	pages := make([]int64, 0, len(n))
	for p := range n {
		pages = append(pages, p)
	}
	slices.Sort(pages)
	var out []coffer.Extent
	for _, p := range pages {
		if k := len(out) - 1; k >= 0 && out[k].End() == p {
			out[k].Count++
		} else {
			out = append(out, coffer.Extent{Start: p, Count: 1})
		}
	}
	return out
}

// takeFirst removes up to want pages from the lowest runs.
func (n naiveSet) takeFirst(want int64) []coffer.Extent {
	var out []coffer.Extent
	for _, r := range n.runs() {
		if want == 0 {
			break
		}
		take := min(r.Count, want)
		n.remove(r.Start, take)
		out = append(out, coffer.Extent{Start: r.Start, Count: take})
		want -= take
	}
	return out
}

// takeRun removes want pages from the front of the smallest run that holds
// them, the lowest run on a tie.
func (n naiveSet) takeRun(want int64) (coffer.Extent, bool) {
	var best coffer.Extent
	for _, r := range n.runs() {
		if r.Count >= want && (best.Count == 0 || r.Count < best.Count) {
			best = r
		}
	}
	if best.Count == 0 {
		return coffer.Extent{}, false
	}
	n.remove(best.Start, want)
	return coffer.Extent{Start: best.Start, Count: want}, true
}

// carve removes the model's pages in [start, start+count) and returns the
// runs of the range it did not hold.
func (n naiveSet) carve(start, count int64) []coffer.Extent {
	gaps := naiveSet{}
	for p := start; p < start+count; p++ {
		if !n[p] {
			gaps[p] = true
		}
		delete(n, p)
	}
	return gaps.runs()
}

// equal reports whether s holds exactly the model's pages, as its maximal
// runs.
func (n naiveSet) equal(s *extentSet) bool {
	return s.Pages() == int64(len(n)) && slices.Equal(s.All(), n.runs())
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

// TestExtentSetMatchesReference drives the set and the page-map model
// through 10,000 seeded steps of disjoint adds, removes of present
// sub-ranges, TakeRun and TakeFirst. Every take must return the same extents
// and every step must leave the model's maximal runs as the set's extents —
// this is what pins page placement, and with it every simulated number.
// Each and Next must walk that same list.
func TestExtentSetMatchesReference(t *testing.T) {
	const space = 1024
	rng := rand.New(rand.NewSource(2024))
	s, ref := newExtentSet(), naiveSet{}
	for step := 0; step < 10000; step++ {
		all := ref.runs()
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
			ref.add(start, count)
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
			if got, want := s.Remove(start, count), ref.remove(start, count); got != want || !got {
				t.Fatalf("step %d: Remove(%d,%d) = %v, reference %v", step, start, count, got, want)
			}
		case op < 8: // a range that is not wholly present must be refused
			start, count := rng.Int63n(space), rng.Int63n(40)+1
			if got, want := s.Remove(start, count), ref.remove(start, count); got != want {
				t.Fatalf("step %d: Remove(%d,%d) = %v, reference %v", step, start, count, got, want)
			}
		case op < 9:
			want := rng.Int63n(16) + 1
			got, ok := s.TakeRun(want)
			rgot, rok := ref.takeRun(want)
			if got != rgot || ok != rok {
				t.Fatalf("step %d: TakeRun(%d) = %v,%v, reference %v,%v", step, want, got, ok, rgot, rok)
			}
		default:
			want := rng.Int63n(24) + 1
			if got, rgot := s.TakeFirst(want), ref.takeFirst(want); !slices.Equal(got, rgot) {
				t.Fatalf("step %d: TakeFirst(%d) = %v, reference %v", step, want, got, rgot)
			}
		}
		all = ref.runs()
		if got := s.All(); !slices.Equal(got, all) {
			t.Fatalf("step %d: extents %v, reference %v", step, got, all)
		}
		if s.Pages() != int64(len(ref)) {
			t.Fatalf("step %d: Pages = %d, reference holds %d", step, s.Pages(), len(ref))
		}
		if step%100 == 0 {
			var walked, each []coffer.Extent
			for e, ok := s.Next(0); ok; e, ok = s.Next(e.End()) {
				walked = append(walked, e)
			}
			s.Each(func(start, count int64) {
				each = append(each, coffer.Extent{Start: start, Count: count})
			})
			if !slices.Equal(walked, all) || !slices.Equal(each, all) {
				t.Fatalf("step %d: Next walked %v, Each %v, reference %v", step, walked, each, all)
			}
		}
	}
}

// TestExtentSetCarveMatchesReference: Carve over random ranges — inside one
// extent, across several, over gaps only — removes exactly the pages the
// model holds there and returns the model's runs of the rest, while adds of
// whatever a range lacks keep the set fragmented.
func TestExtentSetCarveMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(39))
	s, ref := newExtentSet(), naiveSet{}
	for step := 0; step < 5000; step++ {
		start, count := rng.Int63n(512), rng.Int63n(40)+1
		if rng.Intn(2) == 0 {
			lacks := naiveSet{}
			for p := start; p < start+count; p++ {
				if !ref[p] {
					lacks[p] = true
				}
			}
			for _, gap := range lacks.runs() {
				s.Add(gap.Start, gap.Count)
				ref.add(gap.Start, gap.Count)
			}
		} else if got, want := s.Carve(start, count, nil), ref.carve(start, count); !slices.Equal(got, want) {
			t.Fatalf("step %d: Carve(%d,%d) = %v, reference %v", step, start, count, got, want)
		}
		if !ref.equal(s) {
			t.Fatalf("step %d: extents %v, reference %v", step, s.All(), ref.runs())
		}
	}
}

// TestExtentSetSteadyStateAllocs: once a set has held its largest size, a
// cycle of splits, merges and takes that makes its size oscillate allocates
// nothing; and the owner set a deleted coffer leaves in spare grows back to
// its old size without allocating.
func TestExtentSetSteadyStateAllocs(t *testing.T) {
	s := newExtentSet()
	for i := int64(0); i < 64; i++ {
		s.Add(i*8, 4)
	}
	cycle := func() {
		s.Remove(9, 2) // split [8,12): 65 extents
		run, ok := s.TakeRun(4)
		if !ok || run != (coffer.Extent{Start: 0, Count: 4}) || !s.Contains(16, 4) {
			panic("cycle: wrong TakeRun or Contains")
		}
		s.Add(9, 2) // merge back: 63
		s.Add(run.Start, run.Count)
	}
	cycle()
	if n := testing.AllocsPerRun(100, cycle); n != 0 {
		t.Fatalf("split/take/merge cycle on a warm set: %v allocs, want 0", n)
	}

	dev := nvm.NewDevice(64 << 20)
	sm := newSpaceManager(dev, nvm.PageSize, dev.Pages())
	sm.initTable(nil, 64, true)
	const a, b, c = coffer.ID(1000), coffer.ID(1001), coffer.ID(1002)
	for i := 0; i < 40; i++ { // interleaved single pages: a holds 40 extents
		for _, id := range []coffer.ID{a, b} {
			if _, err := sm.allocate(nil, 1, id, 1, nil); err != nil {
				t.Fatal(err)
			}
		}
	}
	old := sm.extentsOf(a)
	if len(old) != 40 {
		t.Fatalf("coffer %d holds %d extents, want 40", a, len(old))
	}
	sm.releaseAll(nil, a, false)
	if err := sm.verify(); err != nil {
		t.Fatalf("after releaseAll: %v", err)
	}
	reused := sm.ownerSet(c)
	if reused.Pages() != 0 || len(reused.ext) != 0 || cap(reused.ext) < len(old) {
		t.Fatalf("spare set holds %v, room for %d extents", reused.ext, cap(reused.ext))
	}
	if n := testing.AllocsPerRun(10, func() {
		for _, e := range old {
			reused.Add(e.Start, e.Count)
		}
		reused.Clear()
	}); n != 0 {
		t.Fatalf("spare set growing back to %d extents: %v allocs, want 0", len(old), n)
	}
}
