package rbtree

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestEmpty(t *testing.T) {
	tr := New()
	if tr.Len() != 0 {
		t.Fatal("empty tree Len != 0")
	}
	if _, ok := tr.Get(1); ok {
		t.Fatal("Get on empty tree")
	}
	if _, _, ok := tr.Min(); ok {
		t.Fatal("Min on empty tree")
	}
	if tr.Delete(1) {
		t.Fatal("Delete on empty tree returned true")
	}
}

func TestInsertGetDelete(t *testing.T) {
	tr := New()
	for i := int64(0); i < 100; i++ {
		tr.Insert(i*10, i)
	}
	if tr.Len() != 100 {
		t.Fatalf("Len = %d", tr.Len())
	}
	if v, ok := tr.Get(550); !ok || v != 55 {
		t.Fatalf("Get(550) = %d,%v", v, ok)
	}
	tr.Insert(550, 999) // replace
	if v, _ := tr.Get(550); v != 999 {
		t.Fatalf("replaced value = %d", v)
	}
	if tr.Len() != 100 {
		t.Fatal("replace must not grow the tree")
	}
	if !tr.Delete(550) {
		t.Fatal("Delete existing returned false")
	}
	if _, ok := tr.Get(550); ok {
		t.Fatal("deleted key still present")
	}
	if tr.Len() != 99 {
		t.Fatalf("Len after delete = %d", tr.Len())
	}
}

func TestFloorCeiling(t *testing.T) {
	tr := New()
	for _, k := range []int64{10, 20, 30} {
		tr.Insert(k, k*2)
	}
	if k, v, ok := tr.Floor(25); !ok || k != 20 || v != 40 {
		t.Fatalf("Floor(25) = %d,%d,%v", k, v, ok)
	}
	if k, _, ok := tr.Floor(10); !ok || k != 10 {
		t.Fatalf("Floor(10) = %d,%v", k, ok)
	}
	if _, _, ok := tr.Floor(5); ok {
		t.Fatal("Floor(5) should not exist")
	}
	if k, _, ok := tr.Ceiling(25); !ok || k != 30 {
		t.Fatalf("Ceiling(25) = %d,%v", k, ok)
	}
	if _, _, ok := tr.Ceiling(31); ok {
		t.Fatal("Ceiling(31) should not exist")
	}
	if k, _, ok := tr.Min(); !ok || k != 10 {
		t.Fatalf("Min = %d,%v", k, ok)
	}
}

func TestAscendOrder(t *testing.T) {
	tr := New()
	keys := []int64{5, 3, 8, 1, 9, 2, 7}
	for _, k := range keys {
		tr.Insert(k, 0)
	}
	var got []int64
	tr.Ascend(func(k, _ int64) bool {
		got = append(got, k)
		return true
	})
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	for i := range keys {
		if got[i] != keys[i] {
			t.Fatalf("Ascend order %v, want %v", got, keys)
		}
	}
	// Early stop.
	n := 0
	tr.Ascend(func(_, _ int64) bool { n++; return n < 3 })
	if n != 3 {
		t.Fatalf("early stop visited %d", n)
	}
}

func TestInvariantsUnderChurn(t *testing.T) {
	tr := New()
	rng := rand.New(rand.NewSource(42))
	present := map[int64]bool{}
	for i := 0; i < 5000; i++ {
		k := int64(rng.Intn(1000))
		if rng.Intn(2) == 0 {
			tr.Insert(k, k)
			present[k] = true
		} else {
			got := tr.Delete(k)
			if got != present[k] {
				t.Fatalf("Delete(%d) = %v, want %v", k, got, present[k])
			}
			delete(present, k)
		}
		if i%500 == 0 {
			if ok, _ := tr.validate(); !ok {
				t.Fatalf("red-black invariants violated at step %d", i)
			}
		}
	}
	if tr.Len() != len(present) {
		t.Fatalf("Len = %d, want %d", tr.Len(), len(present))
	}
	if ok, _ := tr.validate(); !ok {
		t.Fatal("final invariants violated")
	}
}

// Property: the tree agrees with a map and stays valid for arbitrary
// insert/delete sequences.
func TestTreeMatchesMapProperty(t *testing.T) {
	f := func(ops []int16) bool {
		tr := New()
		m := map[int64]int64{}
		for i, op := range ops {
			k := int64(op) % 128
			if i%3 == 2 {
				delete(m, k)
				tr.Delete(k)
			} else {
				m[k] = int64(i)
				tr.Insert(k, int64(i))
			}
		}
		if tr.Len() != len(m) {
			return false
		}
		for k, v := range m {
			if got, ok := tr.Get(k); !ok || got != v {
				return false
			}
		}
		ok, _ := tr.validate()
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestRecycledNodesMatchModel: seeded insert / replace / delete / rekey churn
// on one tree, so most inserts reuse a node an earlier delete unlinked. After
// every step the tree must be a valid red-black tree holding exactly what a
// sorted-map model holds — in particular a deleted key stays absent once its
// node carries another key — and in steady state nothing is allocated.
func TestRecycledNodesMatchModel(t *testing.T) {
	const keySpace = 256
	tr := New()
	model := map[int64]int64{}
	rng := rand.New(rand.NewSource(7))
	sortedKeys := func() []int64 {
		keys := make([]int64, 0, len(model))
		for k := range model {
			keys = append(keys, k)
		}
		sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
		return keys
	}
	for step := 0; step < 4000; step++ {
		k, v := int64(rng.Intn(keySpace)), int64(step)
		_, had := model[k]
		switch op := rng.Intn(10); {
		case op < 4:
			tr.Insert(k, v) // a new key, or a replace in place
			model[k] = v
		case op < 8:
			if tr.Delete(k) != had {
				t.Fatalf("step %d: Delete(%d) = %v, model says %v", step, k, !had, had)
			}
			delete(model, k)
		case had:
			// Move k anywhere strictly between its neighbours.
			keys := sortedKeys()
			i := sort.Search(len(keys), func(i int) bool { return keys[i] >= k })
			lo, hi := int64(-1), int64(keySpace)
			if i > 0 {
				lo = keys[i-1]
			}
			if i+1 < len(keys) {
				hi = keys[i+1]
			}
			nk := lo + 1 + rng.Int63n(hi-lo-1)
			if !tr.Rekey(k, nk, v) {
				t.Fatalf("step %d: Rekey(%d, %d) found no entry", step, k, nk)
			}
			delete(model, k)
			model[nk] = v
		default:
			if tr.Rekey(k, k, v) {
				t.Fatalf("step %d: Rekey of absent key %d succeeded", step, k)
			}
		}
		if ok, _ := tr.validate(); !ok {
			t.Fatalf("step %d: invariants violated", step)
		}
		keys, i := sortedKeys(), 0
		tr.Ascend(func(k, v int64) bool {
			if i >= len(keys) || k != keys[i] || v != model[k] {
				t.Fatalf("step %d: entry %d is (%d,%d), model keys %v", step, i, k, v, keys)
			}
			i++
			return true
		})
		if i != len(keys) {
			t.Fatalf("step %d: tree holds %d entries, model %d", step, i, len(keys))
		}
		for probe := int64(0); probe < keySpace; probe++ {
			_, want := model[probe]
			if _, ok := tr.Get(probe); ok != want {
				t.Fatalf("step %d: Get(%d) present = %v, model says %v", step, probe, ok, want)
			}
		}
	}

	tr.Insert(1000, 0)
	if n := testing.AllocsPerRun(100, func() {
		tr.Delete(1000)
		tr.Insert(1001, 1)
		tr.Delete(1001)
		tr.Insert(1000, 0)
	}); n != 0 {
		t.Fatalf("delete+insert on a warm tree: %v allocs, want 0", n)
	}
}
