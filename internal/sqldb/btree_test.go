package sqldb

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"

	"zofs/internal/proc"
	"zofs/internal/sysfactory"
)

// slotTree is a B-tree on a pager over a real file system, in a transaction,
// with the rows it should hold.
type slotTree struct {
	t    *testing.T
	th   *proc.Thread
	p    *pager
	tree *btree
	rows map[string][]byte
}

func newSlotTree(t *testing.T) *slotTree {
	in, err := sysfactory.ZoFS.New(64 << 20)
	if err != nil {
		t.Fatal(err)
	}
	s := &slotTree{t: t, th: in.Proc.NewThread(), rows: map[string][]byte{}}
	if s.p, err = openPager(in.FS, s.th, "/slots.db"); err != nil {
		t.Fatal(err)
	}
	if err := s.p.begin(s.th); err != nil {
		t.Fatal(err)
	}
	if s.tree, err = newBtree(s.th, s.p); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.p.close(s.th) })
	return s
}

func (s *slotTree) put(key string, vlen int) {
	s.t.Helper()
	val := bytes.Repeat([]byte{byte('a' + vlen%26)}, vlen)
	if err := s.tree.Put(s.th, []byte(key), val); err != nil {
		s.t.Fatal(err)
	}
	s.rows[key] = val
}

func (s *slotTree) del(key string) {
	s.t.Helper()
	if err := s.tree.Delete(s.th, []byte(key)); err != nil {
		s.t.Fatal(err)
	}
	delete(s.rows, key)
}

// check, straight after an edit and before anything reads the tree again:
// every page the transaction wrote still has its slot table (the edit kept
// it, nothing is left to index again) and every table is what indexing the
// image gives; then the tree holds the rows.
func (s *slotTree) check(when string) {
	s.t.Helper()
	for _, no := range s.p.dirty {
		if len(s.p.pages[no].slots) == 0 {
			s.t.Fatalf("%s: page %d lost its slot table", when, no)
		}
	}
	if err := s.p.slotsInStep(); err != nil {
		s.t.Fatalf("%s: %v", when, err)
	}
	var keys []string
	err := s.tree.Scan(s.th, nil, func(k, v []byte) bool {
		if !bytes.Equal(v, s.rows[string(k)]) {
			s.t.Fatalf("%s: row %q holds %d bytes, want %d", when, k, len(v), len(s.rows[string(k)]))
		}
		keys = append(keys, string(k))
		return true
	})
	if err != nil {
		s.t.Fatal(err)
	}
	var want []string
	for k := range s.rows {
		want = append(want, k)
	}
	if slices.Sort(want); !slices.Equal(keys, want) {
		s.t.Fatalf("%s: keys %q, want %q", when, keys, want)
	}
}

// height counts the levels from the root to the leftmost leaf.
func (s *slotTree) height() int {
	s.t.Helper()
	h, no := 1, s.tree.root
	for {
		pg, err := s.tree.node(s.th, no)
		if err != nil {
			s.t.Fatal(err)
		}
		if pg.leaf() {
			return h
		}
		h, no = h+1, pg.child(0)
	}
}

// TestSpliceKeepsSlotsInStep edits one leaf in every shape splice has and
// checks the slot table after each edit.
func TestSpliceKeepsSlotsInStep(t *testing.T) {
	s := newSlotTree(t)
	for _, step := range []struct {
		name string
		key  string
		vlen int // -1: delete
	}{
		{"insert into the empty page", "m", 10},
		{"insert after the last cell", "t", 10},
		{"insert before the first cell", "c", 10},
		{"insert in the middle", "p", 10},
		{"insert an empty cell in the middle", "", 0},
		{"replace with a longer value", "m", 40},
		{"replace with a shorter value", "m", 5},
		{"replace with one of the same length", "p", 10},
		{"delete the last cell", "t", -1},
		{"delete the first cell", "", -1},
		{"delete in the middle", "m", -1},
		{"delete down to one cell", "c", -1},
	} {
		if step.vlen < 0 {
			s.del(step.key)
		} else {
			s.put(step.key, step.vlen)
		}
		s.check(step.name)
	}
	if h := s.height(); h != 1 {
		t.Fatalf("the edits split the leaf: height %d", h)
	}
}

// TestSplitKeepsSlotsInStep grows a tree of big rows under long keys until a
// leaf has split and then an interior page has, checking the slot tables of
// both halves, and of the new root, straight after each split.
func TestSplitKeepsSlotsInStep(t *testing.T) {
	s := newSlotTree(t)
	key := func(i int) string { return fmt.Sprintf("%03d", i*37%1000) + strings.Repeat("k", MaxKeyLen-3) }
	for i := 0; s.height() < 3; i++ {
		if i == 200 {
			t.Fatal("no interior split in 200 rows")
		}
		s.put(key(i), MaxValLen)
		s.check(fmt.Sprintf("put %d", i))
	}
}

// TestRollbackRecyclesPages: a rollback of a transaction that grew the tree
// hands the pages it drops to the next ones, cleared: growing the tree again
// carves no page from a slab, and every page is as packing its cells into a
// zeroed page gives.
func TestRollbackRecyclesPages(t *testing.T) {
	s := newSlotTree(t)
	root := s.tree.root
	grow := func() {
		for i := 0; i < 40; i++ {
			s.put(fmt.Sprintf("k%03d", i*7%40), MaxValLen-i)
		}
		s.check("grown")
	}
	grow()
	carved, slab := s.p.carved, s.p.slab
	if err := s.p.rollback(s.th); err != nil {
		t.Fatal(err)
	}
	if err := s.p.begin(s.th); err != nil {
		t.Fatal(err)
	}
	s.tree.root, s.rows = root, map[string][]byte{}
	grow()
	if s.p.carved != carved || s.p.slab != slab {
		t.Fatalf("the second growth carved %d pages more", s.p.carved-carved)
	}
}

// TestRollbackKeepsTableHandle: a transaction splits a table's root and rolls
// back. The table's handle survives, the same *btree, and the next use finds
// the root the catalog holds again.
func TestRollbackKeepsTableHandle(t *testing.T) {
	in, err := sysfactory.ZoFS.New(64 << 20)
	if err != nil {
		t.Fatal(err)
	}
	th := in.Proc.NewThread()
	db, err := Open(in.FS, th, "/keep.db")
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close(th)
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	val := bytes.Repeat([]byte{'v'}, MaxValLen)
	tx, err := db.Begin(th)
	must(err)
	must(tx.Put("t", []byte("k000"), val))
	must(tx.Commit())
	h, root := db.tables["t"], db.tables["t"].root

	tx, err = db.Begin(th)
	must(err)
	for i := 1; h.root == root; i++ {
		must(tx.Put("t", fmt.Appendf(nil, "k%03d", i), val))
	}
	must(tx.Rollback())
	if db.tables["t"] != h {
		t.Fatal("the rollback dropped the table's handle")
	}

	tx, err = db.Begin(th)
	must(err)
	if _, err := tx.Get("t", []byte("k001")); !errors.Is(err, ErrNotFound) {
		t.Fatalf("a rolled-back row: %v", err)
	}
	if got, err := db.table(th, "t", false); err != nil || got != h || h.root != root {
		t.Fatalf("after the rollback: handle %p (kept %p), root %d (restored %d), %v", got, h, h.root, root, err)
	}
	must(tx.Put("t", []byte("k999"), val))
	must(tx.Commit())
	if v, err := db.Get(th, "t", "k000"); err != nil || !bytes.Equal(v, val) {
		t.Fatalf("the committed row: %d bytes, %v", len(v), err)
	}
}
