package sqldb_test

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
	"testing/quick"

	"zofs/internal/proc"
	"zofs/internal/sqldb"
	"zofs/internal/sysfactory"
	"zofs/internal/vfs"
)

func newDB(t *testing.T) (*sqldb.DB, vfs.FileSystem, *proc.Thread) {
	t.Helper()
	in, err := sysfactory.ZoFS.New(2 << 30)
	if err != nil {
		t.Fatal(err)
	}
	th := in.Proc.NewThread()
	db, err := sqldb.Open(in.FS, th, "/test.db")
	if err != nil {
		t.Fatal(err)
	}
	return db, in.FS, th
}

func TestPutGetCommit(t *testing.T) {
	db, _, th := newDB(t)
	tx, err := db.Begin(th)
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Put("t", []byte("k1"), []byte("v1")); err != nil {
		t.Fatal(err)
	}
	v, err := tx.Get("t", []byte("k1"))
	if err != nil || string(v) != "v1" {
		t.Fatalf("in-txn Get = %q,%v", v, err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	v, err = db.Get(th, "t", "k1")
	if err != nil || string(v) != "v1" {
		t.Fatalf("post-commit Get = %q,%v", v, err)
	}
	if _, err := db.Get(th, "t", "nope"); !errors.Is(err, sqldb.ErrNotFound) {
		t.Fatalf("missing = %v", err)
	}
}

func TestRollbackUndoesEverything(t *testing.T) {
	db, _, th := newDB(t)
	tx, _ := db.Begin(th)
	tx.Put("t", []byte("keep"), []byte("A"))
	tx.Commit()

	tx2, _ := db.Begin(th)
	tx2.Put("t", []byte("keep"), []byte("B"))
	tx2.Put("t", []byte("new"), []byte("C"))
	if err := tx2.Rollback(); err != nil {
		t.Fatal(err)
	}
	v, err := db.Get(th, "t", "keep")
	if err != nil || string(v) != "A" {
		t.Fatalf("rolled-back value = %q,%v", v, err)
	}
	if _, err := db.Get(th, "t", "new"); !errors.Is(err, sqldb.ErrNotFound) {
		t.Fatalf("rolled-back insert visible: %v", err)
	}
	// The database remains usable.
	tx3, _ := db.Begin(th)
	if err := tx3.Put("t", []byte("after"), []byte("D")); err != nil {
		t.Fatal(err)
	}
	tx3.Commit()
}

func TestManyRowsSplitAndScan(t *testing.T) {
	db, _, th := newDB(t)
	tx, _ := db.Begin(th)
	const n = 3000
	val := make([]byte, 100)
	for i := 0; i < n; i++ {
		if err := tx.Put("big", []byte(fmt.Sprintf("row-%06d", i)), val); err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	// Every row is retrievable after tree splits.
	for i := 0; i < n; i += 131 {
		if _, err := db.Get(th, "big", fmt.Sprintf("row-%06d", i)); err != nil {
			t.Fatalf("row %d: %v", i, err)
		}
	}
	// Range scan is ordered and complete.
	var last string
	count := 0
	db.Scan(th, "big", "row-001000", func(k string, _ []byte) bool {
		if last != "" && k <= last {
			t.Fatalf("out of order: %q after %q", k, last)
		}
		last = k
		count++
		return true
	})
	if count != n-1000 {
		t.Fatalf("scan saw %d rows, want %d", count, n-1000)
	}
}

func TestDeleteRows(t *testing.T) {
	db, _, th := newDB(t)
	tx, _ := db.Begin(th)
	for i := 0; i < 100; i++ {
		tx.Put("t", []byte(fmt.Sprintf("d%03d", i)), []byte("x"))
	}
	for i := 0; i < 100; i += 2 {
		if err := tx.Delete("t", []byte(fmt.Sprintf("d%03d", i))); err != nil {
			t.Fatal(err)
		}
	}
	tx.Commit()
	for i := 0; i < 100; i++ {
		_, err := db.Get(th, "t", fmt.Sprintf("d%03d", i))
		if i%2 == 0 && !errors.Is(err, sqldb.ErrNotFound) {
			t.Fatalf("deleted d%03d visible: %v", i, err)
		}
		if i%2 == 1 && err != nil {
			t.Fatalf("live d%03d lost: %v", i, err)
		}
	}
}

func TestHotJournalRecovery(t *testing.T) {
	// Simulate a crash mid-transaction: dirty pages written to the file
	// but the journal still present. Reopening must roll back.
	db, fs, th := newDB(t)
	tx, _ := db.Begin(th)
	tx.Put("t", []byte("stable"), []byte("OLD"))
	tx.Commit()

	tx2, _ := db.Begin(th)
	tx2.Put("t", []byte("stable"), []byte("NEW"))
	// Crash before commit: abandon the Tx, leaving the hot journal, and
	// simulate the dirty page having partially reached the file.
	// (The pager only writes at commit, so just leave the journal.)

	db2, err := sqldb.Open(fs, th, "/test.db")
	if err != nil {
		t.Fatalf("reopen with hot journal: %v", err)
	}
	v, err := db2.Get(th, "t", "stable")
	if err != nil || string(v) != "OLD" {
		t.Fatalf("hot-journal rollback = %q,%v", v, err)
	}
}

func TestReopenSeesCommitted(t *testing.T) {
	db, fs, th := newDB(t)
	tx, _ := db.Begin(th)
	for i := 0; i < 500; i++ {
		tx.Put("t", []byte(fmt.Sprintf("p%04d", i)), []byte("v"))
	}
	tx.Commit()
	db.Close(th)

	db2, err := sqldb.Open(fs, th, "/test.db")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 500; i += 61 {
		if _, err := db2.Get(th, "t", fmt.Sprintf("p%04d", i)); err != nil {
			t.Fatalf("p%04d lost across reopen: %v", i, err)
		}
	}
}

func TestTwoTables(t *testing.T) {
	db, _, th := newDB(t)
	tx, _ := db.Begin(th)
	tx.Put("a", []byte("k"), []byte("in-a"))
	tx.Put("b", []byte("k"), []byte("in-b"))
	tx.Commit()
	va, _ := db.Get(th, "a", "k")
	vb, _ := db.Get(th, "b", "k")
	if string(va) != "in-a" || string(vb) != "in-b" {
		t.Fatalf("tables collide: %q %q", va, vb)
	}
}

func TestOversizedRejected(t *testing.T) {
	db, _, th := newDB(t)
	tx, _ := db.Begin(th)
	defer tx.Rollback()
	if err := tx.Put("t", []byte(string(make([]byte, 300))), []byte("v")); err == nil {
		t.Fatal("oversized key accepted")
	}
	if err := tx.Put("t", []byte("k"), make([]byte, 4000)); err == nil {
		t.Fatal("oversized value accepted")
	}
}

// Property: the btree agrees with a map under random put/delete/get
// sequences, across commits.
func TestBtreeMatchesMapProperty(t *testing.T) {
	db, _, th := newDB(t)
	model := map[string]string{}
	f := func(ops []struct {
		K uint8
		V uint8
		D bool
	}) bool {
		tx, err := db.Begin(th)
		if err != nil {
			return false
		}
		for _, op := range ops {
			k := fmt.Sprintf("pk-%03d", op.K)
			if op.D {
				delete(model, k)
				if err := tx.Delete("prop", []byte(k)); err != nil && !errors.Is(err, sqldb.ErrNotFound) {
					return false
				}
			} else {
				v := fmt.Sprintf("val-%03d", op.V)
				model[k] = v
				if err := tx.Put("prop", []byte(k), []byte(v)); err != nil {
					return false
				}
			}
		}
		if err := tx.Commit(); err != nil {
			return false
		}
		for k, v := range model {
			got, err := db.Get(th, "prop", k)
			if err != nil || string(got) != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestGetAfterTheViewDied: Get returns a view of the cached page, which a
// write to that page moves. Here the write splits the page, so the row the
// view showed leaves it for a new one; a second Get finds the row there, and
// the commit stores it.
func TestGetAfterTheViewDied(t *testing.T) {
	db, _, th := newDB(t)
	tx, err := db.Begin(th)
	if err != nil {
		t.Fatal(err)
	}
	row := func(i int) []byte { return bytes.Repeat([]byte{'a' + byte(i)}, 1000) }
	for i := 1; i <= 4; i++ { // four rows of a kilobyte: one leaf, no room for a fifth
		if err := tx.Put("t", []byte{'k', '0' + byte(i)}, row(i)); err != nil {
			t.Fatal(err)
		}
	}
	view, err := tx.Get("t", []byte("k4"))
	if err != nil || !bytes.Equal(view, row(4)) {
		t.Fatalf("Get = %.8q…, %v", view, err)
	}
	if err := tx.Put("t", []byte("k0"), row(0)); err != nil { // shifts every row, then splits
		t.Fatal(err)
	}
	if bytes.Equal(view, row(4)) {
		t.Fatal("the view survived a write that moved its row: Get copies, or the leaf did not split")
	}
	for i := 0; i <= 4; i++ {
		if v, err := tx.Get("t", []byte{'k', '0' + byte(i)}); err != nil || !bytes.Equal(v, row(i)) {
			t.Fatalf("row %d after the split = %.8q…, %v", i, v, err)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if v, err := db.Get(th, "t", "k4"); err != nil || !bytes.Equal(v, row(4)) {
		t.Fatalf("row 4 committed = %.8q…, %v", v, err)
	}
}

// TestFinishedTxIsInert: a Tx is a value, so a handle outlives its
// transaction (tpcc defers a Rollback behind every Commit); used then, it
// must not end the transaction that began since.
func TestFinishedTxIsInert(t *testing.T) {
	db, _, th := newDB(t)
	tx1, err := db.Begin(th)
	if err != nil {
		t.Fatal(err)
	}
	if err := tx1.Commit(); err != nil {
		t.Fatal(err)
	}
	tx2, err := db.Begin(th)
	if err != nil {
		t.Fatal(err)
	}
	if err := tx2.Put("t", []byte("k"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	if err := tx1.Rollback(); err != nil {
		t.Fatalf("Rollback of a committed transaction: %v", err)
	}
	if err := tx1.Commit(); err == nil {
		t.Fatal("a second Commit succeeded")
	}
	if err := tx2.Commit(); err != nil {
		t.Fatalf("the open transaction after the old handle was used: %v", err)
	}
	if v, err := db.Get(th, "t", "k"); err != nil || string(v) != "v" {
		t.Fatalf("its row = %q, %v", v, err)
	}
}
