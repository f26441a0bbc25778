package lsmdb_test

import (
	"errors"
	"fmt"
	"testing"

	"zofs/internal/lsmdb"
	"zofs/internal/proc"
	"zofs/internal/sysfactory"
)

func newDB(t *testing.T, opts lsmdb.Options) (*lsmdb.DB, *proc.Thread) {
	t.Helper()
	in, err := sysfactory.ZoFS.New(2<<30, false)
	if err != nil {
		t.Fatal(err)
	}
	th := in.Proc.NewThread()
	db, err := lsmdb.Open(in.FS, th, opts)
	if err != nil {
		t.Fatal(err)
	}
	return db, th
}

func TestPutGetDelete(t *testing.T) {
	db, th := newDB(t, lsmdb.Options{})
	if err := db.Put(th, "alpha", []byte("1")); err != nil {
		t.Fatal(err)
	}
	v, err := db.Get(th, "alpha")
	if err != nil || string(v) != "1" {
		t.Fatalf("Get = %q,%v", v, err)
	}
	if _, err := db.Get(th, "beta"); !errors.Is(err, lsmdb.ErrNotFound) {
		t.Fatalf("missing key = %v", err)
	}
	if err := db.Delete(th, "alpha"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Get(th, "alpha"); !errors.Is(err, lsmdb.ErrNotFound) {
		t.Fatalf("deleted key = %v", err)
	}
}

func TestFlushAndReadFromSST(t *testing.T) {
	db, th := newDB(t, lsmdb.Options{MemtableBytes: 4 << 10})
	val := make([]byte, 100)
	for i := 0; i < 500; i++ {
		if err := db.Put(th, fmt.Sprintf("key%05d", i), val); err != nil {
			t.Fatal(err)
		}
	}
	l0, l1, mem := db.Stats()
	if l0+l1 == 0 {
		t.Fatalf("expected SSTs after small-memtable fill: l0=%d l1=%d mem=%d", l0, l1, mem)
	}
	// Every key still readable (from memtable or tables).
	for i := 0; i < 500; i += 37 {
		if _, err := db.Get(th, fmt.Sprintf("key%05d", i)); err != nil {
			t.Fatalf("key%05d lost: %v", i, err)
		}
	}
	// Updates shadow older SST content.
	if err := db.Put(th, "key00000", []byte("new")); err != nil {
		t.Fatal(err)
	}
	v, _ := db.Get(th, "key00000")
	if string(v) != "new" {
		t.Fatalf("shadowing broken: %q", v)
	}
}

func TestCompactionDropsTombstones(t *testing.T) {
	db, th := newDB(t, lsmdb.Options{MemtableBytes: 2 << 10, L0Limit: 2})
	val := make([]byte, 64)
	for i := 0; i < 200; i++ {
		db.Put(th, fmt.Sprintf("k%04d", i), val)
	}
	for i := 0; i < 200; i += 2 {
		db.Delete(th, fmt.Sprintf("k%04d", i))
	}
	// Force flush+compaction churn.
	for i := 200; i < 600; i++ {
		db.Put(th, fmt.Sprintf("k%04d", i), val)
	}
	for i := 0; i < 200; i += 2 {
		if _, err := db.Get(th, fmt.Sprintf("k%04d", i)); !errors.Is(err, lsmdb.ErrNotFound) {
			t.Fatalf("tombstoned k%04d resurrected: %v", i, err)
		}
	}
	for i := 1; i < 200; i += 2 {
		if _, err := db.Get(th, fmt.Sprintf("k%04d", i)); err != nil {
			t.Fatalf("live k%04d lost: %v", i, err)
		}
	}
}

func TestScanOrderedAndShadowed(t *testing.T) {
	db, th := newDB(t, lsmdb.Options{MemtableBytes: 2 << 10})
	for i := 0; i < 300; i++ {
		db.Put(th, fmt.Sprintf("s%04d", i), []byte("old"))
	}
	db.Put(th, "s0000", []byte("new"))
	db.Delete(th, "s0001")
	var keys []string
	first := ""
	err := db.Scan(th, func(k string, v []byte) bool {
		if k == "s0000" {
			first = string(v)
		}
		keys = append(keys, k)
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if first != "new" {
		t.Fatalf("scan did not shadow: %q", first)
	}
	if len(keys) != 299 { // 300 - 1 deleted
		t.Fatalf("scan saw %d keys", len(keys))
	}
	for i := 1; i < len(keys); i++ {
		if keys[i-1] >= keys[i] {
			t.Fatalf("scan out of order at %d: %q >= %q", i, keys[i-1], keys[i])
		}
	}
}

func TestWALSurvivesReopen(t *testing.T) {
	in, err := sysfactory.ZoFS.New(1<<30, false)
	if err != nil {
		t.Fatal(err)
	}
	th := in.Proc.NewThread()
	db, err := lsmdb.Open(in.FS, th, lsmdb.Options{Dir: "/wal"})
	if err != nil {
		t.Fatal(err)
	}
	db.Put(th, "persist", []byte("me"))
	// No Close: simulate the process dying with the memtable unflushed;
	// the WAL alone must recover the write.
	db2, err := lsmdb.Open(in.FS, th, lsmdb.Options{Dir: "/wal"})
	if err != nil {
		t.Fatal(err)
	}
	v, err := db2.Get(th, "persist")
	if err != nil || string(v) != "me" {
		t.Fatalf("WAL replay = %q,%v", v, err)
	}
}

func TestDbBenchOpsRun(t *testing.T) {
	for _, op := range lsmdb.BenchOps {
		op := op
		t.Run(string(op), func(t *testing.T) {
			in, err := sysfactory.ZoFS.New(2<<30, false)
			if err != nil {
				t.Fatal(err)
			}
			r, err := lsmdb.RunBench(in.FS, in.Proc, op, 2000)
			if err != nil {
				t.Fatal(err)
			}
			if r.MicrosPerOp <= 0 {
				t.Fatalf("no cost measured: %+v", r)
			}
		})
	}
}

func TestTable7Ordering(t *testing.T) {
	// Key shape of Table 7: ZoFS has lower latency than Ext4-DAX on every
	// operation, and reads are much cheaper than sync writes.
	lat := func(sys sysfactory.System, op lsmdb.BenchOp) float64 {
		in, err := sys.New(2<<30, false)
		if err != nil {
			t.Fatal(err)
		}
		r, err := lsmdb.RunBench(in.FS, in.Proc, op, 2000)
		if err != nil {
			t.Fatal(err)
		}
		return r.MicrosPerOp
	}
	for _, op := range []lsmdb.BenchOp{lsmdb.WriteSync, lsmdb.WriteRand, lsmdb.ReadRand} {
		z := lat(sysfactory.ZoFS, op)
		e := lat(sysfactory.Ext4DAX, op)
		if z >= e {
			t.Errorf("%s: ZoFS (%.2fµs) should beat Ext4-DAX (%.2fµs)", op, z, e)
		}
	}
}
