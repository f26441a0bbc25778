package sqldb_test

import (
	"fmt"
	"testing"

	"zofs/internal/lockprof"
	"zofs/internal/pmemtrace"
	"zofs/internal/series"
	"zofs/internal/spans"
	"zofs/internal/telemetry"
)

// TestAllocBudget pins the engine's own heap allocations per call with every
// collector off and the pages it touches cached: a lookup and a scan return
// views, an update of a journaled page edits it in place and a Tx is a value,
// so nothing is left but what the file system allocates to create, sync and
// unlink a journal.
func TestAllocBudget(t *testing.T) {
	if telemetry.Active() != nil || spans.Active() != nil || series.Active() != nil ||
		lockprof.Active() != nil || pmemtrace.Active() != nil {
		t.Fatal("a collector is on: the budget is stated with all of them off")
	}
	db, fs, th := newDB(t)
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	// Three levels: 3,000 rows of 100 bytes under keys of 40.
	key := func(i int) string { return fmt.Sprintf("%040d", i) }
	val := make([]byte, 100)
	tx, err := db.Begin(th)
	must(err)
	for i := 0; i < 3000; i++ {
		must(tx.Put("t", []byte(key(i)), val))
	}
	must(tx.Commit())

	// What the file system itself allocates for an empty transaction's calls.
	probe, err := fs.Create(th, "/probe", 0o644)
	must(err)
	journal := testing.AllocsPerRun(100, func() {
		j, err := fs.Create(th, "/probe-journal", 0o644)
		must(err)
		_, err = j.Append(th, val[:16])
		must(err)
		must(probe.Sync(th))
		must(j.Close(th))
		must(fs.Unlink(th, "/probe-journal"))
	})

	tx, err = db.Begin(th)
	must(err)
	must(tx.Put("t", []byte(key(1500)), val)) // journals the leaf
	k, rows, n := []byte(key(1500)), 0, 0
	row := make([]byte, 0, len(val))
	cases := []struct {
		name string
		max  float64
		f    func()
	}{
		{"Get", 0, func() {
			_, err := tx.Get("t", k)
			must(err)
		}},
		{"Put replacing, another length", 0, func() {
			n++
			must(tx.Put("t", k, val[:50+n%50]))
		}},
		{"Get, then Put of the row edited in the caller's buffer", 0, func() {
			v, err := tx.Get("t", k)
			must(err)
			row = append(row[:0], v...)
			row[0]++
			must(tx.Put("t", k, row))
		}},
		{"Scan of 100 rows", 0, func() {
			rows = 0
			must(tx.Scan("t", k, func(_, _ []byte) bool { rows++; return rows < 100 }))
		}},
	}
	for _, c := range cases {
		if got := testing.AllocsPerRun(200, c.f); got > c.max {
			t.Errorf("%s: %v allocs/op, budget %v", c.name, got, c.max)
		}
	}
	must(tx.Commit())
	if got := testing.AllocsPerRun(100, func() {
		tx, err := db.Begin(th)
		must(err)
		must(tx.Commit())
	}); got > journal {
		t.Errorf("Begin+Commit: %v allocs/op, budget %v (the file system's own)", got, journal)
	}
}
