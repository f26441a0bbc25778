package sqldb_test

import (
	"fmt"
	"runtime"
	"testing"

	"zofs/internal/lockprof"
	"zofs/internal/pmemtrace"
	"zofs/internal/series"
	"zofs/internal/spans"
	"zofs/internal/sqldb"
	"zofs/internal/telemetry"
)

// TestAllocBudget pins the engine's own heap allocations per call with every
// collector off: a lookup and a scan return views, an update of a journaled
// page edits it in place and keeps its slot table in step, a Tx is a value
// and a rollback keeps the table handles and the pages it drops, so nothing
// is left but what the file system allocates to create, sync and unlink a
// journal. Pages the database grows by, or loads, are carved from slabs.
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
		{"Rollback, then Put to the same table", 0, func() {
			must(tx.Rollback())
			tx, err = db.Begin(th)
			must(err)
			must(tx.Put("t", k, val))
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

	// Growth: rows of a kilobyte, three to a leaf, split a leaf every other
	// Put; pages and their slot tables come from the pager's slabs.
	pages := func() int64 {
		fi, err := fs.Stat(th, "/test.db")
		must(err)
		return fi.Size / sqldb.PageSize
	}
	before, big := pages(), make([]byte, 1000)
	tx, err = db.Begin(th)
	must(err)
	must(tx.CreateTable("grow"))
	const puts = 2500
	keys := make([][]byte, puts)
	for i := range keys {
		keys[i] = []byte(key(i))
	}
	if got := mallocs(func() {
		for i := 0; i < puts; i++ {
			must(tx.Put("grow", keys[i], big))
		}
	}) / puts; got > 0.1 {
		t.Errorf("Put splitting leaves: %v allocs/op, budget 0.1", got)
	}
	must(tx.Commit())
	grown := pages() - before

	// Rows of 13-byte cells, some 300 to a page: each page outgrows the slot
	// table its slab carved and takes one larger table.
	tiny := make([][]byte, 10000)
	for i := range tiny {
		tiny[i] = fmt.Appendf(nil, "%08d", i)
	}
	tx, err = db.Begin(th)
	must(err)
	must(tx.CreateTable("tiny"))
	got := mallocs(func() {
		for _, k := range tiny {
			must(tx.Put("tiny", k, val[:1]))
		}
	})
	must(tx.Commit())
	if perPage := got / float64(pages()-before-grown); perPage > 1.1 {
		t.Errorf("Put of small rows: %v allocs per page grown, budget 1.1", perPage)
	}

	// A cold cache: reopened, the database loads each of the table's pages
	// anew as the Gets reach it.
	must(db.Close(th))
	db, err = sqldb.Open(fs, th, "/test.db")
	must(err)
	tx, err = db.Begin(th)
	must(err)
	if got := mallocs(func() {
		for i := 0; i < puts; i++ {
			_, err := tx.Get("grow", keys[i])
			must(err)
		}
	}); grown < 1000 || got/float64(grown) > 0.1 {
		t.Errorf("Get from a cold cache: %v allocs over %d pages, budget 0.1 per page", got, grown)
	}
	must(tx.Commit())
}

// mallocs counts the heap objects f allocates, as testing.AllocsPerRun does
// but without rounding down to whole objects per call.
func mallocs(f func()) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs - before.Mallocs)
}
