package tpcc_test

import (
	"encoding/json"
	"hash/fnv"
	"testing"

	"zofs/internal/lockprof"
	"zofs/internal/pmemtrace"
	"zofs/internal/proc"
	"zofs/internal/series"
	"zofs/internal/spans"
	"zofs/internal/sqldb"
	"zofs/internal/sysfactory"
	"zofs/internal/telemetry"
	"zofs/internal/tpcc"
	"zofs/internal/vfs"
)

// smallCfg keeps unit tests fast; the harness uses Default().
func smallCfg() tpcc.Config {
	return tpcc.Config{Warehouses: 1, Districts: 4, CustomersPerDistrict: 60, Items: 300}
}

func setup(t *testing.T) (*sqldb.DB, *proc.Process) {
	t.Helper()
	in, err := sysfactory.ZoFS.New(2 << 30)
	if err != nil {
		t.Fatal(err)
	}
	th := in.Proc.NewThread()
	db, err := tpcc.Setup(in.FS, th, smallCfg())
	if err != nil {
		t.Fatal(err)
	}
	return db, in.Proc
}

func TestLoadPopulates(t *testing.T) {
	db, p := setup(t)
	th := p.NewThread()
	if _, err := db.Get(th, "warehouse", "001"); err != nil {
		t.Fatalf("warehouse missing: %v", err)
	}
	if _, err := db.Get(th, "district", "001-04"); err != nil {
		t.Fatalf("district missing: %v", err)
	}
	if _, err := db.Get(th, "customer", "001-01-00060"); err != nil {
		t.Fatalf("customer missing: %v", err)
	}
	if _, err := db.Get(th, "item", "000300"); err != nil {
		t.Fatalf("item missing: %v", err)
	}
	if _, err := db.Get(th, "stock", "001-000300"); err != nil {
		t.Fatalf("stock missing: %v", err)
	}
}

func TestNewOrderCreatesRows(t *testing.T) {
	db, p := setup(t)
	th := p.NewThread()
	cl := tpcc.NewClient(db, smallCfg(), 1)
	for i := 0; i < 30; i++ {
		if err := cl.Exec(th, tpcc.NEW); err != nil {
			t.Fatalf("NEW #%d: %v", i, err)
		}
	}
	// Some district must have advanced its next_o_id.
	advanced := false
	for d := 1; d <= 4; d++ {
		raw, err := db.Get(th, "district", "001-0"+string(rune('0'+d)))
		if err != nil {
			t.Fatal(err)
		}
		var row struct {
			NextOID int `json:"next_o_id"`
		}
		json.Unmarshal(raw, &row)
		if row.NextOID > 1 {
			advanced = true
		}
	}
	if !advanced {
		t.Fatal("no district advanced next_o_id")
	}
	// Orders exist and are readable.
	found := 0
	db.Scan(th, "orders", "", func(string, []byte) bool { found++; return true })
	if found == 0 {
		t.Fatal("no orders created")
	}
}

func TestAllTransactionTypes(t *testing.T) {
	db, p := setup(t)
	th := p.NewThread()
	cl := tpcc.NewClient(db, smallCfg(), 2)
	// Seed orders first.
	for i := 0; i < 20; i++ {
		if err := cl.Exec(th, tpcc.NEW); err != nil {
			t.Fatal(err)
		}
	}
	for _, typ := range tpcc.MixOrder {
		for i := 0; i < 5; i++ {
			if err := cl.Exec(th, typ); err != nil {
				t.Fatalf("%s: %v", typ, err)
			}
		}
	}
}

func TestDeliveryConsumesNewOrders(t *testing.T) {
	db, p := setup(t)
	th := p.NewThread()
	cl := tpcc.NewClient(db, smallCfg(), 3)
	for i := 0; i < 20; i++ {
		cl.Exec(th, tpcc.NEW)
	}
	countNew := func() int {
		n := 0
		db.Scan(th, "new_order", "", func(string, []byte) bool { n++; return true })
		return n
	}
	before := countNew()
	if before == 0 {
		t.Fatal("no new orders to deliver")
	}
	if err := cl.Exec(th, tpcc.DLY); err != nil {
		t.Fatal(err)
	}
	if after := countNew(); after >= before {
		t.Fatalf("delivery consumed nothing: %d -> %d", before, after)
	}
}

func TestMixedWorkloadRuns(t *testing.T) {
	db, p := setup(t)
	r, err := tpcc.RunWorkload(db, p, smallCfg(), "mixed", 100)
	if err != nil {
		t.Fatal(err)
	}
	if r.TxPerSec <= 0 {
		t.Fatalf("no throughput: %+v", r)
	}
}

func TestWorkloadOrdering(t *testing.T) {
	db, p := setup(t)
	run := func(w string) float64 {
		r, err := tpcc.RunWorkload(db, p, smallCfg(), w, 150)
		if err != nil {
			t.Fatalf("%s: %v", w, err)
		}
		return r.TxPerSec
	}
	newTPS := run("NEW")
	payTPS := run("PAY")
	osTPS := run("OS")
	if payTPS <= newTPS {
		t.Fatalf("PAY (%.0f) should beat NEW (%.0f)", payTPS, newTPS)
	}
	if osTPS <= payTPS {
		t.Fatalf("read-only OS (%.0f) should beat PAY (%.0f)", osTPS, payTPS)
	}
}

func TestLastName(t *testing.T) {
	if tpcc.LastName(0) != "BARBARBAR" {
		t.Fatalf("LastName(0) = %q", tpcc.LastName(0))
	}
	if tpcc.LastName(371) != "PRICALLYOUGHT" {
		t.Fatalf("LastName(371) = %q", tpcc.LastName(371))
	}
	if tpcc.LastName(999) != "EINGEINGEING" {
		t.Fatalf("LastName(999) = %q", tpcc.LastName(999))
	}
}

// TestAllocBudget pins heap allocations per transaction, by type, with every
// collector off. Rows are written and read by the typed codec into the
// Client's rows and buffers, keys are bytes in the Client's buffers, a lookup
// returns a view and a Tx is a value, so tpcc and sqldb allocate nothing per
// transaction of their own; the file system recycles the journal's handle
// and collects its pages at unlink in thread scratch, and the pages the
// database grows by come from the pager's slabs, 64 to an allocation (with
// encoding/json rows, string keys and copied values: NEW 234, PAY 36, OS 48,
// DLY 239, SL 2,089; with a page and a slot table per page grown: NEW 8,
// PAY 5, OS 2, DLY 5, SL 2).
func TestAllocBudget(t *testing.T) {
	if telemetry.Active() != nil || spans.Active() != nil || series.Active() != nil ||
		lockprof.Active() != nil || pmemtrace.Active() != nil {
		t.Fatal("a collector is on: the budget is stated with all of them off")
	}
	db, p := setup(t)
	th := p.NewThread()
	cl := tpcc.NewClient(db, smallCfg(), 5)
	for i := 0; i < 100; i++ {
		if err := cl.Exec(th, tpcc.NEW); err != nil {
			t.Fatal(err)
		}
	}
	// Means over 50 transactions, a slab amortised over them: 0 of each.
	budget := map[tpcc.TxType]float64{tpcc.NEW: 1, tpcc.PAY: 1, tpcc.OS: 1, tpcc.DLY: 1, tpcc.SL: 1}
	for _, typ := range tpcc.MixOrder {
		got := testing.AllocsPerRun(50, func() {
			if err := cl.Exec(th, typ); err != nil {
				t.Fatal(err)
			}
		})
		if got > budget[typ] {
			t.Errorf("%s: %v allocs per transaction, budget %v", typ, got, budget[typ])
		}
	}
}

// mixedTx is the i-th transaction of a fixed 25-transaction cycle in Table
// 8's 44/44/4/4/4 proportions, NEW first so the others have orders to act on.
func mixedTx(i int) tpcc.TxType {
	switch i % 25 {
	case 8:
		return tpcc.OS
	case 16:
		return tpcc.DLY
	case 24:
		return tpcc.SL
	}
	if i%2 == 0 {
		return tpcc.NEW
	}
	return tpcc.PAY
}

// TestIdenticalRunsIssueIdenticalTraffic: the pager commits dirty pages in
// page order, so two runs of one transaction stream move exactly the same
// bytes. In map order, which page extended the database file first — a size
// publish is 16 bytes, an in-place write's mtime 8 — differed between runs.
//
// The fingerprint is also pinned: it was taken at the commit before sqldb
// began searching and editing pages in place (PR 21), so "the database file
// and the file system traffic did not change" is a constant here. A change
// that means to move the format, the call sequence or a th.CPU charge takes a
// new fingerprint and says so.
func TestIdenticalRunsIssueIdenticalTraffic(t *testing.T) {
	type fingerprint struct {
		written, read int64  // media bytes, load included
		clock         int64  // the client's virtual clock after the last transaction
		dbHash        uint64 // FNV-1a of /tpcc.db
	}
	run := func() fingerprint {
		in, err := sysfactory.ZoFS.New(2 << 30)
		if err != nil {
			t.Fatal(err)
		}
		th := in.Proc.NewThread()
		db, err := tpcc.Setup(in.FS, th, smallCfg())
		if err != nil {
			t.Fatal(err)
		}
		cl := tpcc.NewClient(db, smallCfg(), 12345)
		for i := 0; i < 200; i++ {
			if err := cl.Exec(th, mixedTx(i)); err != nil {
				t.Fatalf("tx %d (%s): %v", i, mixedTx(i), err)
			}
		}
		fp := fingerprint{
			written: in.Proc.Device().BytesWritten(),
			read:    in.Proc.Device().BytesRead(),
			clock:   th.Clk.Now(),
		}
		h, err := in.FS.Open(th, "/tpcc.db", vfs.O_RDONLY)
		if err != nil {
			t.Fatal(err)
		}
		defer h.Close(th)
		sum, buf := fnv.New64a(), make([]byte, 64<<10)
		for off := int64(0); ; {
			n, err := h.ReadAt(th, buf, off)
			sum.Write(buf[:n])
			off += int64(n)
			if n < len(buf) || err != nil {
				break
			}
		}
		fp.dbHash = sum.Sum64()
		return fp
	}
	want := fingerprint{written: 18806616, read: 784308, clock: 3979971, dbHash: 689123749424417242}
	for i := 0; i < 3; i++ {
		if got := run(); got != want {
			t.Fatalf("run %d: fingerprint %+v, pinned %+v", i, got, want)
		}
	}
}
