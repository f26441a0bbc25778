package tpcc_test

import (
	"encoding/json"
	"testing"

	"zofs/internal/proc"
	"zofs/internal/sqldb"
	"zofs/internal/sysfactory"
	"zofs/internal/tpcc"
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

// TestIdenticalRunsIssueIdenticalTraffic: the pager commits dirty pages in
// page order, so two runs of one transaction stream move exactly the same
// bytes. In map order, which page extended the database file first — a size
// publish is 16 bytes, an in-place write's mtime 8 — differed between runs.
func TestIdenticalRunsIssueIdenticalTraffic(t *testing.T) {
	run := func() (written, read int64) {
		db, p := setup(t)
		if _, err := tpcc.RunWorkload(db, p, smallCfg(), "mixed", 200); err != nil {
			t.Fatal(err)
		}
		return p.Device().BytesWritten(), p.Device().BytesRead()
	}
	w0, r0 := run()
	for i := 0; i < 3; i++ {
		if w, r := run(); w != w0 || r != r0 {
			t.Fatalf("run %d wrote %d and read %d media bytes, the first run %d and %d", i+1, w, r, w0, r0)
		}
	}
}
