package tpcc

import (
	"errors"
	"testing"

	"zofs/internal/sysfactory"
)

// TestCorruptRowsFailTheTransaction: a row that is not the text of its shape
// met inside Stock-Level's scan, and a name-index key without its customer
// number, fail the transaction; neither is skipped or read as customer 0.
func TestCorruptRowsFailTheTransaction(t *testing.T) {
	in, err := sysfactory.ZoFS.New(256 << 20)
	if err != nil {
		t.Fatal(err)
	}
	th := in.Proc.NewThread()
	cfg := Config{Warehouses: 1, Districts: 4, CustomersPerDistrict: 60, Items: 300}
	db, err := Setup(in.FS, th, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cl := NewClient(db, cfg, 9)
	for i := 0; i < 30; i++ {
		if err := cl.Exec(th, NEW); err != nil {
			t.Fatal(err)
		}
	}
	if err := cl.Exec(th, SL); err != nil {
		t.Fatalf("SL before the damage: %v", err)
	}

	var lines [][]byte
	if err := db.Scan(th, "order_line", "", func(k string, _ []byte) bool {
		lines = append(lines, []byte(k))
		return true
	}); err != nil {
		t.Fatal(err)
	}
	tx, err := db.Begin(th)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range lines {
		if err := tx.Put("order_line", k, []byte(`{"i_id":1,"qty":1}`)); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := cl.Exec(th, SL); !errors.Is(err, errRow) {
		t.Errorf("SL over order lines that do not parse = %v, want %v", err, errRow)
	}

	if tx, err = db.Begin(th); err != nil {
		t.Fatal(err)
	}
	defer tx.Rollback()
	if c, err := cl.custByName(tx, 1, 1, LastName(0)); err != nil || c == 0 {
		t.Fatalf("custByName before the damage = %d, %v", c, err)
	}
	if err := tx.Put("customer_name_idx", append(kCustNamePrefix(nil, 1, 1, LastName(0)), "-x0001"...), nil); err != nil {
		t.Fatal(err)
	}
	if c, err := cl.custByName(tx, 1, 1, LastName(0)); err == nil {
		t.Errorf("custByName over a key that ends in no number = customer %d", c)
	}
}
