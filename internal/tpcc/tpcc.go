// Package tpcc implements the TPC-C transaction mix on the sqldb storage
// engine — the paper's SQLite workload (§6.3, Figure 11, Table 8): the five
// transaction types (New-Order, Payment, Order-Status, Delivery,
// Stock-Level) with the specified 44/44/4/4/4 mix, secondary indexes on the
// customer and orders tables, NURand skew, and the 1% of New-Order
// transactions that abort and roll back.
package tpcc

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"strconv"

	"zofs/internal/proc"
	"zofs/internal/sqldb"
)

// Config scales the database. The paper runs 1 warehouse with 10 districts.
type Config struct {
	Warehouses           int
	Districts            int
	CustomersPerDistrict int
	Items                int
}

// Default is the paper's configuration (scaled item/customer counts are
// accepted for fast tests).
func Default() Config {
	return Config{Warehouses: 1, Districts: 10, CustomersPerDistrict: 3000, Items: 100000}
}

func (c *Config) fill() {
	if c.Warehouses <= 0 {
		c.Warehouses = 1
	}
	if c.Districts <= 0 {
		c.Districts = 10
	}
	if c.CustomersPerDistrict <= 0 {
		c.CustomersPerDistrict = 3000
	}
	if c.Items <= 0 {
		c.Items = 100000
	}
}

// Keys: decimal fields zero-padded to a fixed width and joined by '-', so
// that key order is numeric order. Each builder appends its key to b — a
// keyBuf of the caller's, so that a key costs no allocation — and returns it.
type keyBuf [48]byte

// appendKey appends each (value, width) pair of fields, the value (>= 0)
// zero-padded to the width as fmt's %0*d does, with '-' between pairs.
func appendKey(b []byte, fields ...int) []byte {
	for i := 0; i < len(fields); i += 2 {
		if i > 0 {
			b = append(b, '-')
		}
		var digits [20]byte
		d := strconv.AppendInt(digits[:0], int64(fields[i]), 10)
		for n := len(d); n < fields[i+1]; n++ {
			b = append(b, '0')
		}
		b = append(b, d...)
	}
	return b
}

func kWarehouse(b []byte, w int) []byte            { return appendKey(b, w, 3) }
func kDistrict(b []byte, w, d int) []byte          { return appendKey(b, w, 3, d, 2) }
func kCustomer(b []byte, w, d, c int) []byte       { return appendKey(b, w, 3, d, 2, c, 5) }
func kItem(b []byte, i int) []byte                 { return appendKey(b, i, 6) }
func kStock(b []byte, w, i int) []byte             { return appendKey(b, w, 3, i, 6) }
func kOrder(b []byte, w, d, o int) []byte          { return appendKey(b, w, 3, d, 2, o, 8) }
func kOrderLine(b []byte, w, d, o, l int) []byte   { return appendKey(b, w, 3, d, 2, o, 8, l, 2) }
func kOrderByCust(b []byte, w, d, c, o int) []byte { return appendKey(b, w, 3, d, 2, c, 5, o, 8) }
func kHistory(b []byte, seq, w int) []byte         { return appendKey(b, seq, 12, w, 3) }

// lenDistrictKey is the length of a district's key, the prefix of the key of
// everything in the district.
const lenDistrictKey = len("000-00")

// kLineOf is kOrderLine from an order's key.
func kLineOf(b, order []byte, l int) []byte {
	return appendKey(append(append(b, order...), '-'), l, 2)
}

// kCustNamePrefix pads the last name to 16 columns, as %-16s does.
func kCustNamePrefix(b []byte, w, d int, last string) []byte {
	b = append(append(kDistrict(b, w, d), '-'), last...)
	for n := len(last); n < 16; n++ {
		b = append(b, ' ')
	}
	return b
}

func kCustName(b []byte, w, d int, last string, c int) []byte {
	return appendKey(append(kCustNamePrefix(b, w, d, last), '-'), c, 5)
}

// TPC-C last-name syllables.
var nameSyllables = []string{"BAR", "OUGHT", "ABLE", "PRI", "PRES", "ESE", "ANTI", "CALLY", "ATION", "EING"}

// LastName builds the spec's last name for a number 0..999.
func LastName(n int) string {
	return nameSyllables[n/100] + nameSyllables[(n/10)%10] + nameSyllables[n%10]
}

// nuRand is the spec's non-uniform random function.
func nuRand(rng *rand.Rand, a, x, y int) int {
	c := a / 2
	return (((rng.Intn(a+1) | (x + rng.Intn(y-x+1))) + c) % (y - x + 1)) + x
}

// ErrAborted marks the intentional 1% New-Order rollback.
var ErrAborted = errors.New("tpcc: transaction aborted (invalid item)")

// Client runs transactions against a loaded database. A transaction allocates
// nothing of its own: it reads into the Client's one row of each shape, builds
// its keys and the row it writes in the Client's buffers (sqldb.Tx.Put takes
// bytes that are no view of a page) and collects into the Client's list and
// set.
type Client struct {
	db   *sqldb.DB
	cfg  Config
	rng  *rand.Rand
	hSeq int

	wh    warehouseRow
	dist  districtRow
	cust  customerRow
	item  itemRow
	stock stockRow
	order orderRow
	line  orderLineRow

	key  keyBuf // the key of the call being made
	okey keyBuf // an order's key (a scan's start), kept while key changes
	row  []byte // the row being put

	ids  []int        // custByName's matches
	seen map[int]bool // StockLevel's distinct items
}

// NewClient wraps a loaded database.
func NewClient(db *sqldb.DB, cfg Config, seed int64) *Client {
	cfg.fill()
	return &Client{db: db, cfg: cfg, rng: rand.New(rand.NewSource(seed)), seen: map[int]bool{}}
}

// Load populates the database per the configuration.
func Load(db *sqldb.DB, th *proc.Thread, cfg Config) error {
	cfg.fill()
	rng := rand.New(rand.NewSource(7))
	tx, err := db.Begin(th)
	if err != nil {
		return err
	}
	var key, key2 keyBuf
	var row []byte
	puts := 0
	put := func(table string, k, v []byte) error {
		if err := tx.Put(table, k, v); err != nil {
			return err
		}
		if puts++; puts%2000 == 0 {
			if err := tx.Commit(); err != nil {
				return err
			}
			tx, err = db.Begin(th)
			return err
		}
		return nil
	}
	// A district's customers differ from the next district's in nothing.
	custs := make([]customerRow, cfg.CustomersPerDistrict)
	filler := bytes.Repeat([]byte("x"), 250)
	for i := range custs {
		custs[i] = customerRow{
			First: appendKey([]byte("first-"), i+1, 5), Last: text(LastName(i % 1000)),
			Balance: -10, Data: filler,
		}
	}
	for w := 1; w <= cfg.Warehouses; w++ {
		wh := warehouseRow{Name: text("W"), Tax: 0.07}
		row = wh.appendJSON(row[:0])
		if err := put("warehouse", kWarehouse(key[:0], w), row); err != nil {
			return err
		}
		for i := 1; i <= cfg.Items; i++ {
			if w == 1 {
				item := itemRow{
					Name:  appendKey(append(key2[:0], "item-"...), i, 6),
					Price: 1 + float64(rng.Intn(9900))/100,
				}
				row = item.appendJSON(row[:0])
				if err := put("item", kItem(key[:0], i), row); err != nil {
					return err
				}
			}
			stock := stockRow{Qty: 10 + rng.Intn(91)}
			row = stock.appendJSON(row[:0])
			if err := put("stock", kStock(key[:0], w, i), row); err != nil {
				return err
			}
		}
		for d := 1; d <= cfg.Districts; d++ {
			dist := districtRow{Name: text("D"), Tax: 0.05, NextOID: 1}
			row = dist.appendJSON(row[:0])
			if err := put("district", kDistrict(key[:0], w, d), row); err != nil {
				return err
			}
			for c := 1; c <= cfg.CustomersPerDistrict; c++ {
				cust := &custs[c-1]
				row = cust.appendJSON(row[:0])
				ck := kCustomer(key[:0], w, d, c)
				if err := put("customer", ck, row); err != nil {
					return err
				}
				if err := put("customer_name_idx", kCustName(key2[:0], w, d, string(cust.Last), c), ck); err != nil {
					return err
				}
			}
		}
	}
	return tx.Commit()
}

// get reads the row at key into r.
func get(tx sqldb.Tx, table string, key []byte, r row) error {
	raw, err := tx.Get(table, key)
	if err != nil {
		return err
	}
	if err := r.parse(raw); err != nil {
		return fmt.Errorf("%s %s: %w", table, key, err)
	}
	return nil
}

// put writes r at key, through the Client's row buffer.
func (cl *Client) put(tx sqldb.Tx, table string, key []byte, r row) error {
	cl.row = r.appendJSON(cl.row[:0])
	return tx.Put(table, key, cl.row)
}

// custByName resolves the spec's 60% select-by-last-name path: scan the
// name index and take the middle match.
func (cl *Client) custByName(tx sqldb.Tx, w, d int, last string) (int, error) {
	prefix := kCustNamePrefix(cl.key[:0], w, d, last)
	cl.ids = cl.ids[:0]
	var bad error
	err := tx.Scan("customer_name_idx", prefix, func(k, _ []byte) bool {
		if !bytes.HasPrefix(k, prefix) {
			return false
		}
		// An index key ends in '-' and the customer number.
		rest := k[len(prefix):]
		c, err := strconv.Atoi(string(rest[min(1, len(rest)):]))
		if err != nil {
			bad = fmt.Errorf("customer_name_idx key %q: %w", k, err)
			return false
		}
		cl.ids = append(cl.ids, c)
		return true
	})
	if err == nil {
		err = bad
	}
	if err != nil {
		return 0, err
	}
	if len(cl.ids) == 0 {
		return 0, sqldb.ErrNotFound
	}
	return cl.ids[len(cl.ids)/2], nil
}

// customer picks the transaction's customer as Payment and Order-Status do:
// by last name 60% of the time (a name nobody has falls back to a number).
func (cl *Client) customer(tx sqldb.Tx, w, d int) (int, error) {
	if cl.rng.Intn(100) < 60 {
		c, err := cl.custByName(tx, w, d, LastName(nuRand(cl.rng, 255, 0, 999)))
		if !errors.Is(err, sqldb.ErrNotFound) {
			return c, err
		}
	}
	return nuRand(cl.rng, 1023, 1, cl.cfg.CustomersPerDistrict), nil
}

// NewOrder is the NEW transaction (§2.4.1 of the spec, simplified).
func (cl *Client) NewOrder(th *proc.Thread) error {
	w := 1 + cl.rng.Intn(cl.cfg.Warehouses)
	d := 1 + cl.rng.Intn(cl.cfg.Districts)
	c := nuRand(cl.rng, 1023, 1, cl.cfg.CustomersPerDistrict)
	olCnt := 5 + cl.rng.Intn(11)
	abort := cl.rng.Intn(100) == 0 // 1% invalid item

	tx, err := cl.db.Begin(th)
	if err != nil {
		return err
	}
	defer tx.Rollback()

	if err := get(tx, "warehouse", kWarehouse(cl.key[:0], w), &cl.wh); err != nil {
		return err
	}
	dist := &cl.dist
	if err := get(tx, "district", kDistrict(cl.key[:0], w, d), dist); err != nil {
		return err
	}
	oID := dist.NextOID
	dist.NextOID++
	if err := cl.put(tx, "district", kDistrict(cl.key[:0], w, d), dist); err != nil {
		return err
	}
	if err := get(tx, "customer", kCustomer(cl.key[:0], w, d, c), &cl.cust); err != nil {
		return err
	}
	okey := kOrder(cl.okey[:0], w, d, oID)
	cl.order = orderRow{CID: c, EntryD: th.Clk.Now(), OLCnt: olCnt}
	if err := cl.put(tx, "orders", okey, &cl.order); err != nil {
		return err
	}
	if err := tx.Put("new_order", okey, []byte{1}); err != nil {
		return err
	}
	// Index values are raw primary keys, not JSON rows.
	if err := tx.Put("order_by_cust_idx", kOrderByCust(cl.key[:0], w, d, c, oID), okey); err != nil {
		return err
	}
	item, st := &cl.item, &cl.stock
	for l := 1; l <= olCnt; l++ {
		iID := nuRand(cl.rng, 8191, 1, cl.cfg.Items)
		if abort && l == olCnt {
			// Unused item number: the spec requires a rollback.
			return ErrAborted
		}
		if err := get(tx, "item", kItem(cl.key[:0], iID), item); err != nil {
			return err
		}
		if err := get(tx, "stock", kStock(cl.key[:0], w, iID), st); err != nil {
			return err
		}
		qty := 1 + cl.rng.Intn(10)
		if st.Qty >= qty+10 {
			st.Qty -= qty
		} else {
			st.Qty = st.Qty - qty + 91
		}
		st.YTD += qty
		st.OrderCnt++
		if err := cl.put(tx, "stock", kStock(cl.key[:0], w, iID), st); err != nil {
			return err
		}
		cl.line = orderLineRow{ItemID: iID, Qty: qty, Amount: float64(qty) * item.Price}
		if err := cl.put(tx, "order_line", kOrderLine(cl.key[:0], w, d, oID, l), &cl.line); err != nil {
			return err
		}
	}
	return tx.Commit()
}

// Payment is the PAY transaction.
func (cl *Client) Payment(th *proc.Thread) error {
	w := 1 + cl.rng.Intn(cl.cfg.Warehouses)
	d := 1 + cl.rng.Intn(cl.cfg.Districts)
	amount := 1 + float64(cl.rng.Intn(499900))/100

	tx, err := cl.db.Begin(th)
	if err != nil {
		return err
	}
	defer tx.Rollback()

	wh := &cl.wh
	if err := get(tx, "warehouse", kWarehouse(cl.key[:0], w), wh); err != nil {
		return err
	}
	wh.YTD += amount
	if err := cl.put(tx, "warehouse", kWarehouse(cl.key[:0], w), wh); err != nil {
		return err
	}
	dist := &cl.dist
	if err := get(tx, "district", kDistrict(cl.key[:0], w, d), dist); err != nil {
		return err
	}
	dist.YTD += amount
	if err := cl.put(tx, "district", kDistrict(cl.key[:0], w, d), dist); err != nil {
		return err
	}

	c, err := cl.customer(tx, w, d)
	if err != nil {
		return err
	}
	cust := &cl.cust
	if err := get(tx, "customer", kCustomer(cl.key[:0], w, d, c), cust); err != nil {
		return err
	}
	cust.Balance -= amount
	cust.YTDPayment += amount
	cust.PaymentCnt++
	if err := cl.put(tx, "customer", kCustomer(cl.key[:0], w, d, c), cust); err != nil {
		return err
	}
	cl.hSeq++
	hist := historyRow{WID: w, DID: d, CID: c, Amount: amount, Date: th.Clk.Now()}
	cl.row = hist.appendJSON(cl.row[:0])
	if err := tx.Put("history", kHistory(cl.key[:0], cl.hSeq, w), cl.row); err != nil {
		return err
	}
	return tx.Commit()
}

// OrderStatus is the OS transaction (read-only).
func (cl *Client) OrderStatus(th *proc.Thread) error {
	w := 1 + cl.rng.Intn(cl.cfg.Warehouses)
	d := 1 + cl.rng.Intn(cl.cfg.Districts)

	tx, err := cl.db.Begin(th)
	if err != nil {
		return err
	}
	defer tx.Rollback()

	c, err := cl.customer(tx, w, d)
	if err != nil {
		return err
	}
	if err := get(tx, "customer", kCustomer(cl.key[:0], w, d, c), &cl.cust); err != nil {
		return err
	}
	// Latest order of the customer via the secondary index.
	prefix, last := kCustomer(cl.key[:0], w, d, c), cl.okey[:0]
	err = tx.Scan("order_by_cust_idx", prefix, func(k, v []byte) bool {
		if !bytes.HasPrefix(k, prefix) {
			return false
		}
		last = append(last[:0], v...)
		return true
	})
	if err != nil {
		return err
	}
	if len(last) == 0 {
		return tx.Commit() // customer has no orders yet
	}
	ord := &cl.order
	if err := get(tx, "orders", last, ord); err != nil {
		return err
	}
	for l := 1; l <= ord.OLCnt; l++ {
		if err := get(tx, "order_line", kLineOf(cl.key[:0], last, l), &cl.line); err != nil {
			return err
		}
	}
	return tx.Commit()
}

// Delivery is the DLY transaction: deliver the oldest new order in every
// district.
func (cl *Client) Delivery(th *proc.Thread) error {
	w := 1 + cl.rng.Intn(cl.cfg.Warehouses)
	carrier := 1 + cl.rng.Intn(10)

	tx, err := cl.db.Begin(th)
	if err != nil {
		return err
	}
	defer tx.Rollback()

	ord, cust := &cl.order, &cl.cust
	for d := 1; d <= cl.cfg.Districts; d++ {
		prefix, oldest := kDistrict(cl.key[:0], w, d), cl.okey[:0]
		err := tx.Scan("new_order", prefix, func(k, _ []byte) bool {
			if bytes.HasPrefix(k, prefix) {
				oldest = append(oldest, k...)
			}
			return false // first match is the oldest
		})
		if err != nil {
			return err
		}
		if len(oldest) == 0 {
			continue
		}
		if err := tx.Delete("new_order", oldest); err != nil {
			return err
		}
		if err := get(tx, "orders", oldest, ord); err != nil {
			return err
		}
		ord.CarrierID = carrier
		if err := cl.put(tx, "orders", oldest, ord); err != nil {
			return err
		}
		total := 0.0
		for l := 1; l <= ord.OLCnt; l++ {
			if err := get(tx, "order_line", kLineOf(cl.key[:0], oldest, l), &cl.line); err != nil {
				return err
			}
			total += cl.line.Amount
		}
		if err := get(tx, "customer", kCustomer(cl.key[:0], w, d, ord.CID), cust); err != nil {
			return err
		}
		cust.Balance += total
		cust.DeliveryCnt++
		if err := cl.put(tx, "customer", kCustomer(cl.key[:0], w, d, ord.CID), cust); err != nil {
			return err
		}
	}
	return tx.Commit()
}

// StockLevel is the SL transaction (read-only): count recently ordered
// items below a stock threshold.
func (cl *Client) StockLevel(th *proc.Thread) error {
	w := 1 + cl.rng.Intn(cl.cfg.Warehouses)
	d := 1 + cl.rng.Intn(cl.cfg.Districts)
	threshold := 10 + cl.rng.Intn(11)

	tx, err := cl.db.Begin(th)
	if err != nil {
		return err
	}
	defer tx.Rollback()

	if err := get(tx, "district", kDistrict(cl.key[:0], w, d), &cl.dist); err != nil {
		return err
	}
	start := kOrderLine(cl.okey[:0], w, d, max(cl.dist.NextOID-20, 1), 0)
	clear(cl.seen)
	low := 0
	var bad error // the first failure inside the scan: the count is then no result
	err = tx.Scan("order_line", start, func(k, v []byte) bool {
		if !bytes.HasPrefix(k, start[:lenDistrictKey]) {
			return false
		}
		if err := cl.line.parse(v); err != nil {
			bad = fmt.Errorf("order_line %s: %w", k, err)
			return false
		}
		if cl.seen[cl.line.ItemID] {
			return true
		}
		cl.seen[cl.line.ItemID] = true
		err := get(tx, "stock", kStock(cl.key[:0], w, cl.line.ItemID), &cl.stock)
		if errors.Is(err, sqldb.ErrNotFound) {
			return true
		}
		if err != nil {
			bad = err
			return false
		}
		if cl.stock.Qty < threshold {
			low++
		}
		return true
	})
	if err == nil {
		err = bad
	}
	if err != nil {
		return err
	}
	return tx.Commit()
}
