// Package tpcc implements the TPC-C transaction mix on the sqldb storage
// engine — the paper's SQLite workload (§6.3, Figure 11, Table 8): the five
// transaction types (New-Order, Payment, Order-Status, Delivery,
// Stock-Level) with the specified 44/44/4/4/4 mix, secondary indexes on the
// customer and orders tables, NURand skew, and the 1% of New-Order
// transactions that abort and roll back.
package tpcc

import (
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"strconv"
	"strings"

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

// Row types (JSON-encoded; realistic row sizes).
type warehouseRow struct {
	Name string  `json:"name"`
	Tax  float64 `json:"tax"`
	YTD  float64 `json:"ytd"`
}

type districtRow struct {
	Name    string  `json:"name"`
	Tax     float64 `json:"tax"`
	YTD     float64 `json:"ytd"`
	NextOID int     `json:"next_o_id"`
}

type customerRow struct {
	First       string  `json:"first"`
	Last        string  `json:"last"`
	Balance     float64 `json:"balance"`
	YTDPayment  float64 `json:"ytd_payment"`
	PaymentCnt  int     `json:"payment_cnt"`
	DeliveryCnt int     `json:"delivery_cnt"`
	Data        string  `json:"data"`
}

type itemRow struct {
	Name  string  `json:"name"`
	Price float64 `json:"price"`
}

type stockRow struct {
	Qty      int `json:"qty"`
	YTD      int `json:"ytd"`
	OrderCnt int `json:"order_cnt"`
}

type orderRow struct {
	CID       int   `json:"c_id"`
	EntryD    int64 `json:"entry_d"`
	CarrierID int   `json:"carrier_id"`
	OLCnt     int   `json:"ol_cnt"`
}

type orderLineRow struct {
	ItemID int     `json:"i_id"`
	Qty    int     `json:"qty"`
	Amount float64 `json:"amount"`
}

type historyRow struct {
	WID, DID, CID int
	Amount        float64
	Date          int64
}

// Keys: decimal fields zero-padded to a fixed width and joined by '-', so
// that key order is numeric order. A builder fills one stack buffer and
// allocates the string it returns, nothing else.
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

func padKey(fields ...int) string { var b keyBuf; return string(appendKey(b[:0], fields...)) }

func kWarehouse(w int) string            { return padKey(w, 3) }
func kDistrict(w, d int) string          { return padKey(w, 3, d, 2) }
func kCustomer(w, d, c int) string       { return padKey(w, 3, d, 2, c, 5) }
func kItem(i int) string                 { return padKey(i, 6) }
func kStock(w, i int) string             { return padKey(w, 3, i, 6) }
func kOrder(w, d, o int) string          { return padKey(w, 3, d, 2, o, 8) }
func kOrderLine(w, d, o, l int) string   { return padKey(w, 3, d, 2, o, 8, l, 2) }
func kOrderByCust(w, d, c, o int) string { return padKey(w, 3, d, 2, c, 5, o, 8) }
func kHistory(seq, w int) string         { return padKey(seq, 12, w, 3) }

// kLineOf is kOrderLine from an order's key.
func kLineOf(order string, l int) string {
	var b keyBuf
	return string(appendKey(append(append(b[:0], order...), '-'), l, 2))
}

// appendCustNamePrefix pads the last name to 16 columns, as %-16s does.
func appendCustNamePrefix(b []byte, w, d int, last string) []byte {
	b = append(append(appendKey(b, w, 3, d, 2), '-'), last...)
	for n := len(last); n < 16; n++ {
		b = append(b, ' ')
	}
	return b
}

func kCustNamePrefix(w, d int, last string) string {
	var b keyBuf
	return string(appendCustNamePrefix(b[:0], w, d, last))
}

func kCustName(w, d int, last string, c int) string {
	var b keyBuf
	return string(appendKey(append(appendCustNamePrefix(b[:0], w, d, last), '-'), c, 5))
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

// Client runs transactions against a loaded database.
type Client struct {
	db   *sqldb.DB
	cfg  Config
	rng  *rand.Rand
	hSeq int
}

// NewClient wraps a loaded database.
func NewClient(db *sqldb.DB, cfg Config, seed int64) *Client {
	cfg.fill()
	return &Client{db: db, cfg: cfg, rng: rand.New(rand.NewSource(seed))}
}

// Load populates the database per the configuration.
func Load(db *sqldb.DB, th *proc.Thread, cfg Config) error {
	cfg.fill()
	rng := rand.New(rand.NewSource(7))
	tx, err := db.Begin(th)
	if err != nil {
		return err
	}
	commitEvery := 0
	recommit := func() error {
		commitEvery++
		if commitEvery%2000 == 0 {
			if err := tx.Commit(); err != nil {
				return err
			}
			tx, err = db.Begin(th)
			return err
		}
		return nil
	}
	put := func(table, key string, v any) error {
		raw, err := json.Marshal(v)
		if err != nil {
			return err
		}
		if err := tx.Put(table, key, raw); err != nil {
			return err
		}
		return recommit()
	}
	for w := 1; w <= cfg.Warehouses; w++ {
		if err := put("warehouse", kWarehouse(w), warehouseRow{Name: "W", Tax: 0.07}); err != nil {
			return err
		}
		for i := 1; i <= cfg.Items; i++ {
			if w == 1 {
				if err := put("item", kItem(i), itemRow{Name: fmt.Sprintf("item-%06d", i), Price: 1 + float64(rng.Intn(9900))/100}); err != nil {
					return err
				}
			}
			if err := put("stock", kStock(w, i), stockRow{Qty: 10 + rng.Intn(91)}); err != nil {
				return err
			}
		}
		for d := 1; d <= cfg.Districts; d++ {
			if err := put("district", kDistrict(w, d), districtRow{Name: "D", Tax: 0.05, NextOID: 1}); err != nil {
				return err
			}
			for c := 1; c <= cfg.CustomersPerDistrict; c++ {
				last := LastName(((c - 1) % 1000))
				row := customerRow{
					First: fmt.Sprintf("first-%05d", c), Last: last,
					Balance: -10, Data: strings.Repeat("x", 250),
				}
				if err := put("customer", kCustomer(w, d, c), row); err != nil {
					return err
				}
				if err := tx.Put("customer_name_idx", kCustName(w, d, last, c), []byte(kCustomer(w, d, c))); err != nil {
					return err
				}
				if err := recommit(); err != nil {
					return err
				}
			}
		}
	}
	return tx.Commit()
}

func get[T any](tx *sqldb.Tx, table, key string) (T, error) {
	var out T
	raw, err := tx.Get(table, key)
	if err != nil {
		return out, err
	}
	return out, json.Unmarshal(raw, &out)
}

func put(tx *sqldb.Tx, table, key string, v any) error {
	raw, err := json.Marshal(v)
	if err != nil {
		return err
	}
	return tx.Put(table, key, raw)
}

// custByName resolves the spec's 60% select-by-last-name path: scan the
// name index and take the middle match.
func custByName(tx *sqldb.Tx, w, d int, last string) (int, error) {
	prefix := kCustNamePrefix(w, d, last)
	var ids []int
	err := tx.Scan("customer_name_idx", prefix, func(k string, v []byte) bool {
		if !strings.HasPrefix(k, prefix) {
			return false
		}
		c, _ := strconv.Atoi(k[len(prefix)+1:]) // an index key ends in the customer number
		ids = append(ids, c)
		return true
	})
	if err != nil {
		return 0, err
	}
	if len(ids) == 0 {
		return 0, sqldb.ErrNotFound
	}
	return ids[len(ids)/2], nil
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

	if _, err := get[warehouseRow](tx, "warehouse", kWarehouse(w)); err != nil {
		return err
	}
	dist, err := get[districtRow](tx, "district", kDistrict(w, d))
	if err != nil {
		return err
	}
	oID := dist.NextOID
	dist.NextOID++
	if err := put(tx, "district", kDistrict(w, d), dist); err != nil {
		return err
	}
	if _, err := get[customerRow](tx, "customer", kCustomer(w, d, c)); err != nil {
		return err
	}
	if err := put(tx, "orders", kOrder(w, d, oID), orderRow{CID: c, EntryD: th.Clk.Now(), OLCnt: olCnt}); err != nil {
		return err
	}
	if err := tx.Put("new_order", kOrder(w, d, oID), []byte{1}); err != nil {
		return err
	}
	// Index values are raw primary keys, not JSON rows.
	if err := tx.Put("order_by_cust_idx", kOrderByCust(w, d, c, oID), []byte(kOrder(w, d, oID))); err != nil {
		return err
	}
	for l := 1; l <= olCnt; l++ {
		iID := nuRand(cl.rng, 8191, 1, cl.cfg.Items)
		if abort && l == olCnt {
			// Unused item number: the spec requires a rollback.
			return ErrAborted
		}
		item, err := get[itemRow](tx, "item", kItem(iID))
		if err != nil {
			return err
		}
		st, err := get[stockRow](tx, "stock", kStock(w, iID))
		if err != nil {
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
		if err := put(tx, "stock", kStock(w, iID), st); err != nil {
			return err
		}
		ol := orderLineRow{ItemID: iID, Qty: qty, Amount: float64(qty) * item.Price}
		if err := put(tx, "order_line", kOrderLine(w, d, oID, l), ol); err != nil {
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

	wh, err := get[warehouseRow](tx, "warehouse", kWarehouse(w))
	if err != nil {
		return err
	}
	wh.YTD += amount
	if err := put(tx, "warehouse", kWarehouse(w), wh); err != nil {
		return err
	}
	dist, err := get[districtRow](tx, "district", kDistrict(w, d))
	if err != nil {
		return err
	}
	dist.YTD += amount
	if err := put(tx, "district", kDistrict(w, d), dist); err != nil {
		return err
	}

	var c int
	if cl.rng.Intn(100) < 60 {
		last := LastName(nuRand(cl.rng, 255, 0, 999))
		c, err = custByName(tx, w, d, last)
		if errors.Is(err, sqldb.ErrNotFound) {
			c = nuRand(cl.rng, 1023, 1, cl.cfg.CustomersPerDistrict)
			err = nil
		}
		if err != nil {
			return err
		}
	} else {
		c = nuRand(cl.rng, 1023, 1, cl.cfg.CustomersPerDistrict)
	}
	cust, err := get[customerRow](tx, "customer", kCustomer(w, d, c))
	if err != nil {
		return err
	}
	cust.Balance -= amount
	cust.YTDPayment += amount
	cust.PaymentCnt++
	if err := put(tx, "customer", kCustomer(w, d, c), cust); err != nil {
		return err
	}
	cl.hSeq++
	if err := put(tx, "history", kHistory(cl.hSeq, w), historyRow{WID: w, DID: d, CID: c, Amount: amount, Date: th.Clk.Now()}); err != nil {
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

	var c int
	if cl.rng.Intn(100) < 60 {
		last := LastName(nuRand(cl.rng, 255, 0, 999))
		c, err = custByName(tx, w, d, last)
		if errors.Is(err, sqldb.ErrNotFound) {
			c = nuRand(cl.rng, 1023, 1, cl.cfg.CustomersPerDistrict)
			err = nil
		}
		if err != nil {
			return err
		}
	} else {
		c = nuRand(cl.rng, 1023, 1, cl.cfg.CustomersPerDistrict)
	}
	if _, err := get[customerRow](tx, "customer", kCustomer(w, d, c)); err != nil {
		return err
	}
	// Latest order of the customer via the secondary index.
	prefix := kCustomer(w, d, c)
	lastOrder := ""
	err = tx.Scan("order_by_cust_idx", prefix, func(k string, v []byte) bool {
		if !strings.HasPrefix(k, prefix) {
			return false
		}
		lastOrder = string(v)
		return true
	})
	if err != nil {
		return err
	}
	if lastOrder == "" {
		return tx.Commit() // customer has no orders yet
	}
	ord, err := get[orderRow](tx, "orders", lastOrder)
	if err != nil {
		return err
	}
	for l := 1; l <= ord.OLCnt; l++ {
		if _, err := get[orderLineRow](tx, "order_line", kLineOf(lastOrder, l)); err != nil {
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

	for d := 1; d <= cl.cfg.Districts; d++ {
		prefix := kDistrict(w, d)
		oldest := ""
		err := tx.Scan("new_order", prefix, func(k string, _ []byte) bool {
			if strings.HasPrefix(k, prefix) {
				oldest = k
			}
			return false // first match is the oldest
		})
		if err != nil {
			return err
		}
		if oldest == "" || !strings.HasPrefix(oldest, prefix) {
			continue
		}
		if err := tx.Delete("new_order", oldest); err != nil {
			return err
		}
		ord, err := get[orderRow](tx, "orders", oldest)
		if err != nil {
			return err
		}
		ord.CarrierID = carrier
		if err := put(tx, "orders", oldest, ord); err != nil {
			return err
		}
		total := 0.0
		for l := 1; l <= ord.OLCnt; l++ {
			ol, err := get[orderLineRow](tx, "order_line", kLineOf(oldest, l))
			if err != nil {
				return err
			}
			total += ol.Amount
		}
		cust, err := get[customerRow](tx, "customer", kCustomer(w, d, ord.CID))
		if err != nil {
			return err
		}
		cust.Balance += total
		cust.DeliveryCnt++
		if err := put(tx, "customer", kCustomer(w, d, ord.CID), cust); err != nil {
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

	dist, err := get[districtRow](tx, "district", kDistrict(w, d))
	if err != nil {
		return err
	}
	lowOID := dist.NextOID - 20
	if lowOID < 1 {
		lowOID = 1
	}
	seen := map[int]bool{}
	low := 0
	start := kOrderLine(w, d, lowOID, 0)
	dPrefix := kDistrict(w, d)
	err = tx.Scan("order_line", start, func(k string, v []byte) bool {
		if !strings.HasPrefix(k, dPrefix) {
			return false
		}
		var ol orderLineRow
		if json.Unmarshal(v, &ol) != nil {
			return true
		}
		if seen[ol.ItemID] {
			return true
		}
		seen[ol.ItemID] = true
		raw, err := tx.Get("stock", kStock(w, ol.ItemID))
		if err != nil {
			return true
		}
		var st stockRow
		if json.Unmarshal(raw, &st) == nil && st.Qty < threshold {
			low++
		}
		return true
	})
	if err != nil {
		return err
	}
	return tx.Commit()
}
