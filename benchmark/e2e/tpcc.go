package e2e

import (
	"encoding/json"
	"fmt"
	"math"
	"strings"

	"zofs/internal/obsfs"
	"zofs/internal/proc"
	"zofs/internal/sqldb"
	"zofs/internal/tpcc"
	"zofs/internal/vfs"
	"zofs/internal/zofs"
)

const appTPCCTx = 12_000

// appTPCC runs the TPC-C mix on sqldb directly over zofs.FS, as the paper's
// Figure 11 does: one warehouse, ten districts, one client. The op stream is
// the transaction-type sequence (an exact 44/44/4/4/4 deck); transaction
// inputs come from tpcc's own client, seeded from the workload seed.
type appTPCC struct {
	cfg  tpcc.Config
	seed int64
	ops  []Op
	warm int
	hash uint64
}

var tpccTypes = []tpcc.TxType{tpcc.NEW, tpcc.PAY, tpcc.OS, tpcc.DLY, tpcc.SL}

func newAppTPCC(seed uint64, scale int) *appTPCC {
	r := newRNG(seed ^ 0x7bcc_0005)
	n := appTPCCTx / scale
	w := &appTPCC{
		// The paper's customer count with a tenth of its items keeps the
		// load (part of setup_s, repeated every pass) near one second.
		cfg:  tpcc.Config{Warehouses: 1, Districts: 10, CustomersPerDistrict: 3000, Items: 10000},
		seed: int64(r.next() >> 1),
		warm: n / 10,
	}
	if scale > 1 {
		w.cfg.CustomersPerDistrict, w.cfg.Items = 300, 2000
	}
	var mix []mixEntry
	for i, t := range tpccTypes {
		mix = append(mix, mixEntry{uint8(i), tpcc.Mix[t]})
	}
	for _, k := range deck(r, n+w.warm, mix) {
		w.ops = append(w.ops, Op{Kind: k})
	}
	w.hash = hashOps(w.ops) ^ mix64(uint64(w.seed))
	return w
}

func (w *appTPCC) Name() string       { return "app_tpcc" }
func (w *appTPCC) Ops() int           { return len(w.ops) - w.warm }
func (w *appTPCC) StreamHash() uint64 { return w.hash }
func (w *appTPCC) KindNames() []string {
	return []string{"new_order", "payment", "order_status", "delivery", "stock_level"}
}

type appTPCCInst struct {
	w   *appTPCC
	env *Env
	tr  *Tracer
	th  *proc.Thread
	fs  vfs.FileSystem
	db  *sqldb.DB
	cl  *tpcc.Client
}

func (w *appTPCC) NewInstance(tr *Tracer) (Instance, error) {
	env, err := newEnv(1 << 30)
	if err != nil {
		return nil, err
	}
	th := proc.NewProcess(env.Dev, 0, 0).NewThread()
	if err := env.Kern.FSMount(th); err != nil {
		return nil, err
	}
	z := zofs.New(env.Kern, zofs.Options{})
	if err := z.EnsureRootDir(th); err != nil {
		return nil, err
	}
	env.Clients = []*Client{{Th: th, ZFS: z}}
	var fs vfs.FileSystem = z
	if tr != nil {
		// obsfs opens the per-call root spans that fslibs opens for the
		// other workloads, so the spans collector attributes virtual time.
		fs = &tracedFS{inner: obsfs.Wrap(z, env.Dev.Recorder()), tr: tr}
	}
	db, err := tpcc.Setup(fs, th, w.cfg)
	if err != nil {
		return nil, fmt.Errorf("tpcc load: %w", err)
	}
	return &appTPCCInst{w: w, env: env, tr: tr, th: th, fs: fs, db: db, cl: tpcc.NewClient(db, w.cfg, w.seed)}, nil
}

func (in *appTPCCInst) Env() *Env { return in.env }

func (in *appTPCCInst) Warm() int { return in.exec(in.w.ops[:in.w.warm], nil) }

func (in *appTPCCInst) Run(h *Hist, laps *Laps) int {
	ops := in.w.ops[in.w.warm:]
	return laps.run(len(ops), func(a, b int) int { return in.exec(ops[a:b], h) })
}

func (in *appTPCCInst) exec(ops []Op, h *Hist) (failed int) {
	th, tr := in.th, in.tr
	for i := range ops {
		v0 := th.Clk.Now()
		tr.Begin(ops[i].Kind, th.TID, v0)
		err := in.cl.Exec(th, tpccTypes[ops[i].Kind])
		v1 := th.Clk.Now()
		tr.End(v1)
		if h != nil {
			h.Record(v1 - v0)
		}
		if err != nil {
			failed++
		}
	}
	return failed
}

// Row shapes the consistency check decodes (field names as tpcc stores them).
type tpccYTD struct {
	YTD     float64 `json:"ytd"`
	NextOID int     `json:"next_o_id"`
}

type tpccOrder struct {
	OLCnt     int `json:"ol_cnt"`
	CarrierID int `json:"carrier_id"`
}

// Verify applies TPC-C's consistency conditions (spec §3.3.2) to the final
// database, one check per district and condition:
//
//  1. W_YTD = Σ D_YTD
//  2. D_NEXT_O_ID − 1 = max(O_ID), and = max(NO_O_ID) when new orders remain
//  3. the district's NEW-ORDER rows are contiguous: max − min + 1 = count
//  4. Σ O_OL_CNT = number of ORDER-LINE rows
//  5. an order has a carrier exactly when it has no NEW-ORDER row
func (in *appTPCCInst) Verify() (checked, bad int) {
	th, db := in.th, in.db
	fail := func(cond bool) {
		checked++
		if !cond {
			bad++
		}
	}
	scan := func(table string, fn func(k string, v []byte)) {
		if err := db.Scan(th, table, "", func(k string, v []byte) bool { fn(k, v); return true }); err != nil {
			fail(false)
		}
	}
	type dstat struct {
		next, maxO, maxNO, minNO, cntNO, olSum, olRows int
		ytd                                            float64
		delivered, undelivered                         int
	}
	ds := map[string]*dstat{}
	scan("district", func(k string, v []byte) {
		var r tpccYTD
		fail(json.Unmarshal(v, &r) == nil)
		ds[k] = &dstat{next: r.NextOID, ytd: r.YTD, minNO: math.MaxInt}
	})
	district := func(k string) *dstat {
		if len(k) >= 6 {
			if d := ds[k[:6]]; d != nil {
				return d
			}
		}
		fail(false)
		return &dstat{}
	}
	oid := func(k string) int {
		var o int
		fmt.Sscanf(k[7:15], "%d", &o)
		return o
	}
	newOrder := map[string]bool{}
	scan("new_order", func(k string, _ []byte) {
		d, o := district(k), oid(k)
		d.cntNO++
		d.maxNO, d.minNO = max(d.maxNO, o), min(d.minNO, o)
		newOrder[k] = true
	})
	scan("orders", func(k string, v []byte) {
		var r tpccOrder
		fail(json.Unmarshal(v, &r) == nil)
		d := district(k)
		d.maxO = max(d.maxO, oid(k))
		d.olSum += r.OLCnt
		if (r.CarrierID != 0) == newOrder[k] {
			d.undelivered++ // condition 5 violated
		}
	})
	scan("order_line", func(k string, _ []byte) { district(k).olRows++ })

	var wYTD, dYTD float64
	scan("warehouse", func(_ string, v []byte) {
		var r tpccYTD
		fail(json.Unmarshal(v, &r) == nil)
		wYTD += r.YTD
	})
	for _, d := range ds {
		dYTD += d.ytd
		fail(d.next-1 == d.maxO)
		fail(d.cntNO == 0 || d.maxNO == d.next-1)
		fail(d.cntNO == 0 || d.maxNO-d.minNO+1 == d.cntNO)
		fail(d.olSum == d.olRows)
		fail(d.undelivered == 0)
	}
	fail(len(ds) == in.w.cfg.Districts)
	fail(math.Abs(wYTD-dYTD) <= 1e-6*math.Max(1, math.Abs(wYTD)))
	return checked, bad
}

func (in *appTPCCInst) LiveBytes() int64 {
	var n int64
	ents, err := in.fs.ReadDir(in.th, "/")
	if err != nil {
		return 0
	}
	for _, e := range ents {
		if fi, err := in.fs.Stat(in.th, "/"+e.Name); err == nil && !strings.HasSuffix(e.Name, "-journal") {
			n += fi.Size + int64(len(e.Name)) + 1
		}
	}
	return n
}
