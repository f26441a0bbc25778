package e2e

import (
	"fmt"
	"runtime"
	"time"

	"zofs/internal/coffer"
	"zofs/internal/lockprof"
	"zofs/internal/nvm"
	"zofs/internal/pmemtrace"
	"zofs/internal/series"
	"zofs/internal/simclock"
	"zofs/internal/spans"
	"zofs/internal/telemetry"
	"zofs/internal/vfs"
)

// The layer ledger prices single calls into each layer's public functions on
// both clocks. It is measured from outside: every call below is one a user
// of that package could make. Host figures are the fastest of ledgerRounds
// rounds (the usual micro-benchmark estimator: noise only ever adds time);
// virtual ns and allocations are totals over all rounds divided by all ops.
// None of it is gated — it says where an end-to-end movement came from.
const (
	ledgerN      = 2048
	ledgerRounds = 5
	ledgerFiles  = 64
)

// LedgerOps are the ops priced at the fslibs and zofs boundaries.
var LedgerOps = []string{"create", "stat", "open_close", "read4k", "append4k", "overwrite4k", "rename", "unlink"}

// Collectors are the observability switches whose disabled- and enabled-path
// cost the ledger measures.
var Collectors = []string{"telemetry", "spans", "series", "lockprof", "byteflow", "pmemtrace"}

type unit struct {
	hostNS float64 // per op, fastest round
	vns    float64 // per op
	allocs float64 // per op
}

type accum struct {
	bestHost  time.Duration
	vns, ops  int64
	mallocs   uint64
	haveRound bool
}

// boundaryFS is the op set of the ledger, provided by the fslibs boundary
// (what an application calls) and by the zofs boundary (what fslibs calls).
type boundaryFS interface {
	create(path string) error
	stat(path string) error
	openClose(path string) error
	rename(from, to string) error
	unlink(path string) error
	truncate(path string) error
	open(path string, flags int) (boundaryFile, error)
}

type boundaryFile interface {
	readAt(p []byte, off int64) error
	writeAt(p []byte, off int64) error
	append(p []byte) error
}

type libBoundary struct{ c *Client }

func (b libBoundary) create(p string) error {
	fd, err := b.c.Lib.Open(b.c.Th, p, vfs.O_CREATE|vfs.O_EXCL|vfs.O_RDWR, 0o644)
	if err != nil {
		return err
	}
	return b.c.Lib.Close(b.c.Th, fd)
}
func (b libBoundary) stat(p string) error { _, err := b.c.Lib.Stat(b.c.Th, p); return err }
func (b libBoundary) openClose(p string) error {
	fd, err := b.c.Lib.Open(b.c.Th, p, vfs.O_RDONLY, 0)
	if err != nil {
		return err
	}
	return b.c.Lib.Close(b.c.Th, fd)
}
func (b libBoundary) rename(from, to string) error { return b.c.Lib.Rename(b.c.Th, from, to) }
func (b libBoundary) unlink(p string) error        { return b.c.Lib.Unlink(b.c.Th, p) }
func (b libBoundary) truncate(p string) error      { return b.c.Lib.Truncate(b.c.Th, p, 0) }
func (b libBoundary) open(p string, flags int) (boundaryFile, error) {
	fd, err := b.c.Lib.Open(b.c.Th, p, flags, 0o644)
	return libFile{b.c, fd}, err
}

type libFile struct {
	c  *Client
	fd int
}

func (f libFile) readAt(p []byte, off int64) error {
	_, err := f.c.Lib.Pread(f.c.Th, f.fd, p, off)
	return err
}
func (f libFile) writeAt(p []byte, off int64) error {
	_, err := f.c.Lib.Pwrite(f.c.Th, f.fd, p, off)
	return err
}
func (f libFile) append(p []byte) error { _, err := f.c.Lib.Write(f.c.Th, f.fd, p); return err }

type zofsBoundary struct{ c *Client }

func (b zofsBoundary) create(p string) error {
	h, err := b.c.ZFS.Create(b.c.Th, p, 0o644)
	if err != nil {
		return err
	}
	return h.Close(b.c.Th)
}
func (b zofsBoundary) stat(p string) error { _, err := b.c.ZFS.Stat(b.c.Th, p); return err }
func (b zofsBoundary) openClose(p string) error {
	h, err := b.c.ZFS.Open(b.c.Th, p, vfs.O_RDONLY)
	if err != nil {
		return err
	}
	return h.Close(b.c.Th)
}
func (b zofsBoundary) rename(from, to string) error { return b.c.ZFS.Rename(b.c.Th, from, to) }
func (b zofsBoundary) unlink(p string) error        { return b.c.ZFS.Unlink(b.c.Th, p) }
func (b zofsBoundary) truncate(p string) error      { return b.c.ZFS.Truncate(b.c.Th, p, 0) }
func (b zofsBoundary) open(p string, flags int) (boundaryFile, error) {
	var h vfs.Handle
	var err error
	if flags&vfs.O_CREATE != 0 {
		h, err = b.c.ZFS.Create(b.c.Th, p, 0o644)
	} else {
		h, err = b.c.ZFS.Open(b.c.Th, p, flags)
	}
	return zofsFile{b.c, h}, err
}

type zofsFile struct {
	c *Client
	h vfs.Handle
}

func (f zofsFile) readAt(p []byte, off int64) error {
	_, err := f.h.ReadAt(f.c.Th, p, off)
	return err
}
func (f zofsFile) writeAt(p []byte, off int64) error {
	_, err := f.h.WriteAt(f.c.Th, p, off)
	return err
}
func (f zofsFile) append(p []byte) error { _, err := f.h.Append(f.c.Th, p); return err }

// sample times n calls of fn and folds them into a.
func sample(clk *simclock.Clock, a *accum, n int, fn func(i int) error) error {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	v0 := clk.Now()
	t0 := time.Now()
	for i := 0; i < n; i++ {
		if err := fn(i); err != nil {
			return err
		}
	}
	host := time.Since(t0)
	runtime.ReadMemStats(&m1)
	if !a.haveRound || host < a.bestHost {
		a.bestHost, a.haveRound = host, true
	}
	a.vns += clk.Now() - v0
	a.mallocs += m1.Mallocs - m0.Mallocs
	a.ops += int64(n)
	return nil
}

func (a *accum) unit(n int) unit {
	return unit{
		hostNS: float64(a.bestHost.Nanoseconds()) / float64(n),
		vns:    float64(a.vns) / float64(a.ops),
		allocs: float64(a.mallocs) / float64(a.ops),
	}
}

// enable switches on the named collectors for devices and threads created
// afterwards and returns the function that restores the previous state.
// byteflow is per device and is switched on by boundaryCosts.
func enable(on map[string]bool) (restore func()) {
	var undo []func()
	if on["telemetry"] {
		telemetry.Enable()
		undo = append(undo, telemetry.Disable)
	}
	if on["spans"] {
		prev := spans.Active()
		spans.Enable(spans.Config{RingCap: -1})
		undo = append(undo, func() { spans.Install(prev) })
	}
	if on["series"] {
		prev := series.Active()
		series.Enable(series.Config{})
		undo = append(undo, func() { series.Install(prev) })
	}
	if on["lockprof"] {
		prev := lockprof.Active()
		lockprof.Enable(lockprof.Config{})
		undo = append(undo, func() { lockprof.Install(prev) })
	}
	if on["pmemtrace"] {
		pmemtrace.Enable(pmemtrace.Config{})
		undo = append(undo, pmemtrace.Disable)
	}
	return func() {
		for _, f := range undo {
			f()
		}
	}
}

// boundaryCosts prices ops (a subset of LedgerOps) at one boundary on a
// fresh small file system, with the named collectors enabled.
func boundaryCosts(zofsLevel bool, ops []string, on map[string]bool) (map[string]unit, error) {
	defer enable(on)()
	env, err := newEnv(512 << 20)
	if err != nil {
		return nil, err
	}
	if on["byteflow"] {
		env.Dev.EnableAccounting()
	}
	c, err := env.addClient(0, nil)
	if err != nil {
		return nil, err
	}
	var fs boundaryFS = libBoundary{c}
	if zofsLevel {
		fs = zofsBoundary{c}
	}
	if err := c.Lib.Mkdir(c.Th, "/l", 0o755); err != nil {
		return nil, err
	}
	// The name set has meta_churn's shape — depth three, metaLivePerDir
	// names per directory — so path-walk and bucket-chain costs compare.
	for d := 0; d < ledgerN/metaLivePerDir; d++ {
		if err := c.Lib.Mkdir(c.Th, fmt.Sprintf("/l/d%02d", d), 0o755); err != nil {
			return nil, err
		}
	}
	a, b := make([]string, ledgerN), make([]string, ledgerN)
	for i := range a {
		d, f := i%(ledgerN/metaLivePerDir), i/(ledgerN/metaLivePerDir)
		a[i], b[i] = fmt.Sprintf("/l/d%02d/a%03d", d, f), fmt.Sprintf("/l/d%02d/b%03d", d, f)
	}
	buf := make([]byte, pageSize)
	fillPattern(buf, 1, 0)
	// The data ops stride over ledgerFiles × 1 MiB, the working set of
	// data_read's open descriptors, so a 4 KiB copy misses the host caches
	// here as it does there.
	data := make([]boundaryFile, ledgerFiles)
	for f := range data {
		if data[f], err = fs.open(fmt.Sprintf("/l/data%02d", f), vfs.O_CREATE|vfs.O_RDWR); err != nil {
			return nil, err
		}
		for blk := int64(0); blk < blocksPerFile; blk++ {
			if err := data[f].writeAt(buf, blk*pageSize); err != nil {
				return nil, err
			}
		}
	}
	if err := fs.create("/l/log"); err != nil {
		return nil, err
	}
	log, err := fs.open("/l/log", vfs.O_WRONLY|vfs.O_APPEND)
	if err != nil {
		return nil, err
	}
	want := map[string]bool{}
	for _, op := range ops {
		want[op] = true
	}
	file := func(i int) boundaryFile { return data[i*31%ledgerFiles] }
	blk := func(i int) int64 { return int64(i*7919%blocksPerFile) * pageSize }
	// Each round walks the name set through create → stat → open → rename →
	// unlink, so every round starts from the same empty directory. Steps
	// the caller did not ask for still run (untimed) where later steps need
	// their effect.
	steps := []struct {
		op   string
		need bool // later steps depend on it
		fn   func(i int) error
	}{
		{"create", true, func(i int) error { return fs.create(a[i]) }},
		{"stat", false, func(i int) error { return fs.stat(a[i]) }},
		{"open_close", false, func(i int) error { return fs.openClose(a[i]) }},
		{"rename", true, func(i int) error { return fs.rename(a[i], b[i]) }},
		{"unlink", true, func(i int) error { return fs.unlink(b[i]) }},
		{"read4k", false, func(i int) error { return file(i).readAt(buf, blk(i)) }},
		{"overwrite4k", false, func(i int) error { return file(i).writeAt(buf, blk(i)) }},
		{"append4k", false, func(i int) error { return log.append(buf) }},
	}
	acc := map[string]*accum{}
	for round := 0; round < ledgerRounds; round++ {
		for _, s := range steps {
			switch {
			case want[s.op]:
				if acc[s.op] == nil {
					acc[s.op] = &accum{}
				}
				if err := sample(c.Th.Clk, acc[s.op], ledgerN, s.fn); err != nil {
					return nil, fmt.Errorf("ledger %s: %w", s.op, err)
				}
			case s.need:
				for i := 0; i < ledgerN; i++ {
					if err := s.fn(i); err != nil {
						return nil, fmt.Errorf("ledger %s: %w", s.op, err)
					}
				}
			}
		}
		if err := fs.truncate("/l/log"); err != nil {
			return nil, err
		}
	}
	out := map[string]unit{}
	for op, a := range acc {
		out[op] = a.unit(ledgerN)
	}
	return out, nil
}

// deviceCosts prices the nvm, mpk and kernfs primitives.
func deviceCosts(m map[string]float64) error {
	const n = 50_000
	put := func(name string, a *accum, vns bool) {
		u := a.unit(n)
		m[name+".host_ns"] = u.hostNS
		if vns {
			m[name+".vns"] = u.vns
		}
	}
	dev := nvm.New(nvm.Config{Size: 64 << 20})
	clk := simclock.NewClock()
	buf := make([]byte, pageSize)
	off := func(i int) int64 { return int64(i%8192) * pageSize }
	var sink uint64
	nvmOps := []struct {
		name string
		fn   func(i int) error
	}{
		{"nvm.readview4k", func(i int) error { v, _ := dev.ReadView(clk, off(i), pageSize); sink += uint64(v[0]); return nil }},
		{"nvm.read4k", func(i int) error { dev.Read(clk, off(i), buf); return nil }},
		{"nvm.writent4k", func(i int) error { dev.WriteNT(clk, off(i), buf); return nil }},
		{"nvm.store64_flush_fence", func(i int) error {
			dev.Store64(clk, off(i), uint64(i))
			dev.Flush(clk, off(i), 8)
			dev.Fence(clk)
			return nil
		}},
		{"nvm.load64", func(i int) error { sink += dev.Load64(clk, off(i)); return nil }},
		{"nvm.cas64", func(i int) error { dev.CAS64(clk, off(i), dev.Load64(nil, off(i)), uint64(i)); return nil }},
	}
	for _, op := range nvmOps {
		a := &accum{}
		for r := 0; r < ledgerRounds; r++ {
			if err := sample(clk, a, n, op.fn); err != nil {
				return err
			}
		}
		put(op.name, a, true)
	}
	_ = sink

	env, err := newEnv(1 << 30)
	if err != nil {
		return err
	}
	c, err := env.addClient(0, nil)
	if err != nil {
		return err
	}
	th, k := c.Th, env.Kern
	mi, err := k.CofferMap(th, k.RootCoffer(), true)
	if err != nil {
		return err
	}
	rootOff := mi.Root.RootInode * pageSize
	th.OpenWindow(mi.Key, true)
	check := &accum{}
	for r := 0; r < ledgerRounds; r++ {
		sample(th.Clk, check, n, func(int) error { th.CheckAccess(rootOff, pageSize, false); return nil })
	}
	th.CloseWindow()
	put("mpk.check_access", check, false)
	window := &accum{}
	for r := 0; r < ledgerRounds; r++ {
		sample(th.Clk, window, n, func(int) error { th.OpenWindow(mi.Key, true); th.CloseWindow(); return nil })
	}
	put("mpk.window_open_close", window, true)

	// Eight sibling coffers give the path table something to search; the
	// deep path exercises longest-prefix resolution below one of them.
	for i := 0; i < 8; i++ {
		if _, err := k.CofferNew(th, k.RootCoffer(), fmt.Sprintf("/k%d", i), coffer.TypeZoFS, 0o700, 0, 0, 3); err != nil {
			return err
		}
	}
	parent, _ := k.LookupPath(nil, "/k3")
	if _, err := k.CofferMap(th, parent, true); err != nil {
		return err
	}
	const kn = 1024
	var grown [][]coffer.Extent
	kernOps := []struct {
		name  string
		fn    func(i int) error
		after func() error // untimed, between rounds
	}{
		{"kernfs.lookup_path", func(int) error { k.LookupPath(th.Clk, "/k3"); return nil }, nil},
		{"kernfs.resolve_longest", func(int) error { k.ResolveLongest(th.Clk, "/k3/a/b/c/d/file"); return nil }, nil},
		{"kernfs.coffer_enlarge16", func(int) error {
			e, err := k.CofferEnlarge(th, parent, 16, false)
			grown = append(grown, e)
			return err
		}, func() error {
			for _, e := range grown {
				if err := k.CofferShrink(th, parent, e); err != nil {
					return err
				}
			}
			grown = grown[:0]
			return nil
		}},
		{"kernfs.coffer_map_unmap", func(int) error {
			if _, err := k.CofferMap(th, parent, true); err != nil {
				return err
			}
			return k.CofferUnmap(th, parent)
		}, nil},
		{"kernfs.coffer_new_delete", func(i int) error {
			id, err := k.CofferNew(th, parent, "/k3/tmp", coffer.TypeZoFS, 0o600, 0, 0, 3)
			if err != nil {
				return err
			}
			return k.CofferDelete(th, id)
		}, nil},
	}
	for _, op := range kernOps {
		a := &accum{}
		for r := 0; r < ledgerRounds; r++ {
			if err := sample(th.Clk, a, kn, op.fn); err != nil {
				return fmt.Errorf("%s: %w", op.name, err)
			}
			if op.after != nil {
				if err := op.after(); err != nil {
					return fmt.Errorf("%s: %w", op.name, err)
				}
			}
		}
		u := a.unit(kn)
		m[op.name+".host_ns"], m[op.name+".vns"] = u.hostNS, u.vns
	}

	// Split three of the parent's pages into a 0600 coffer, realign the
	// permission, merge back: the kernel half of a chmod round trip.
	if _, err := k.CofferMap(th, parent, true); err != nil {
		return err
	}
	exts, err := k.CofferEnlarge(th, parent, 4, false)
	if err != nil {
		return err
	}
	var pages []int64
	for _, e := range exts {
		for p := e.Start; p < e.End(); p++ {
			pages = append(pages, p)
		}
	}
	split := &accum{}
	for r := 0; r < ledgerRounds; r++ {
		err := sample(th.Clk, split, kn, func(int) error {
			id, err := k.CofferSplit(th, parent, "/k3/split", 0o600, 0, 0, pages[:3], pages[0], pages[1])
			if err != nil {
				return err
			}
			if err := k.SetCofferMeta(th, id, 0o700, 0, 0); err != nil {
				return err
			}
			return k.CofferMerge(th, parent, id)
		})
		if err != nil {
			return fmt.Errorf("kernfs.coffer_split_merge: %w", err)
		}
	}
	u := split.unit(kn)
	m["kernfs.coffer_split_merge.host_ns"], m["kernfs.coffer_split_merge.vns"] = u.hostNS, u.vns
	return nil
}

// Ledger measures every workload-independent per-layer metric.
func Ledger() (map[string]float64, error) {
	m := map[string]float64{}
	none := map[string]bool{}
	for _, b := range []struct {
		layer string
		zofs  bool
	}{{"fslibs", false}, {"zofs", true}} {
		costs, err := boundaryCosts(b.zofs, LedgerOps, none)
		if err != nil {
			return nil, err
		}
		for op, u := range costs {
			m[b.layer+"."+op+".host_ns"] = u.hostNS
			m[b.layer+"."+op+".vns"] = u.vns
			m[b.layer+"."+op+".allocs"] = u.allocs
		}
	}
	if err := deviceCosts(m); err != nil {
		return nil, err
	}
	// Collector cost at the fslibs boundary: each collector alone, then all,
	// against a collector-free run of the same two ops (lease renewals fall
	// at virtual instants, so only identical op sequences compare exactly).
	obsOps := []string{"read4k", "create"}
	base, err := boundaryCosts(false, obsOps, none)
	if err != nil {
		return nil, err
	}
	all := map[string]bool{}
	for _, col := range Collectors {
		all[col] = true
		costs, err := boundaryCosts(false, obsOps, map[string]bool{col: true})
		if err != nil {
			return nil, fmt.Errorf("collector %s: %w", col, err)
		}
		for _, op := range obsOps {
			m["obs."+col+"."+op+".host_ns_delta"] = costs[op].hostNS - base[op].hostNS
		}
	}
	costs, err := boundaryCosts(false, obsOps, all)
	if err != nil {
		return nil, fmt.Errorf("all collectors: %w", err)
	}
	// Observation must never advance a virtual clock.
	m["obs.all_on.vns_delta"] = 0
	for _, op := range obsOps {
		m["obs.all_on.vns_delta"] += costs[op].vns - base[op].vns
	}
	return m, nil
}

// LedgerSpecs lists the ledger's metrics in report order.
func LedgerSpecs() []MetricSpec {
	var out []MetricSpec
	for _, layer := range []string{"fslibs", "zofs"} {
		for _, op := range LedgerOps {
			out = append(out,
				MetricSpec{Name: layer + "." + op + ".host_ns", Unit: "ns", Better: "lower"},
				MetricSpec{Name: layer + "." + op + ".vns", Unit: "vns", Better: "lower"},
				MetricSpec{Name: layer + "." + op + ".allocs", Unit: "allocs", Better: "lower"})
		}
	}
	for _, p := range []string{"nvm.readview4k", "nvm.read4k", "nvm.writent4k", "nvm.store64_flush_fence", "nvm.load64", "nvm.cas64", "mpk.window_open_close"} {
		out = append(out, MetricSpec{Name: p + ".host_ns", Unit: "ns", Better: "lower"}, MetricSpec{Name: p + ".vns", Unit: "vns", Better: "lower"})
	}
	out = append(out, MetricSpec{Name: "mpk.check_access.host_ns", Unit: "ns", Better: "lower"})
	for _, p := range []string{"lookup_path", "resolve_longest", "coffer_enlarge16", "coffer_map_unmap", "coffer_new_delete", "coffer_split_merge"} {
		out = append(out, MetricSpec{Name: "kernfs." + p + ".host_ns", Unit: "ns", Better: "lower"}, MetricSpec{Name: "kernfs." + p + ".vns", Unit: "vns", Better: "lower"})
	}
	for _, col := range Collectors {
		for _, op := range []string{"read4k", "create"} {
			out = append(out, MetricSpec{Name: "obs." + col + "." + op + ".host_ns_delta", Unit: "ns", Better: "lower"})
		}
	}
	return append(out, MetricSpec{Name: "obs.all_on.vns_delta", Unit: "vns", Better: "lower"})
}
