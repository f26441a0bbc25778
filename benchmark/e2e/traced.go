package e2e

import (
	"fmt"
	"time"

	"zofs/internal/spans"
	"zofs/internal/telemetry"
)

// tracedScale shrinks the traced run: a quarter of the op stream is enough
// for per-op counts and shares, and keeps most spans within maxSpans.
const tracedScale = 4

// tracedRounds is how many untraced/traced pass pairs are run; the overhead
// figure compares the fastest pass of each kind.
const tracedRounds = 2

// spanComponents are the exact-sum components of the spans collector, in its
// own order (spans.Component.Name).
var spanComponents = []string{"media", "flush_fence", "lock_wait", "pkru", "memcpy", "kernel", "retry", "other"}

// TracedSpecs lists the per-workload traced-run metrics in report order.
func TracedSpecs() []MetricSpec {
	out := []MetricSpec{
		{Name: "nvm.reads_per_op", Unit: "count", Better: "lower"},
		{Name: "nvm.nt_stores_per_op", Unit: "count", Better: "lower"},
		{Name: "nvm.flushes_per_op", Unit: "count", Better: "lower"},
		{Name: "nvm.fences_per_op", Unit: "count", Better: "lower"},
		{Name: "mpk.pkru_switches_per_op", Unit: "count", Better: "lower"},
		{Name: "kernfs.syscalls_per_kop", Unit: "count", Better: "lower"},
		{Name: "kernfs.enlarge_per_kop", Unit: "count", Better: "lower"},
		{Name: "kernfs.map_per_kop", Unit: "count", Better: "lower"},
		{Name: "zofs.pages_alloc_per_op", Unit: "count", Better: "lower"},
		{Name: "fslibs.faults_recovered", Unit: "count", Better: "lower"},
	}
	for _, c := range spanComponents {
		out = append(out, MetricSpec{Name: "span." + c + "_vns_share", Unit: "ratio", Better: "lower"})
	}
	return append(out,
		MetricSpec{Name: "app.self_host_share", Unit: "ratio", Better: "lower"},
		MetricSpec{Name: "fslibs.self_host_share", Unit: "ratio", Better: "lower"},
		MetricSpec{Name: "zofs.incl_host_share", Unit: "ratio", Better: "lower"},
		MetricSpec{Name: "nvm.est_host_share", Unit: "ratio", Better: "lower"},
		MetricSpec{Name: "mpk.est_host_share", Unit: "ratio", Better: "lower"},
		MetricSpec{Name: "kernfs.est_host_share", Unit: "ratio", Better: "lower"},
		MetricSpec{Name: "trace.overhead_host_frac", Unit: "ratio", Better: "lower"},
	)
}

// PerLayer is every per-layer metric: the workload-independent ledger
// followed by the traced-run metrics.
func PerLayer() []MetricSpec { return append(append(LedgerSpecs(), TracedSpecs()...), HostTime) }

// KindCost is one op kind's mean cost in the traced run, on both clocks.
type KindCost struct {
	Kind         string
	N            int64
	VNS, HostNS  float64
	LedgerOp     string  // the ledger op it corresponds to, "" if none
	LedgerVNS    float64 // fslibs.<op>.vns
	LedgerHostNS float64 // fslibs.<op>.host_ns
}

// TracedResult is the outcome of a traced run.
type TracedResult struct {
	Result
	Kinds   []KindCost
	Dropped int64 // spans not kept
}

// ledgerOpOf maps a workload's op kind to the ledger op that prices the same
// call sequence at the fslibs boundary.
var ledgerOpOf = map[string]string{
	"pread4k": "read4k", "overwrite4k": "overwrite4k", "append4k": "append4k", "readback4k": "read4k",
	"stat_hit": "stat", "create": "create", "unlink": "unlink", "rename": "rename", "open_close": "open_close",
}

// Traced runs a workload at 1/tracedScale of its size with tracing off and
// on, alternately, and derives that workload's per-layer metrics: counts
// from a telemetry.Recorder, virtual-time shares from the spans collector's
// exact-sum components (both through their public Enable APIs), host-time
// shares from the benchmark's own spans around driver ops and around calls
// crossing into zofs. ledger supplies the unit costs behind the estimated
// nvm/mpk/kernfs shares. With spanDir set, the spans of the last traced pass
// are written there after all timing is done.
func Traced(name string, seed uint64, ledger map[string]float64, spanDir string) (TracedResult, error) {
	c, err := lookup(name)
	if err != nil {
		return TracedResult{}, err
	}
	w := c.Build(seed, tracedScale)
	out := TracedResult{Result: Result{
		Workload: name, Seed: seed, Ops: w.Ops(),
		StreamHash: fmt.Sprintf("%016x", w.StreamHash()), Correct: true, Metrics: map[string]float64{},
	}}
	h := new(Hist)
	laps := new(Laps)
	var best Laps
	var (
		plain, traced time.Duration // fastest pass of each kind
		lastTraced    time.Duration // the pass tr's totals belong to
		tr            = NewTracer()
		counters      map[string]int64
		shares        map[string]float64
	)
	for round := 0; round < tracedRounds; round++ {
		h.Reset()
		p, err := runPass(w, nil, h, laps, nil)
		if err != nil {
			return out, err
		}
		best.keepFastest(laps)
		out.Attempted, out.Failed = out.Attempted+p.attempted, out.Failed+p.failed
		if round == 0 || p.wall < plain {
			plain = p.wall
		}

		rec := telemetry.Enable()
		prev := spans.Active()
		col := spans.Enable(spans.Config{RingCap: -1})
		h.Reset()
		p, err = runPass(w, tr, h, nil, func() { rec.Reset(); col.Reset() })
		snap, comp := rec.Snapshot(), col.Snapshot().CriticalPath
		spans.Install(prev)
		telemetry.Disable()
		if err != nil {
			return out, err
		}
		out.Attempted, out.Failed = out.Attempted+p.attempted, out.Failed+p.failed
		if round == 0 || p.wall < traced {
			traced = p.wall
		}
		lastTraced, counters, shares = p.wall, snap.Counters, comp
	}
	out.Passes = 2 * tracedRounds
	out.Correct = out.Failed == 0
	out.Dropped = tr.Dropped

	ops := float64(w.Ops())
	m := out.Metrics
	ctr := func(c telemetry.Counter) float64 { return float64(counters[c.Name()]) }
	m["nvm.reads_per_op"] = ctr(telemetry.CtrNVMReads) / ops
	m["nvm.nt_stores_per_op"] = ctr(telemetry.CtrNVMNTStores) / ops
	m["nvm.flushes_per_op"] = ctr(telemetry.CtrNVMFlushes) / ops
	m["nvm.fences_per_op"] = ctr(telemetry.CtrNVMFences) / ops
	m["mpk.pkru_switches_per_op"] = ctr(telemetry.CtrMPKSwitches) / ops
	m["kernfs.syscalls_per_kop"] = ctr(telemetry.CtrKernSyscalls) * 1000 / ops
	m["kernfs.enlarge_per_kop"] = ctr(telemetry.CtrKernCofferEnlarge) * 1000 / ops
	m["kernfs.map_per_kop"] = ctr(telemetry.CtrKernCofferMap) * 1000 / ops
	m["zofs.pages_alloc_per_op"] = ctr(telemetry.CtrZoFSPagesAlloc) / ops
	m["fslibs.faults_recovered"] = ctr(telemetry.CtrFaultsRecovered)
	for _, c := range spanComponents {
		m["span."+c+"_vns_share"] = shares[c] / 100
	}

	// Host-time shares of the last traced pass. W ⊇ time in driver ops ⊇
	// time in zofs boundary calls; a direct workload has no fslibs in between.
	wall := float64(lastTraced.Nanoseconds())
	zofsIncl := float64(tr.ZoFSNS)
	inOps := float64(tr.OpNS)
	if c.Direct {
		m["app.self_host_share"] = (wall - zofsIncl) / wall
		m["fslibs.self_host_share"] = 0
	} else {
		m["app.self_host_share"] = (wall - inOps) / wall
		m["fslibs.self_host_share"] = (inOps - zofsIncl) / wall
	}
	m["zofs.incl_host_share"] = zofsIncl / wall
	m["trace.overhead_host_frac"] = float64(traced)/float64(plain) - 1
	m[HostTime.Name] = float64(best.total().Nanoseconds()) / ops

	// Estimates: traced counts priced at ledger unit costs. Reads are priced
	// as 4 KiB views and persists as one store+flush+fence, so these are
	// upper-side guides to where zofs' inclusive time goes, not measurements.
	if ledger != nil {
		nvmNS := ctr(telemetry.CtrNVMReads)*ledger["nvm.readview4k.host_ns"] +
			ctr(telemetry.CtrNVMNTStores)*ledger["nvm.writent4k.host_ns"] +
			ctr(telemetry.CtrNVMFences)*ledger["nvm.store64_flush_fence.host_ns"]
		mpkNS := ctr(telemetry.CtrMPKSwitches) / 2 * ledger["mpk.window_open_close.host_ns"]
		kernNS := ctr(telemetry.CtrKernCofferEnlarge)*ledger["kernfs.coffer_enlarge16.host_ns"] +
			ctr(telemetry.CtrKernCofferMap)*ledger["kernfs.coffer_map_unmap.host_ns"] +
			(ctr(telemetry.CtrKernCofferNew)+ctr(telemetry.CtrKernCofferDelete))/2*ledger["kernfs.coffer_new_delete.host_ns"] +
			(ctr(telemetry.CtrKernCofferSplit)+ctr(telemetry.CtrKernCofferMerge))/2*ledger["kernfs.coffer_split_merge.host_ns"]
		m["nvm.est_host_share"] = nvmNS / wall
		m["mpk.est_host_share"] = mpkNS / wall
		m["kernfs.est_host_share"] = kernNS / wall
	}

	for i, kn := range w.KindNames() {
		k := tr.Kind[i]
		if k.N == 0 {
			continue
		}
		kc := KindCost{Kind: kn, N: k.N, VNS: float64(k.VNS) / float64(k.N), HostNS: float64(k.HostNS) / float64(k.N)}
		if op := ledgerOpOf[kn]; op != "" && ledger != nil {
			kc.LedgerOp, kc.LedgerVNS, kc.LedgerHostNS = op, ledger["fslibs."+op+".vns"], ledger["fslibs."+op+".host_ns"]
		}
		out.Kinds = append(out.Kinds, kc)
	}
	if spanDir != "" {
		if err := tr.WriteSpans(spanDir, name, w.KindNames()); err != nil {
			return out, err
		}
	}
	return out, nil
}
