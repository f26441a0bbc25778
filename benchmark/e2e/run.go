package e2e

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"strings"
	"syscall"
	"time"
)

// MetricSpec describes one reported metric.
type MetricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// EndToEnd is the table of end-to-end metrics, reported per workload with
// every collector off. Bound is the share of the parent's median by which a
// change may worsen the metric before it counts as a regression. One bound
// serves all five workloads, so each is about three times the widest spread
// any workload showed across ten seeds (NOISE.md), never below the floor the
// issue gave it. The exception is setup_s: a wall-clock time on a host whose
// speed drifts, it spreads 9–23 % whatever the estimator (README, Measured
// noise) and has the contract's largest bound, 0.25. BENCHMARK.json repeats
// this table and a test keeps the two equal.
var EndToEnd = []MetricSpec{
	{"sim_kops_per_vsec", "kops/vs", "higher", 0.03},
	{"sim_p50_vns", "vns", "lower", 0.01},
	{"sim_p99_vns", "vns", "lower", 0.16},
	{"sim_p999_vns", "vns", "lower", 0.15},
	{"nvm_wbytes_per_op", "B", "lower", 0.03},
	{"nvm_rbytes_per_op", "B", "lower", 0.08},
	{"space_amp", "ratio", "lower", 0.01},
	{"host_allocs_per_op", "allocs", "lower", 0.03},
	{"host_bytes_per_op", "B", "lower", 0.08},
	{"host_peak_rss_mb", "MiB", "lower", 0.10},
	{"setup_s", "s", "lower", 0.25},
	{"ok_ops_frac", "ratio", "higher", 0.0001},
}

// HostTime is the wall-clock cost per op. The issue meant it to be the
// thirteenth end-to-end metric, and every run still measures and prints it,
// but it is not gated: on the shared 2-vCPU VM this was built on, the whole
// machine slows by 20–45 % for minutes at a time, identical runs spread
// 16–22 % over such a period (NOISE.md), and neither CPU time nor a reference
// kernel tracks the slowdown. By the issue's own rule (spread above 10 %
// after stabilisation → per-layer) it is reported with the per-layer metrics
// and judged by -compare as information only.
var HostTime = MetricSpec{Name: "host_ns_per_op", Unit: "ns", Better: "lower"}

// hostTimeBound is the bound -compare applies to HostTime.
const hostTimeBound = 0.25

// RunSeconds is the timed budget of one run, BENCHMARK.json's run_seconds.
const RunSeconds = 10

// Runtime settings the runner fixes and records. fixedGOGC paces the
// collector during set-up, warm-up and verification; the timed region is
// collected on a schedule of its own (gcSchedule).
const (
	fixedGOGC = 100
	maxProcs  = 2
)

// gcEveryBytes is how much the timed region may allocate between two
// collections.
const gcEveryBytes = 128 << 20

// gcSchedule collects the timed region's garbage at points that depend on
// the bytes allocated so far and on nothing else. The pacer is off there
// (runPass): it starts a cycle when its estimates of allocation and marking
// speed say so, which differs from run to run, and on a workload with one or
// two cycles in a pass that alone moved peak RSS by 12 % between identical
// runs. Allocation repeats exactly, so a collection every gcEveryBytes falls
// in the same lap of every pass and the heap peaks at the same size.
type gcSchedule struct {
	sample [1]metrics.Sample
	last   uint64
}

func (g *gcSchedule) allocated() uint64 {
	g.sample[0].Name = "/gc/heap/allocs:bytes"
	metrics.Read(g.sample[:])
	return g.sample[0].Value.Uint64()
}

// step collects if gcEveryBytes were allocated since the last collection.
func (g *gcSchedule) step() {
	if now := g.allocated(); now-g.last >= gcEveryBytes {
		runtime.GC()
		g.last = now
	}
}

// How often a run repeats what it times on the host clock. Both counts are
// fixed: host_ns_per_op and setup_s are minima, a minimum over N shrinks as N
// grows, and an N that followed -seconds or the speed of the code under test
// would bias them in the direction of the change. Passes beyond hostPasses,
// run until the budget is spent, only repeat the determinism check.
const (
	hostPasses = 3 // passes that feed every host-side metric
	setupReps  = 7 // set-ups timed: one in each host pass, the rest on their own
)

// Configure pins the Go runtime knobs that move host numbers. It returns the
// values in force, which every result records.
func Configure() (procs, gogc int) {
	procs = min(maxProcs, runtime.NumCPU())
	runtime.GOMAXPROCS(procs)
	debug.SetGCPercent(fixedGOGC)
	return procs, fixedGOGC
}

// Result is one workload's outcome.
type Result struct {
	Workload   string             `json:"workload"`
	Seed       uint64             `json:"seed"`
	Ops        int                `json:"ops"`
	Passes     int                `json:"passes"`
	StreamHash string             `json:"stream_hash"`
	GoVersion  string             `json:"go_version"`
	GOMAXPROCS int                `json:"gomaxprocs"`
	GOGC       int                `json:"gogc"`
	Correct    bool               `json:"correct"`
	Attempted  int64              `json:"attempted"`
	Failed     int64              `json:"failed"`
	Metrics    map[string]float64 `json:"metrics"`
	Notes      []string           `json:"notes,omitempty"`
}

// simOutcome is everything about a pass that must repeat exactly.
type simOutcome struct {
	maxVNS         int64
	wbytes, rbytes int64
	pagesUsed      int64
	live           int64
}

type pass struct {
	sim       simOutcome
	setup     time.Duration
	wall      time.Duration
	mallocs   uint64
	allocated uint64
	attempted int64
	failed    int64
}

// runPass does one full repetition on a fresh device: set-up (timed for
// setup_s), untimed warm-up, the timed op stream, then verification.
// afterWarm, when set, runs between warm-up and the timed region (the traced
// run resets its collectors there).
func runPass(w Workload, tr *Tracer, h *Hist, laps *Laps, afterWarm func()) (pass, error) {
	var p pass
	inst, setup, err := setUp(w, tr)
	if err != nil {
		return p, err
	}
	p.setup = setup
	env := inst.Env()
	warmFailed := inst.Warm()
	tr.Reset()
	if afterWarm != nil {
		afterWarm()
	}
	runtime.GC() // the timed region starts from a collected heap
	debug.SetGCPercent(-1)

	v0 := make([]int64, len(env.Clients))
	for i, c := range env.Clients {
		v0[i] = c.Th.Clk.Now()
	}
	wb0, rb0 := env.Dev.BytesWritten(), env.Dev.BytesRead()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t1 := time.Now()
	runFailed := inst.Run(h, laps)
	p.wall = time.Since(t1)
	tr.Stop()
	debug.SetGCPercent(fixedGOGC)
	runtime.ReadMemStats(&m1)
	p.mallocs, p.allocated = m1.Mallocs-m0.Mallocs, m1.TotalAlloc-m0.TotalAlloc

	for i, c := range env.Clients {
		p.sim.maxVNS = max(p.sim.maxVNS, c.Th.Clk.Now()-v0[i])
	}
	p.sim.wbytes, p.sim.rbytes = env.Dev.BytesWritten()-wb0, env.Dev.BytesRead()-rb0
	p.sim.pagesUsed = env.PagesUsed()
	checked, bad := inst.Verify()
	p.sim.live = inst.LiveBytes()
	warmOps := w.Ops() / 10
	p.attempted = int64(warmOps + w.Ops() + checked)
	p.failed = int64(warmFailed + runFailed + bad)
	return p, nil
}

// setUp builds a fresh instance of w and times it: device + mkfs + mount +
// populate. The previous instance's device is collected first but its memory
// is kept: after FreeOSMemory every set-up re-faults its whole data set, which
// made it two to three times slower and far less steady.
func setUp(w Workload, tr *Tracer) (Instance, time.Duration, error) {
	runtime.GC()
	t0 := time.Now()
	inst, err := w.NewInstance(tr)
	if err != nil {
		return nil, 0, fmt.Errorf("%s: set-up: %w", w.Name(), err)
	}
	return inst, time.Since(t0), nil
}

// Run measures one workload at benchmark size with every collector off:
// passes of the full op stream on fresh devices until the timed regions add
// up to budget, at least hostPasses. Simulated quantities must be identical
// in every pass. The host-side metrics come from the first hostPasses passes
// only: host time is the sum over laps of each lap's fastest execution (see
// Laps), allocation counts are medians, set-up time is the smallest of
// setupReps set-ups, and peak RSS is read before any further pass.
func Run(name string, seed uint64, budget time.Duration) (Result, error) {
	c, err := lookup(name)
	if err != nil {
		return Result{}, err
	}
	w := c.Build(seed, 1)
	procs, gogc := runtime.GOMAXPROCS(0), fixedGOGC
	res := Result{
		Workload: name, Seed: seed, Ops: w.Ops(),
		StreamHash: fmt.Sprintf("%016x", w.StreamHash()),
		GoVersion:  runtime.Version(), GOMAXPROCS: procs, GOGC: gogc,
		Correct: true, Metrics: map[string]float64{},
	}
	if budget <= 0 {
		budget = RunSeconds * time.Second
	}
	var (
		passes []pass
		first  map[string]float64
		h      = new(Hist)
		laps   = new(Laps)
		best   Laps // per lap, the fastest execution over the host passes
		setup  time.Duration
		timed  time.Duration
	)
	onePass := func() error {
		h.Reset()
		p, err := runPass(w, nil, h, laps, nil)
		if err != nil {
			return err
		}
		sim := simMetrics(p.sim, h, w.Ops())
		if first == nil {
			first = sim
		} else if diff := simDiffers(first, sim, c.SimTolerance); diff != "" {
			res.Correct = false
			res.Notes = append(res.Notes, fmt.Sprintf("pass %d differs from pass 0: %s", len(passes), diff))
		}
		passes = append(passes, p)
		timed += p.wall
		return nil
	}
	for len(passes) < hostPasses {
		if err := onePass(); err != nil {
			return res, err
		}
		best.keepFastest(laps)
		if p := passes[len(passes)-1]; setup == 0 || p.setup < setup {
			setup = p.setup
		}
	}
	for i := hostPasses; i < setupReps; i++ {
		_, d, err := setUp(w, nil)
		if err != nil {
			return res, err
		}
		setup = min(setup, d)
	}
	// Peak RSS is read here, after a fixed amount of work: what survives a
	// collection grows by some 20 MiB with every meta_churn pass, so at the
	// end of the run the peak would follow the number of passes.
	peakRSS := peakRSSMiB()
	for timed < budget {
		if err := onePass(); err != nil {
			return res, err
		}
	}
	res.Passes = len(passes)

	ops := float64(w.Ops())
	var allocs, bytes []float64
	for i, p := range passes {
		res.Attempted += p.attempted
		res.Failed += p.failed
		if i < hostPasses {
			allocs = append(allocs, float64(p.mallocs)/ops)
			bytes = append(bytes, float64(p.allocated)/ops)
		}
	}
	if res.Failed > 0 {
		res.Correct = false
	}
	m := res.Metrics
	for k, v := range first {
		m[k] = v
	}
	m["host_ns_per_op"] = float64(best.total().Nanoseconds()) / ops
	_, m["host_allocs_per_op"], _ = Quartiles(allocs)
	_, m["host_bytes_per_op"], _ = Quartiles(bytes)
	m["host_peak_rss_mb"] = peakRSS
	m["setup_s"] = setup.Seconds()
	m["ok_ops_frac"] = float64(res.Attempted-res.Failed) / float64(res.Attempted)
	return res, nil
}

// lapsPerPass is how many laps the timed op stream is cut into: a few
// milliseconds each on every workload, short enough that a burst of host
// noise spoils few of them.
const lapsPerPass = 500

// Laps holds the wall time of each lap of one pass. Every pass runs the
// same ops in the same order, so lap i is the same work in every pass: host
// interference (another tenant, a scheduling hiccup) can only ever add time
// to it, and the fastest of its executions is the closest any of them came
// to the undisturbed cost. Garbage collection is not rejected with the
// noise: it runs on gcSchedule, so collections fall in the same laps of
// every pass.
type Laps [lapsPerPass]time.Duration

// run cuts n ops into laps, runs fn on each and records its wall time,
// collections included (a nil receiver records nothing).
func (l *Laps) run(n int, fn func(from, to int) int) (failed int) {
	gc := gcSchedule{}
	gc.last = gc.allocated()
	prev := time.Now()
	for i := 0; i < lapsPerPass; i++ {
		failed += fn(n*i/lapsPerPass, n*(i+1)/lapsPerPass)
		gc.step()
		if l != nil {
			now := time.Now()
			l[i], prev = now.Sub(prev), now
		}
	}
	return failed
}

// keepFastest lowers each lap to o's when o's is faster (or l is empty).
func (l *Laps) keepFastest(o *Laps) {
	for i, d := range o {
		if l[i] == 0 || d < l[i] {
			l[i] = d
		}
	}
}

func (l *Laps) total() (sum time.Duration) {
	for _, d := range l {
		sum += d
	}
	return sum
}

// simMetrics derives the metrics that depend only on simulated quantities.
func simMetrics(s simOutcome, h *Hist, nOps int) map[string]float64 {
	ops := float64(nOps)
	return map[string]float64{
		"sim_kops_per_vsec": ops * 1e6 / float64(s.maxVNS),
		"sim_p50_vns":       float64(h.Quantile(0.50)),
		"sim_p99_vns":       float64(h.Quantile(0.99)),
		"sim_p999_vns":      float64(h.Quantile(0.999)),
		"nvm_wbytes_per_op": float64(s.wbytes) / ops,
		"nvm_rbytes_per_op": float64(s.rbytes) / ops,
		"space_amp":         float64(s.pagesUsed*pageSize) / float64(s.live),
	}
}

// simDiffers names the first simulated metric on which two passes disagree
// by more than tol (0 = any difference); "" when they agree. Percentiles are
// bucket bounds, so under a tolerance they may also sit one bucket apart.
func simDiffers(a, b map[string]float64, tol float64) string {
	names := make([]string, 0, len(a))
	for k := range a {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		allowed := tol
		if tol > 0 && strings.HasPrefix(k, "sim_p") {
			allowed = 2.0 / subCount
		}
		if d := abs(a[k]-b[k]) / max(abs(a[k]), 1e-300); d > allowed {
			return fmt.Sprintf("%s %v vs %v", k, a[k], b[k])
		}
	}
	return ""
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// peakRSSMiB is this process's ru_maxrss (KiB on Linux).
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// BenchmarkSpec mirrors BENCHMARK.json.
type BenchmarkSpec struct {
	Command    []string         `json:"command"`
	Paths      []string         `json:"paths"`
	RunSeconds int              `json:"run_seconds"`
	Workloads  []WorkloadReason `json:"workloads"`
	EndToEnd   []MetricSpec     `json:"end_to_end"`
	PerLayer   []MetricSpec     `json:"per_layer"`
}

// WorkloadReason is a workload's entry in BENCHMARK.json.
type WorkloadReason struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// Spec builds BENCHMARK.json's content from the tables in this package; a
// test keeps the committed file equal to it.
func Spec() BenchmarkSpec {
	s := BenchmarkSpec{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: RunSeconds,
		EndToEnd:   EndToEnd,
		PerLayer:   PerLayer(),
	}
	for _, c := range Catalog {
		s.Workloads = append(s.Workloads, WorkloadReason{c.Name, c.Why})
	}
	return s
}
