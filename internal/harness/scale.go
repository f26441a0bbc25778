package harness

import (
	"fmt"
	"io"
	"math"
	"slices"
	"strings"

	"zofs/internal/fxmark"
	"zofs/internal/lockprof"
	"zofs/internal/pmemtrace"
	"zofs/internal/proc"
	"zofs/internal/spans"
	"zofs/internal/sysfactory"
)

// The FxMark scalability matrix: every workload personality swept across
// thread counts on every system, each cell attributed to its top contended
// locks by the lock profiler, and each (system, workload) curve fitted with
// Amdahl's law and the Universal Scalability Law to extract a serial
// fraction. The committed artifact, BENCH_fxmark_scale.json, names the locks
// a scaling fix would target.

// ScaleLock is one contended lock attributed to a cell.
type ScaleLock struct {
	Lock      string `json:"lock"`
	WaitNS    int64  `json:"wait_ns"`
	Contended int64  `json:"contended"`
}

// ScaleCell is one (threads) point of a scalability curve.
type ScaleCell struct {
	Threads    int         `json:"threads"`
	Ops        int64       `json:"ops"`
	VirtualNS  int64       `json:"virtual_ns"`
	MopsPerSec float64     `json:"mops_per_sec"`
	TopLocks   []ScaleLock `json:"top_locks,omitempty"`
}

// ScaleFit is the least-squares scaling model for one curve.
//
// The Universal Scalability Law (Gunther) models throughput at N threads as
// X(N) = λN / (1 + σ(N−1) + κN(N−1)): σ is the serial (contention)
// fraction, κ the crosstalk (coherency) penalty that produces retrograde
// scaling. Amdahl's law is the κ=0 special case, so SigmaAmdahl is the
// classical serial fraction. Both fits grid-search σ (and κ) and solve λ in
// closed form per grid point (λ* = Σx·g / Σg², g = N/denominator).
type ScaleFit struct {
	Lambda      float64 `json:"lambda_mops"`
	SigmaAmdahl float64 `json:"serial_fraction_amdahl"`
	R2Amdahl    float64 `json:"r2_amdahl"`
	Sigma       float64 `json:"usl_sigma"`
	Kappa       float64 `json:"usl_kappa"`
	R2          float64 `json:"r2_usl"`
	// PeakThreads is the thread count with the highest measured throughput.
	PeakThreads int `json:"peak_threads"`
	// AntiScaling marks curves that lose >5% of peak throughput by the
	// widest sweep point: the table names their worst cell's top locks.
	AntiScaling bool `json:"anti_scaling"`
}

// ScaleCurve is one (system, workload) row of the matrix.
type ScaleCurve struct {
	System   string      `json:"system"`
	Workload string      `json:"workload"`
	Cells    []ScaleCell `json:"cells"`
	Fit      ScaleFit    `json:"fit"`
}

// ScaleReport is the BENCH_fxmark_scale.json artifact.
type ScaleReport struct {
	Quick    bool  `json:"quick"`
	Threads  []int `json:"threads"`
	TargetNS int64 `json:"target_ns"`
	// Gates records the self-asserted invariants the run verified.
	Gates  []string     `json:"gates"`
	Curves []ScaleCurve `json:"curves"`
}

// scaleCell runs one FxMark cell on a fresh instance: a freshly booted
// machine, so thread ids, the allocator slots they hash to and the inode
// pages that name contended locks do not depend on what ran earlier in the
// host process, and BENCH_fxmark_scale.json is the same whichever
// experiments precede it.
func scaleCell(sys sysfactory.System, w fxmark.Workload, threads int, targetNS, devBytes int64) (fxmark.Result, error) {
	proc.ResetIDs()
	in, err := sys.New(devBytes, false)
	if err != nil {
		return fxmark.Result{}, err
	}
	env := &fxmark.Env{FS: in.FS, Proc: in.Proc, SetConcurrency: in.SetConcurrency}
	return fxmark.Run(env, w, threads, targetNS)
}

// fitCurve grid-searches (σ, κ) and solves λ per grid point in closed form.
func fitCurve(threads []int, mops []float64) ScaleFit {
	uslKappas := []float64{0}
	for k := 1e-7; k <= 1e-2*1.0001; k *= math.Sqrt(10) {
		uslKappas = append(uslKappas, k)
	}
	var mean float64
	for _, x := range mops {
		mean += x
	}
	mean /= float64(len(mops))
	var sstot float64
	for _, x := range mops {
		sstot += (x - mean) * (x - mean)
	}
	eval := func(kappas []float64) (lambda, sigma, kappa, r2 float64) {
		bestSSE := math.Inf(1)
		for s := 0.0; s <= 1.0001; s += 0.0025 {
			for _, k := range kappas {
				var sxg, sgg float64
				for i, n := range threads {
					nf := float64(n)
					g := nf / (1 + s*(nf-1) + k*nf*(nf-1))
					sxg += mops[i] * g
					sgg += g * g
				}
				if sgg == 0 {
					continue
				}
				l := sxg / sgg
				var sse float64
				for i, n := range threads {
					nf := float64(n)
					g := nf / (1 + s*(nf-1) + k*nf*(nf-1))
					d := mops[i] - l*g
					sse += d * d
				}
				if sse < bestSSE {
					bestSSE, lambda, sigma, kappa = sse, l, s, k
				}
			}
		}
		if sstot > 0 {
			r2 = 1 - bestSSE/sstot
		} else if bestSSE < 1e-12 {
			r2 = 1
		}
		return
	}
	var fit ScaleFit
	fit.Lambda, fit.SigmaAmdahl, _, fit.R2Amdahl = eval([]float64{0})
	_, fit.Sigma, fit.Kappa, fit.R2 = eval(uslKappas)
	peak := 0
	for i := range mops {
		if mops[i] > mops[peak] {
			peak = i
		}
	}
	fit.PeakThreads = threads[peak]
	last := len(mops) - 1
	fit.AntiScaling = peak < last && mops[last] < 0.95*mops[peak]
	return fit
}

func round3(f float64) float64 { return math.Round(f*1000) / 1000 }

// RunFxmarkScale is the fxmark-scale experiment: the scalability matrix plus
// the concurrency observatory's self-asserted gates.
//
// Gates (all hard failures):
//  1. Bit-identical virtual time: contended 4-thread cells run with the
//     lock profiler off and on must agree on Ops and VirtualNS exactly —
//     profiling observes clocks, it never advances them, and fxmark.Run's
//     earliest-clock stepping makes every cell deterministic.
//  2. Cross-check invariant: the spans layer's aggregate lock_wait counter
//     and the lock profiler's per-lock wait sum are two views of the same
//     Clock.WaitUntil calls, the one lock-wait path of lockprof's Mutex and
//     RWMutex, so on a contended cell they must be EQUAL to the nanosecond,
//     and nonzero.
//  3. Scaling, when the sweep reaches 64 and 512 threads (the full sweep
//     does): see below.
//
// The sweep then runs each (system, workload, threads) cell on a fresh
// instance with a freshly reset registry, snapshots the top contended
// locks, fits Amdahl/USL serial fractions per curve, and writes
// BENCH_fxmark_scale.json.
func RunFxmarkScale(w io.Writer, opts Options) error {
	if len(opts.Threads) == 0 {
		if opts.Quick {
			opts.Threads = []int{1, 4, 16}
		} else {
			opts.Threads = []int{1, 2, 4, 8, 16, 32, 64, 128, 256, 512}
		}
	}
	if opts.TargetNS <= 0 {
		if opts.Quick {
			opts.TargetNS = 250_000
		} else {
			opts.TargetNS = 500_000
		}
	}
	opts.fill()
	// Size the device to the sweep width: NOVA/Strata-style per-thread
	// allocator pools reserve 16 MB per thread up front, so a 512-thread
	// cell needs far more address space than the 8 GiB default. Chunks are
	// allocated lazily, so a large logical device costs only what is touched.
	for _, n := range opts.Threads {
		if need := int64(n) * (48 << 20); opts.DeviceBytes < need {
			opts.DeviceBytes = need
		}
	}

	systems := sysfactory.Comparison
	workloads := fxmark.All
	if opts.Quick {
		systems = []sysfactory.System{sysfactory.ZoFS, sysfactory.PMFS}
		workloads = []fxmark.Workload{fxmark.DRBL, fxmark.DWOM, fxmark.MWCL}
	}

	prevLock := lockprof.Active()
	prevSpans := spans.Active()
	prevTrace := pmemtrace.Active()
	defer func() {
		lockprof.Install(prevLock)
		spans.Install(prevSpans)
		pmemtrace.Install(prevTrace)
	}()
	spans.Disable()

	var failures []string
	var gates []string
	gateNS := opts.TargetNS

	// Gate 1: bit-identical virtual time, profiler off vs on, on contended
	// 4-thread cells: ZoFS shared-file overwrites and PMFS creates under its
	// global allocator lock.
	for _, c := range []struct {
		sys sysfactory.System
		wl  fxmark.Workload
	}{{sysfactory.ZoFS, fxmark.DWOM}, {sysfactory.PMFS, fxmark.MWCL}} {
		lockprof.Disable()
		off, err := scaleCell(c.sys, c.wl, 4, gateNS, opts.DeviceBytes)
		if err != nil {
			return fmt.Errorf("fxmark-scale gate (%s %s, profiler off): %w", c.sys.Name, c.wl, err)
		}
		reg := lockprof.Enable(lockprof.Config{})
		on, err := scaleCell(c.sys, c.wl, 4, gateNS, opts.DeviceBytes)
		if err != nil {
			return fmt.Errorf("fxmark-scale gate (%s %s, profiler on): %w", c.sys.Name, c.wl, err)
		}
		if off.Ops != on.Ops || off.VirtualNS != on.VirtualNS {
			failures = append(failures, fmt.Sprintf(
				"%s %s 4T not bit-identical: off ops=%d vns=%d, on ops=%d vns=%d",
				c.sys.Name, c.wl, off.Ops, off.VirtualNS, on.Ops, on.VirtualNS))
			continue
		}
		gates = append(gates, fmt.Sprintf(
			"bit-identical %s %s 4T: ops=%d virtual_ns=%d with profiler off and on (%d ns lock wait profiled)",
			c.sys.Name, c.wl, on.Ops, on.VirtualNS, reg.WaitNS()))
	}

	// Gate 2: three books of lock wait agree exactly on a cell with
	// guaranteed contention (shared-file overwrites): the event log's
	// lock_wait durations, the span collector's lock_wait component and the
	// lock profiler's wait sum.
	reg := lockprof.Enable(lockprof.Config{})
	scol := spans.Enable(spans.Config{})
	tr := pmemtrace.Enable(pmemtrace.Config{})
	xr, err := scaleCell(sysfactory.ZoFS, fxmark.DWOM, 4, gateNS, opts.DeviceBytes)
	spans.Disable()
	pmemtrace.Install(prevTrace)
	if err != nil {
		return fmt.Errorf("fxmark-scale cross-check cell: %w", err)
	}
	var eventWait int64
	for _, ev := range tr.Events() {
		if ev.Kind == pmemtrace.KindLockWait {
			eventWait += ev.Len
		}
	}
	spanWait, profWait := scol.LockWaitNS(), reg.WaitNS()
	switch {
	case profWait == 0:
		failures = append(failures, fmt.Sprintf("cross-check cell (DWOM 4T, %d ops) recorded zero lock wait", xr.Ops))
	case tr.Dropped() != 0 || spanWait != profWait || eventWait != profWait:
		failures = append(failures, fmt.Sprintf(
			"lock-wait books disagree: lock_wait events=%d ns (%d dropped), spans lock_wait=%d ns, lockprof wait sum=%d ns",
			eventWait, tr.Dropped(), spanWait, profWait))
	default:
		gates = append(gates, fmt.Sprintf(
			"cross-check DWOM 4T: lock_wait events == spans lock_wait == lockprof wait sum == %d ns over %d ops", profWait, xr.Ops))
	}

	// The sweep proper, profiler on throughout.
	fmt.Fprintf(w, "FxMark scalability matrix: threads %v, %d ns virtual per thread\n", opts.Threads, opts.TargetNS)
	rep := ScaleReport{Quick: opts.Quick, Threads: opts.Threads, TargetNS: opts.TargetNS}
	t := tw(w)
	fmt.Fprintln(t, "System\tWorkload\tMops/s by threads\tserial σ (Amdahl)\tUSL σ/κ\tpeak\tanti-scaling: top locks")
	for _, sys := range systems {
		for _, wl := range workloads {
			curve := ScaleCurve{System: sys.Name, Workload: string(wl)}
			mops := make([]float64, 0, len(opts.Threads))
			for _, n := range opts.Threads {
				reg.Reset()
				r, err := scaleCell(sys, wl, n, opts.TargetNS, opts.DeviceBytes)
				if err != nil {
					return fmt.Errorf("fxmark-scale %s/%s/%dT: %w", sys.Name, wl, n, err)
				}
				snap := reg.Snapshot()
				cell := ScaleCell{
					Threads: n, Ops: r.Ops, VirtualNS: r.VirtualNS,
					MopsPerSec: round3(r.MopsPerSec),
				}
				for _, l := range snap.TopLocks(3) {
					cell.TopLocks = append(cell.TopLocks, ScaleLock{
						Lock: l.Lock, WaitNS: l.WaitNS, Contended: l.Contended,
					})
				}
				curve.Cells = append(curve.Cells, cell)
				mops = append(mops, r.MopsPerSec)
			}
			fit := fitCurve(opts.Threads, mops)
			fit.Lambda = round3(fit.Lambda)
			fit.SigmaAmdahl = round3(fit.SigmaAmdahl)
			fit.R2Amdahl = round3(fit.R2Amdahl)
			fit.Sigma = round3(fit.Sigma)
			fit.R2 = round3(fit.R2)
			curve.Fit = fit
			rep.Curves = append(rep.Curves, curve)

			var pts []string
			for _, c := range curve.Cells {
				pts = append(pts, fmt.Sprintf("%.2f", c.MopsPerSec))
			}
			anti := "-"
			if fit.AntiScaling {
				worst := curve.Cells[len(curve.Cells)-1]
				var locks []string
				for _, l := range worst.TopLocks {
					locks = append(locks, l.Lock)
				}
				anti = strings.Join(locks, ",")
				if anti == "" {
					anti = "(no contended locks)"
				}
			}
			fmt.Fprintf(t, "%s\t%s\t%s\t%.3f\t%.3f/%.2g\t%dT\t%s\n",
				sys.Name, wl, strings.Join(pts, " "), fit.SigmaAmdahl, fit.Sigma, fit.Kappa, fit.PeakThreads, anti)
		}
	}
	if err := t.Flush(); err != nil {
		return err
	}

	// Gate 3, whenever the sweep reaches 64 and 512 threads (the full sweep
	// does): the kernfs.big regression gate. These three workloads
	// collapsed under the old global kernel-agent mutex (DWAL peaked at 4T,
	// MWRL at 32T, both losing >90% of peak by 512T).
	// The metadata-bound curves (MWCL/MWRL) must now keep climbing to at
	// least 64 threads; DWAL is data-bandwidth-bound — its aggregate hits
	// the device's degraded write ceiling by a handful of threads, exactly
	// as in the paper's Figure 7, so its un-collapsed signature is HOLDING
	// the ceiling, not climbing past it. All three must retain ≥50% of
	// their peak at the widest sweep point; any new serial section on the
	// enlarge or create path drops that ratio by an order of magnitude.
	if slices.Contains(opts.Threads, 64) && slices.Contains(opts.Threads, 512) {
		needPeak := map[string]bool{
			string(fxmark.MWCL): true,
			string(fxmark.MWRL): true,
		}
		gated := map[string]bool{
			string(fxmark.DWAL): true,
			string(fxmark.MWCL): true,
			string(fxmark.MWRL): true,
		}
		checked := 0
		for _, curve := range rep.Curves {
			if curve.System != "ZoFS" || !gated[curve.Workload] {
				continue
			}
			checked++
			peak := 0.0
			for _, c := range curve.Cells {
				if c.MopsPerSec > peak {
					peak = c.MopsPerSec
				}
			}
			wide := curve.Cells[len(curve.Cells)-1]
			ratio := 0.0
			if peak > 0 {
				ratio = wide.MopsPerSec / peak
			}
			switch {
			case needPeak[curve.Workload] && curve.Fit.PeakThreads < 64:
				failures = append(failures, fmt.Sprintf(
					"scale gate: ZoFS %s peaks at %dT (< 64T) — metadata-write scaling regressed",
					curve.Workload, curve.Fit.PeakThreads))
			case ratio < 0.5:
				failures = append(failures, fmt.Sprintf(
					"scale gate: ZoFS %s retains %.0f%% of peak at %dT (< 50%%) — retrograde scaling regressed",
					curve.Workload, ratio*100, wide.Threads))
			default:
				gates = append(gates, fmt.Sprintf(
					"scale gate ZoFS %s: peak %dT, %dT/peak ratio %.2f",
					curve.Workload, curve.Fit.PeakThreads, wide.Threads, ratio))
			}
		}
		// The quick matrix sweeps MWCL alone of the three.
		if !opts.Quick && checked < len(gated) {
			failures = append(failures, fmt.Sprintf(
				"scale gate: only %d of %d gated ZoFS curves were swept", checked, len(gated)))
		}
	}

	rep.Gates = gates
	if err := writeBench(w, "BENCH_fxmark_scale.json", rep); err != nil {
		return err
	}

	if len(failures) > 0 {
		return fmt.Errorf("fxmark-scale gates failed:\n  %s", strings.Join(failures, "\n  "))
	}
	for _, g := range gates {
		fmt.Fprintf(w, "gate ok: %s\n", g)
	}
	return nil
}
