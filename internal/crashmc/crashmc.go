package crashmc

import (
	"fmt"
	"slices"
	"strings"

	"zofs/internal/nvm"
	"zofs/internal/obsfs"
	"zofs/internal/pmemtrace"
	"zofs/internal/proc"
	"zofs/internal/spans"
	"zofs/internal/sysfactory"
	"zofs/internal/vfs"
)

// Edge selects which side of a persistence point the crash fires on.
// EdgeAfter crashes once the k-th persisting store's effect (including its
// implied fence) has landed — the classic FailAfter boundary. EdgeBefore
// crashes as the k-th persisting store begins, before any effect: the
// interrupted epoch's dirty cachelines are still pending, which is the
// only place the subset and torn media models can bite on systems that
// flush immediately after writing.
type Edge string

const (
	EdgeAfter  Edge = "after"
	EdgeBefore Edge = "before"
)

// Model selects what the media does to dirty cachelines at the crash.
type Model string

const (
	// ModelDrop reverts every dirty line to its last persisted content
	// (the most pessimistic cache model).
	ModelDrop Model = "drop"
	// ModelSubset persists a pseudo-random subset of dirty lines whole
	// (reordered cache writeback).
	ModelSubset Model = "subset"
	// ModelTorn persists a pseudo-random subset of each dirty line's
	// 8-byte words (torn stores below the atomic-write grain).
	ModelTorn Model = "torn"
)

// Config parameterizes one model-checking run.
type Config struct {
	System      string  `json:"system"` // a sysfactory system (Systems)
	Seed        int64   `json:"seed"`
	Ops         int     `json:"ops"`    // workload length
	Points      int     `json:"points"` // crash points to sample (0 = all)
	Models      []Model `json:"models"`
	Edges       []Edge  `json:"edges"`
	DeviceBytes int64   `json:"device_bytes"`
	Flips       int     `json:"flips"` // bit flips for the bitflip campaign
}

func (c *Config) fill() {
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Ops <= 0 {
		c.Ops = 30
	}
	if len(c.Models) == 0 {
		c.Models = []Model{ModelDrop, ModelSubset, ModelTorn}
	}
	if len(c.Edges) == 0 {
		c.Edges = []Edge{EdgeAfter, EdgeBefore}
	}
	if c.DeviceBytes <= 0 {
		c.DeviceBytes = 64 << 20
	}
	if c.Flips <= 0 {
		c.Flips = 8
	}
}

// Violation is one invariant failure in one crash state.
type Violation struct {
	Point     int64  `json:"point"`
	Edge      Edge   `json:"edge"`
	Model     Model  `json:"model"`
	Invariant string `json:"invariant"`
	Detail    string `json:"detail"`
}

func (v Violation) String() string {
	return fmt.Sprintf("[point %d %s %s] %s: %s", v.Point, v.Edge, v.Model, v.Invariant, v.Detail)
}

// Report is the model checker's verdict over one configuration.
type Report struct {
	Config         Config           `json:"config"`
	Guarantee      string           `json:"guarantee"`       // what each crash state is held to
	WorkloadPoints int64            `json:"workload_points"` // persisting stores in the workload window
	Points         []int64          `json:"points"`          // sampled crash points
	States         int              `json:"states"`          // crash states explored
	DirtyStates    int              `json:"dirty_states"`    // states with >0 dirty lines at crash
	MaxDirtyLines  int              `json:"max_dirty_lines"`
	LinesReverted  int64            `json:"lines_reverted"`
	LinesPersisted int64            `json:"lines_persisted"`
	LinesTorn      int64            `json:"lines_torn"`
	Repairs        int64            `json:"repairs"`
	RepairsByKind  map[string]int64 `json:"repairs_by_kind,omitempty"`
	Violations     []Violation      `json:"violations"`
	Fault          *FaultReport     `json:"fault,omitempty"`
}

// fateHash is a deterministic mixer over (seed, point, line): the media
// model's per-line fate must be a pure function of the line offset so the
// materialized image does not depend on dirty-map iteration order.
func fateHash(seed, point, line int64) uint64 {
	x := uint64(seed)*0x9E3779B97F4A7C15 ^ uint64(point)*0xBF58476D1CE4E5B9 ^ uint64(line)*0x94D049BB133111EB
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return x
}

// fateFor builds the per-line media fate for one crash state.
func fateFor(model Model, seed, point int64) func(int64) nvm.LineFate {
	switch model {
	case ModelSubset:
		return func(line int64) nvm.LineFate {
			return nvm.LineFate{Persist: fateHash(seed, point, line)&1 == 0}
		}
	case ModelTorn:
		return func(line int64) nvm.LineFate {
			h := fateHash(seed, point, line)
			if h&3 != 0 { // 3 in 4 dirty lines persist a torn word subset
				return nvm.LineFate{TornMask: uint8(h >> 8)}
			}
			return nvm.LineFate{}
		}
	default:
		return nil // ModelDrop: CrashMediated's default reverts everything
	}
}

// samplePoints picks want crash points evenly across [1, total] (all of
// them when want is 0 or exceeds total), always including both ends.
func samplePoints(total int64, want int) []int64 {
	if want <= 0 || int64(want) >= total {
		pts := make([]int64, 0, total)
		for k := int64(1); k <= total; k++ {
			pts = append(pts, k)
		}
		return pts
	}
	if want == 1 {
		return []int64{(total + 1) / 2}
	}
	pts := make([]int64, 0, want)
	last := int64(0)
	for i := 0; i < want; i++ {
		k := 1 + int64(i)*(total-1)/int64(want-1)
		if k != last {
			pts = append(pts, k)
			last = k
		}
	}
	return pts
}

// Systems lists the system names Config.System accepts, every system
// sysfactory builds, comma-separated, for error messages and command-line
// help.
func Systems() string {
	names := make([]string, len(sysfactory.All))
	for i, sys := range sysfactory.All {
		names[i] = sys.Name
	}
	return strings.Join(names, ", ")
}

// stack is one system under test, built by sysfactory on a
// persistence-tracked device, and the thread that drives it.
type stack struct {
	*sysfactory.Instance
	// fs is Instance.FS; with span collection on, it is wrapped so that each
	// workload op opens a root span, letting the model checker assert span
	// hygiene (no leaks, no double-closes) across injected crashes.
	fs vfs.FileSystem
	th *proc.Thread
}

// build resolves cfg.System and builds a fresh stack of it.
func build(cfg Config) (*stack, error) {
	i := slices.IndexFunc(sysfactory.All, func(sys sysfactory.System) bool { return sys.Name == cfg.System })
	if i < 0 {
		return nil, fmt.Errorf("crashmc: unknown system %q (have %s)", cfg.System, Systems())
	}
	in, err := sysfactory.All[i].New(cfg.DeviceBytes, true)
	if err != nil {
		return nil, fmt.Errorf("crashmc: build %s: %w", cfg.System, err)
	}
	return &stack{Instance: in, fs: obsfs.Wrap(in.FS, nil), th: in.Proc.NewThread()}, nil
}

// Explore runs the full campaign: enumerate the workload's persistence
// points, then for every sampled (point, edge, model) triple build a fresh
// stack, crash it there, materialize the post-crash image and check it
// against what the system guarantees (postCrash). It installs a fresh
// pmemtrace recorder per state and puts back the caller's on return.
func Explore(cfg Config) (*Report, error) {
	cfg.fill()
	ops := GenWorkload(cfg.Seed, cfg.Ops)
	rep := &Report{Config: cfg, RepairsByKind: map[string]int64{}}
	defer pmemtrace.Install(pmemtrace.Active())

	// Enumeration: one uninterrupted run counts the workload's persisting
	// stores. FailAfter/FailAtStart reset the device's store counter when
	// armed, so a point k in [1, N] lands on the same store every replay.
	pmemtrace.Enable(pmemtrace.Config{RingCap: 1 << 18})
	st, err := build(cfg)
	if err != nil {
		return nil, err
	}
	rep.Guarantee, _ = postCrash(st.FS)
	base := st.Dev.WriteCount()
	res := runOps(st.fs, st.th, ops)
	if res.err != nil {
		return nil, fmt.Errorf("crashmc: enumeration run: %w", res.err)
	}
	if res.crashed {
		return nil, fmt.Errorf("crashmc: enumeration run crashed with no fault armed")
	}
	rep.WorkloadPoints = st.Dev.WriteCount() - base
	if rep.WorkloadPoints < 2 {
		return nil, fmt.Errorf("crashmc: workload performed only %d persisting stores", rep.WorkloadPoints)
	}
	rep.Points = samplePoints(rep.WorkloadPoints, cfg.Points)

	for _, k := range rep.Points {
		for _, edge := range cfg.Edges {
			for _, model := range cfg.Models {
				exploreOne(cfg, ops, k, edge, model, rep)
			}
		}
	}
	return rep, nil
}

// exploreOne materializes and checks a single crash state.
func exploreOne(cfg Config, ops []vfs.Op, point int64, edge Edge, model Model, rep *Report) {
	rep.States++
	fail := func(invariant, detail string) {
		rep.Violations = append(rep.Violations, Violation{
			Point: point, Edge: edge, Model: model, Invariant: invariant, Detail: detail})
	}
	rec := pmemtrace.Enable(pmemtrace.Config{RingCap: 1 << 18})
	st, err := build(cfg)
	if err != nil {
		fail("setup", err.Error())
		return
	}
	if edge == EdgeBefore {
		st.Dev.FailAtStart(point)
	} else {
		st.Dev.FailAfter(point)
	}
	res := runOps(st.fs, st.th, ops)
	st.Dev.FailAfter(0)
	if res.err != nil {
		fail("workload", res.err.Error())
		return
	}
	if !res.crashed {
		fail("determinism", fmt.Sprintf(
			"workload finished before point %d of %d: replay diverged from enumeration", point, rep.WorkloadPoints))
		return
	}

	// Span hygiene: the crash unwound the interrupted op's stack, and every
	// span must have been closed on the way up — a leaked root means a layer
	// skipped its deferred close, a double-close means one ran twice.
	if col := spans.Active(); col != nil {
		if open := col.OpenRoots(); open != 0 {
			fail("span_leak", fmt.Sprintf("%d root spans still open after crash at point %d unwound", open, point))
		}
		if dc := col.DoubleCloses(); dc != 0 {
			fail("span_leak", fmt.Sprintf("%d spans closed twice after crash at point %d", dc, point))
		}
	}

	outcome := st.Dev.CrashMediated(fateFor(model, cfg.Seed, point))
	dirty := len(outcome.Reverted) + len(outcome.Persisted) + len(outcome.Torn)
	if dirty > 0 {
		rep.DirtyStates++
	}
	if dirty > rep.MaxDirtyLines {
		rep.MaxDirtyLines = dirty
	}
	rep.LinesReverted += int64(len(outcome.Reverted))
	rep.LinesPersisted += int64(len(outcome.Persisted))
	rep.LinesTorn += int64(len(outcome.Torn))

	// Auditor fidelity: the flight recorder's replay of its own event
	// stream must see exactly the dirty lines the device reverted or
	// mediated — a disagreement means one of the two persistence models
	// drifted.
	if rec.Dropped() > 0 {
		fail("trace", fmt.Sprintf("flight recorder ring overflowed (%d events dropped)", rec.Dropped()))
		return
	}
	audit := pmemtrace.Audit(rec.Events(), nil)
	auditLines := map[int64]bool{}
	for _, l := range audit.LostLines {
		auditLines[l.Line] = true
	}
	outcomeLines := map[int64]bool{}
	for _, set := range [][]int64{outcome.Reverted, outcome.Persisted, outcome.Torn} {
		for _, l := range set {
			outcomeLines[l] = true
		}
	}
	if len(auditLines) != len(outcomeLines) {
		fail("audit_fidelity", fmt.Sprintf(
			"auditor saw %d dirty lines at crash, device mediated %d", len(auditLines), len(outcomeLines)))
	} else {
		for l := range outcomeLines {
			if !auditLines[l] {
				fail("audit_fidelity", fmt.Sprintf("device line %#x dirty at crash but absent from audit", l))
				break
			}
		}
	}

	_, check := postCrash(st.FS)
	check(&crashState{dev: st.Dev, ops: ops, res: res, dirty: dirty, audit: audit, fail: fail, rep: rep})
}
