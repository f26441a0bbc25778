// Package chaos is the adversarial campaign engine (DESIGN.md §13): it runs
// M simulated client processes against one Treasury device and injects a
// deterministic, seeded schedule of faults — process kill mid-op (persistent
// lease residue), a stalled-but-live lease holder, stray writes from a
// byzantine client, media corruption at a victim coffer, and kernel-call
// delays — then scores how gracefully the stack degrades.
//
// The paper's central protection claim (§3, §6.5) is that coffers contain
// damage: a misbehaving or dying process can hurt at most the coffers it can
// write, and everything else keeps serving. The engine turns that claim into
// checked invariants:
//
//   - healthy coffers never fail an op, before, during or after a victim's
//     quarantine (100% availability);
//   - ops against a quarantined victim fail with *typed* errors
//     (vfs.ErrReadOnlyCoffer / vfs.ErrOfflineCoffer), not hangs or panics;
//   - every lease wait is bounded by the retry policy's deadline budget;
//   - a stalled holder resurrected after its lease was stolen is fenced off
//     by the lease epoch (vfs.ErrStaleLease);
//   - post-campaign fsck of every healthy coffer finds zero repairs
//     (no cross-coffer damage) and the space books reconcile.
//
// Everything is virtual-time and seeded: two runs with the same Config
// produce byte-identical reports. There is no real concurrency — clients
// are interleaved by a min-virtual-clock scheduler, which makes every
// interleaving decision (and therefore every fault outcome) reproducible.
package chaos

import (
	"fmt"
	"math/rand"
	"sort"

	"zofs/internal/coffer"
	"zofs/internal/fslibs"
	"zofs/internal/kernfs"
	"zofs/internal/nvm"
	"zofs/internal/proc"
	"zofs/internal/simclock"
	"zofs/internal/spans"
	"zofs/internal/telemetry"
	"zofs/internal/vfs"
	"zofs/internal/zofs"
)

// Config parameterizes one campaign. The zero value is filled with defaults
// by Run; every field is echoed into the Report so a run is reproducible
// from its own output.
type Config struct {
	// Seed drives every random decision (op mix, payloads, fault targets).
	Seed int64 `json:"seed"`
	// Clients is the number of simulated client processes (default 4).
	// Client 0 doubles as the byzantine stray-writer, client 1 is the one
	// killed, client 2 the one stalled.
	Clients int `json:"clients"`
	// Ops is the campaign length in operations (default 500).
	Ops int `json:"ops"`
	// Coffers is the number of split data coffers /c0../cN-1 (min 4: the
	// last two are the stray-write and corruption victims).
	Coffers int `json:"coffers"`
	// DeviceBytes sizes the simulated NVM device (default 64 MiB).
	DeviceBytes int64 `json:"device_bytes"`
	// Faults enables fault kinds: kill, stall, stray, corrupt, kdelay.
	// Empty means all of them.
	Faults []string `json:"faults"`
}

// fill applies defaults in place.
func (c *Config) fill() {
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Clients <= 0 {
		c.Clients = 4
	}
	if c.Ops <= 0 {
		c.Ops = 500
	}
	if c.Coffers < 4 {
		c.Coffers = 4
	}
	if c.DeviceBytes <= 0 {
		c.DeviceBytes = 64 << 20
	}
	if len(c.Faults) == 0 {
		c.Faults = []string{"kill", "stall", "stray", "corrupt", "kdelay"}
	}
}

func (c *Config) enabled(kind string) bool {
	for _, f := range c.Faults {
		if f == kind {
			return true
		}
	}
	return false
}

// Coffer roles.
const (
	roleHealthy   = "healthy"
	roleVictimRO  = "victim_readonly" // stray-write target, quarantined read-only
	roleVictimOff = "victim_offline"  // corruption target, quarantined offline
)

// fileMode is the mode every campaign file is created with. It exec-masks
// equal to the coffer's 0o700, so the file lives INSIDE its coffer (§5:
// same-permission rule) — quarantining the coffer must therefore govern
// every campaign file in it, which is exactly the containment the campaign
// asserts.
const fileMode = 0o600

// maxFilesPerCoffer caps namespace growth so long campaigns churn instead
// of only growing.
const maxFilesPerCoffer = 40

// kdelayNS is the injected kernel-call delay (5 ms virtual).
const kdelayNS = 5_000_000

// client is one simulated process: its own protection domain (PKRU), its
// own FSLibs dispatcher, its own virtual clock.
type client struct {
	idx     int
	th      *proc.Thread
	lib     *fslibs.Lib
	dead    bool // killed: never scheduled again
	stalled bool // frozen: not scheduled until resumed
}

// cofferState is one split coffer's role, model and scoreboard.
type cofferState struct {
	path string
	id   coffer.ID
	role string

	// model is what a correct FS must return when the coffer is read back:
	// its directory and the files the campaign's successful ops left in it.
	model *vfs.Model
	seq   int

	readOnly bool // quarantined read-only during the campaign
	offline  bool // quarantined offline during the campaign

	overall Outcome
	durQuar Outcome // ops while any quarantine was active
}

// stallRec remembers a planted stall so the holder can be resurrected and
// its stale commit fenced.
type stallRec struct {
	c     *client
	cof   *cofferState
	ino   int64
	epoch uint8
	done  bool
}

type engine struct {
	cfg Config
	rng *rand.Rand

	dev   *nvm.Device
	k     *kernfs.KernFS
	rec   *telemetry.Recorder
	col   *spans.Collector
	maint *client // maintenance process: fsck, quarantine ops, probes

	// The collectors found installed, put back by teardown: a campaign
	// inside an observed run must not leave the rest of it dark.
	prevSpans *spans.Collector
	prevRec   *telemetry.Recorder

	clients []*client
	coffers []*cofferState
	rootID  coffer.ID

	schedule   map[int][]string
	forced     []op
	stall      *stallRec
	quarActive bool

	rep *Report
}

// Run executes one campaign and returns its report. The returned error is
// infrastructure failure only (mkfs, mount, setup); invariant violations are
// collected in Report.Violations so a campaign always produces a full score.
func Run(cfg Config) (*Report, error) {
	cfg.fill()
	e, err := setup(cfg)
	defer e.teardown()
	if err != nil {
		return nil, err
	}

	e.drive()
	e.finish()
	return e.rep, nil
}

// drive runs the campaign's ops, each after the faults scheduled at it.
func (e *engine) drive() {
	for i := 0; i < e.cfg.Ops; i++ {
		for _, ev := range e.schedule[i] {
			e.inject(ev)
		}
		c, o, ok := e.next(i)
		if !ok {
			e.violate("scheduler_starved", fmt.Sprintf("no runnable client at op %d", i))
			return
		}
		e.execute(c, o)
	}
}

// setup builds the device, kernel, coffers and client processes. Spans and
// telemetry are enabled before any thread exists so every client attaches.
func setup(cfg Config) (*engine, error) {
	e := &engine{
		cfg:      cfg,
		rng:      rand.New(rand.NewSource(cfg.Seed)),
		schedule: buildSchedule(cfg),
		rep:      newReport(cfg),
	}
	// The campaign models a machine from boot: restart the machine-global
	// PID/TID counters so the report (whose timings include TID-seeded
	// retry jitter) is a pure function of the Config.
	proc.ResetIDs()
	e.prevSpans, e.prevRec = spans.Active(), telemetry.Active()
	e.col = spans.Enable(spans.Config{})
	telemetry.Enable()

	e.dev = nvm.New(nvm.Config{Size: cfg.DeviceBytes, TrackPersistence: true})
	e.rec = e.dev.Recorder()
	if err := kernfs.Mkfs(e.dev, kernfs.MkfsOptions{RootMode: 0o755}); err != nil {
		return e, err
	}
	k, err := kernfs.Mount(e.dev)
	if err != nil {
		return e, err
	}
	e.k = k

	// Small enlarge batches: the default 512-page data grant is sized for
	// one hot process, not Clients+1 processes × Coffers coffers × two
	// classes hoarding per-thread free lists on a small device.
	fsOpts := fslibs.Options{ZoFS: zofs.Options{DataEnlargeBatch: 64, MetaEnlargeBatch: 16}}

	// Maintenance process: builds the namespace, later runs fsck/quarantine.
	mth := proc.NewProcess(e.dev, 0, 0).NewThread()
	mlib, err := fslibs.Mount(k, mth, fsOpts)
	if err != nil {
		return e, err
	}
	e.maint = &client{idx: -1, th: mth, lib: mlib}
	if err := mlib.ZoFS().EnsureRootDir(mth); err != nil {
		return e, err
	}
	rootID, ok := k.LookupPath(mth.Clk, "/")
	if !ok {
		return e, fmt.Errorf("chaos: root coffer not found")
	}
	e.rootID = rootID

	// Carve one coffer per top-level directory: mkdir inherits the parent
	// coffer, chmod to a different permission triggers the CofferSplit path
	// (§4.3) — exactly how a real tenant gets its own protection domain.
	for i := 0; i < cfg.Coffers; i++ {
		dir := fmt.Sprintf("/c%d", i)
		if err := mlib.Mkdir(mth, dir, 0o755); err != nil {
			return e, fmt.Errorf("chaos: mkdir %s: %w", dir, err)
		}
		if err := mlib.Chmod(mth, dir, 0o700); err != nil {
			return e, fmt.Errorf("chaos: chmod %s: %w", dir, err)
		}
		id, ok := k.LookupPath(mth.Clk, dir)
		if !ok || id == rootID {
			return e, fmt.Errorf("chaos: %s did not split into its own coffer", dir)
		}
		role := roleHealthy
		switch i {
		case cfg.Coffers - 2:
			role = roleVictimRO
		case cfg.Coffers - 1:
			role = roleVictimOff
		}
		m := vfs.NewModel()
		m.Mkdir(dir)
		e.coffers = append(e.coffers, &cofferState{path: dir, id: id, role: role, model: m})
	}

	for i := 0; i < cfg.Clients; i++ {
		th := proc.NewProcess(e.dev, 0, 0).NewThread()
		lib, err := fslibs.Mount(k, th, fsOpts)
		if err != nil {
			return e, err
		}
		e.clients = append(e.clients, &client{idx: i, th: th, lib: lib})
	}
	return e, nil
}

func (e *engine) teardown() {
	spans.Install(e.prevSpans)
	telemetry.Install(e.prevRec)
}

// pick returns the runnable client with the smallest virtual clock (ties to
// the lowest index) — simclock.Earliest, the deterministic interleaving
// policy FxMark and Filebench share.
func (e *engine) pick() *client {
	i := simclock.Earliest(e.clients, func(c *client) *simclock.Clock {
		if c.dead || c.stalled {
			return nil
		}
		return c.th.Clk
	})
	if i < 0 {
		return nil
	}
	return e.clients[i]
}

// next selects the client and operation for scheduling slot i: a queued
// forced op first, then seed creates (two files per coffer so every fault
// has a target), then the seeded random mix.
func (e *engine) next(i int) (*client, op, bool) {
	c := e.pick()
	if c == nil {
		return nil, op{}, false
	}
	if len(e.forced) > 0 {
		o := e.forced[0]
		e.forced = e.forced[1:]
		return c, o, true
	}
	if i < 2*len(e.coffers) {
		return c, e.genCreate(e.coffers[i%len(e.coffers)]), true
	}
	return c, e.genOp(), true
}

// alive counts schedulable clients.
func (e *engine) alive() int {
	n := 0
	for _, c := range e.clients {
		if !c.dead {
			n++
		}
	}
	return n
}

// maxClock is the latest virtual clock over non-dead clients: lease expiries
// planted relative to it are in the future for every potential waiter.
func (e *engine) maxClock() int64 {
	var m int64
	for _, c := range e.clients {
		if !c.dead && c.th.Clk.Now() > m {
			m = c.th.Clk.Now()
		}
	}
	if e.maint.th.Clk.Now() > m {
		m = e.maint.th.Clk.Now()
	}
	return m
}

// byRole returns the first coffer with the role, or nil.
func (e *engine) byRole(role string) *cofferState {
	for _, cs := range e.coffers {
		if cs.role == role {
			return cs
		}
	}
	return nil
}

// healthyCoffers returns the healthy-role coffers in index order.
func (e *engine) healthyCoffers() []*cofferState {
	var out []*cofferState
	for _, cs := range e.coffers {
		if cs.role == roleHealthy {
			out = append(out, cs)
		}
	}
	return out
}

// violate records one containment-invariant violation (bounded; the count
// is exact even when details are dropped).
func (e *engine) violate(invariant, detail string) {
	e.rep.ViolationCount++
	if len(e.rep.Violations) < 64 {
		e.rep.Violations = append(e.rep.Violations, Violation{Invariant: invariant, Detail: detail})
	}
}

// sortedCofferReports builds the per-coffer scoreboard in path order.
func (e *engine) sortedCofferReports() []CofferReport {
	out := make([]CofferReport, 0, len(e.coffers))
	for _, cs := range e.coffers {
		out = append(out, CofferReport{
			Path:             cs.path,
			Coffer:           int64(cs.id),
			Role:             cs.role,
			Quarantined:      cs.readOnly || cs.offline,
			Overall:          cs.overall.finish(),
			DuringQuarantine: cs.durQuar.finish(),
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Path < out[j].Path })
	return out
}

// leaseSlackNS is the tolerance added to the retry budget when asserting the
// per-op bound: media and CPU time of the op itself, far below the 100 ms
// lease horizon but comfortably above any real op cost.
func leaseSlackNS() int64 { return zofs.LeaseDurationNS() }
