package chaos

import (
	"errors"
	"fmt"
	"strings"

	"zofs/internal/coffer"
	"zofs/internal/telemetry"
	"zofs/internal/vfs"
	"zofs/internal/zofs"
)

// outcomeClass scores one op.
type outcomeClass int

const (
	outSucceeded   outcomeClass = iota
	outDegraded                 // succeeded after a bounded wait or re-dispatch
	outCorrectFail              // failed with the typed error quarantine promises
	outFailed                   // failed in a way the containment model forbids
)

// Outcome is an availability scoreboard: Succeeded+Degraded is served
// traffic, CorrectlyFailed is the quarantine doing its job, Failed is a
// containment violation.
type Outcome struct {
	Total           int     `json:"total"`
	Succeeded       int     `json:"succeeded"`
	Degraded        int     `json:"degraded"`
	CorrectlyFailed int     `json:"correctly_failed"`
	Failed          int     `json:"failed"`
	AvailabilityPct float64 `json:"availability_pct"`
}

func (o *Outcome) add(c outcomeClass) {
	o.Total++
	switch c {
	case outSucceeded:
		o.Succeeded++
	case outDegraded:
		o.Degraded++
	case outCorrectFail:
		o.CorrectlyFailed++
	case outFailed:
		o.Failed++
	}
}

// finish computes the served fraction.
func (o Outcome) finish() Outcome {
	if o.Total > 0 {
		o.AvailabilityPct = 100 * float64(o.Succeeded+o.Degraded) / float64(o.Total)
	}
	return o
}

// CofferReport is one coffer's scoreboard.
type CofferReport struct {
	Path             string  `json:"path"`
	Coffer           int64   `json:"coffer"`
	Role             string  `json:"role"`
	Quarantined      bool    `json:"quarantined"`
	Overall          Outcome `json:"overall"`
	DuringQuarantine Outcome `json:"during_quarantine"`
}

// Violation is one broken containment invariant.
type Violation struct {
	Invariant string `json:"invariant"`
	Detail    string `json:"detail"`
}

// Report is the campaign result. All times are virtual nanoseconds; with
// the same Config the report is byte-identical across runs.
type Report struct {
	Schema string `json:"schema"`
	Config Config `json:"config"`

	OpsByKind map[string]int `json:"ops_by_kind"`
	Faults    map[string]int `json:"faults_injected"`

	Coffers []CofferReport `json:"coffers"`

	Quarantines struct {
		ReadOnly int `json:"read_only"`
		Offline  int `json:"offline"`
	} `json:"quarantines"`

	LeaseSteals                int   `json:"lease_steals"`
	FencedResumes              int   `json:"fenced_resumes"`
	HealthyOpsDuringQuarantine int   `json:"healthy_ops_during_quarantine"`
	HealthyFsckRepairs         int   `json:"healthy_fsck_repairs"`
	MaxOpNS                    int64 `json:"max_op_ns"`
	LeaseBudgetNS              int64 `json:"lease_budget_ns"`

	// RetryNS is the exact-sum spans attribution of all failure-path waits
	// (the "retry" component) across the campaign.
	RetryNS          int64 `json:"retry_ns"`
	MPKViolations    int64 `json:"mpk_violations"`
	ViolationReports int64 `json:"violation_reports"`
	FaultsRecovered  int64 `json:"faults_recovered"`

	ViolationCount int         `json:"violation_count"`
	Violations     []Violation `json:"violations"`
}

func newReport(cfg Config) *Report {
	return &Report{
		Schema:        "zofs-chaos/v1",
		Config:        cfg,
		OpsByKind:     map[string]int{},
		Faults:        map[string]int{},
		Violations:    []Violation{},
		LeaseBudgetNS: zofs.LeaseBudget(),
	}
}

// Passed reports whether every containment invariant held.
func (r *Report) Passed() bool { return r.ViolationCount == 0 }

// finish runs the post-campaign verification pass and folds everything
// into the report:
//
//  1. a pending stall is resumed (and fenced) even if the campaign ended
//     before its scheduled resume;
//  2. every non-offline coffer reads back as its model holds it, file by
//     file and byte for byte, with no entry the model does not hold — stray
//     writes and the victim's corruption must not have leaked into anyone
//     else's data;
//  3. the offline victim answers with its typed error;
//  4. zofs.Check over the root and every healthy coffer repairs nothing
//     (zero cross-coffer damage) and finds every invariant holding;
//  5. span hygiene (no leaks, no double closes) and the exact-sum
//     component attribution are checked, and the retry time extracted.
func (e *engine) finish() {
	if e.stall != nil && !e.stall.done {
		e.injectResume()
	}
	m := e.maint

	// (2) Model read-back through a process that took no part in the
	// campaign traffic.
	for _, cof := range e.coffers {
		if cof.offline {
			// (3) The offline victim must answer with its typed error.
			name := cof.model.Path(0)
			if _, err := m.lib.Stat(m.th, name); !errors.Is(err, vfs.ErrOfflineCoffer) {
				e.violate("offline_probe", fmt.Sprintf("stat %s returned %v, want ErrOfflineCoffer", name, err))
			}
			continue
		}
		if err := e.checkModel(cof); err != nil {
			e.violate("post_integrity", fmt.Sprintf("%s (%s): %v", cof.path, cof.role, err))
		}
	}

	// (4) Healthy coffers carry zero damage: zofs.Check over the root and
	// every healthy coffer must repair nothing, and every invariant it
	// registers must hold.
	ids := []coffer.ID{e.rootID}
	for _, cof := range e.coffers {
		if cof.role == roleHealthy {
			ids = append(ids, cof.id)
		}
	}
	found := zofs.Check(e.k, m.th, ids...)
	for _, c := range found.Coffers {
		e.rep.HealthyFsckRepairs += len(c.Repairs)
		if len(c.Repairs) > 0 {
			e.violate("cross_coffer_damage", fmt.Sprintf("%s: fsck made %d repairs (first: %s at %#x)",
				c.Path, len(c.Repairs), c.Repairs[0].Kind, c.Repairs[0].Off))
		}
	}
	for _, fd := range found.Findings {
		switch {
		case fd.Repaired:
		case fd.Invariant == zofs.InvariantFsck:
			e.violate("healthy_fsck_err", fd.Detail)
		case fd.Invariant == "space_conserved":
			e.violate("space_reconcile", fd.Detail)
		default:
			e.violate(fd.Invariant, fd.Detail)
		}
	}

	// (5) Span hygiene + exact-sum retry attribution.
	if open := e.col.OpenRoots(); open != 0 {
		e.violate("span_leak", fmt.Sprintf("%d root spans left open", open))
	}
	if dc := e.col.DoubleCloses(); dc != 0 {
		e.violate("span_double_close", fmt.Sprintf("%d double-closed spans", dc))
	}
	snap := e.col.Snapshot()
	for name, ob := range snap.Ops {
		var sum int64
		for _, cs := range ob.Comp {
			sum += cs.SumNS
		}
		if sum != ob.SumNS {
			e.violate("spans_sum", fmt.Sprintf("op %s: components sum %d != total %d", name, sum, ob.SumNS))
		}
		e.rep.RetryNS += ob.Comp["retry"].SumNS
	}

	// Availability and non-vacuity invariants.
	for _, cof := range e.coffers {
		if cof.role != roleHealthy {
			continue
		}
		o := cof.overall
		if o.Failed > 0 || o.CorrectlyFailed > 0 {
			e.violate("healthy_availability", fmt.Sprintf("%s served %d/%d ops",
				cof.path, o.Succeeded+o.Degraded, o.Total))
		}
	}
	if e.quarActive && e.rep.HealthyOpsDuringQuarantine == 0 {
		e.violate("vacuous_quarantine_window", "no healthy-coffer ops ran while a quarantine was active")
	}
	if e.cfg.enabled("stall") && e.cfg.Clients >= 3 && e.rep.FencedResumes == 0 {
		e.violate("fence_unexercised", "stall was enabled but no stale resume was fenced")
	}

	tsnap := e.rec.Snapshot()
	e.rep.MPKViolations = tsnap.Counters[telemetry.CtrMPKViolations.Name()]
	e.rep.ViolationReports = tsnap.Counters[telemetry.CtrKernViolationReports.Name()]
	e.rep.FaultsRecovered = tsnap.Counters[telemetry.CtrFaultsRecovered.Name()]
	e.rep.Coffers = e.sortedCofferReports()
}

// checkModel checks one coffer, and nothing outside it, against its model
// through the maintenance process's dispatcher, whose guard makes a fault an
// ErrIO.
func (e *engine) checkModel(cof *cofferState) error {
	return cof.model.Check(e.maint.lib.FS(), e.maint.th, func(p string) bool {
		return p != cof.path && !strings.HasPrefix(p, cof.path+"/")
	})
}

// WriteSummary renders a short human-readable scoreboard.
func (r *Report) WriteSummary(w interface{ Write([]byte) (int, error) }) {
	fmt.Fprintf(w, "chaos: seed=%d clients=%d ops=%d coffers=%d\n",
		r.Config.Seed, r.Config.Clients, r.Config.Ops, r.Config.Coffers)
	for _, c := range r.Coffers {
		fmt.Fprintf(w, "  %-6s %-16s avail=%6.2f%%  ok=%d degraded=%d typed-fail=%d failed=%d",
			c.Path, c.Role, c.Overall.AvailabilityPct,
			c.Overall.Succeeded, c.Overall.Degraded, c.Overall.CorrectlyFailed, c.Overall.Failed)
		if c.Quarantined {
			fmt.Fprintf(w, "  [quarantined]")
		}
		fmt.Fprintf(w, "\n")
	}
	fmt.Fprintf(w, "  steals=%d fenced-resumes=%d quarantines=%d/%d retry=%dns max-op=%dns budget=%dns\n",
		r.LeaseSteals, r.FencedResumes, r.Quarantines.ReadOnly, r.Quarantines.Offline,
		r.RetryNS, r.MaxOpNS, r.LeaseBudgetNS)
	if r.Passed() {
		fmt.Fprintf(w, "  containment: OK (0 violations)\n")
		return
	}
	fmt.Fprintf(w, "  containment: %d VIOLATIONS\n", r.ViolationCount)
	for _, v := range r.Violations {
		fmt.Fprintf(w, "    %s: %s\n", v.Invariant, v.Detail)
	}
}
