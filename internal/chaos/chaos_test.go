package chaos

import (
	"encoding/json"
	"testing"

	"zofs/internal/nvm"
)

// TestCampaignContainment: a full campaign with every fault kind enabled
// must hold all containment invariants — healthy coffers at 100%
// availability, victims failing typed, stale resumes fenced, zero
// cross-coffer damage.
func TestCampaignContainment(t *testing.T) {
	rep, err := Run(Config{Seed: 7, Ops: 200})
	if err != nil {
		t.Fatalf("campaign: %v", err)
	}
	if !rep.Passed() {
		for _, v := range rep.Violations {
			t.Errorf("violation %s: %s", v.Invariant, v.Detail)
		}
		t.Fatalf("%d containment violations", rep.ViolationCount)
	}
	if rep.Quarantines.ReadOnly != 1 || rep.Quarantines.Offline != 1 {
		t.Fatalf("quarantines = %+v, want one read-only and one offline", rep.Quarantines)
	}
	if rep.LeaseSteals < 2 {
		t.Fatalf("lease steals = %d, want >= 2 (kill + stall)", rep.LeaseSteals)
	}
	if rep.FencedResumes != 1 {
		t.Fatalf("fenced resumes = %d, want 1", rep.FencedResumes)
	}
	if rep.RetryNS <= 0 {
		t.Fatalf("retry attribution = %d ns, want > 0 (two lease waits happened)", rep.RetryNS)
	}
	if rep.HealthyOpsDuringQuarantine == 0 {
		t.Fatal("no healthy ops observed during quarantine (vacuous run)")
	}
	if rep.MaxOpNS > rep.LeaseBudgetNS+leaseSlackNS() {
		t.Fatalf("max op %d ns exceeds budget+slack %d ns", rep.MaxOpNS, rep.LeaseBudgetNS+leaseSlackNS())
	}
	for _, c := range rep.Coffers {
		if c.Role == roleHealthy && c.Overall.AvailabilityPct != 100 {
			t.Fatalf("healthy coffer %s availability %.2f%%, want 100%%", c.Path, c.Overall.AvailabilityPct)
		}
	}
}

// TestCampaignDeterministic: the report is a pure function of the config —
// byte-identical JSON across runs (the BENCH reproducibility contract).
func TestCampaignDeterministic(t *testing.T) {
	cfg := Config{Seed: 11, Ops: 120}
	a, err := Run(cfg)
	if err != nil {
		t.Fatalf("run A: %v", err)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatalf("run B: %v", err)
	}
	ja, _ := json.Marshal(a)
	jb, _ := json.Marshal(b)
	if string(ja) != string(jb) {
		t.Fatalf("same seed, different reports:\nA: %s\nB: %s", ja, jb)
	}
}

// TestCampaignNoFaults: with every fault disabled the campaign is a plain
// multi-client workload — everything succeeds, nothing is quarantined.
func TestCampaignNoFaults(t *testing.T) {
	rep, err := Run(Config{Seed: 3, Ops: 80, Faults: []string{"none"}})
	if err != nil {
		t.Fatalf("campaign: %v", err)
	}
	if !rep.Passed() {
		for _, v := range rep.Violations {
			t.Errorf("violation %s: %s", v.Invariant, v.Detail)
		}
		t.Fatal("fault-free campaign violated invariants")
	}
	if rep.Quarantines.ReadOnly+rep.Quarantines.Offline != 0 {
		t.Fatalf("fault-free campaign quarantined: %+v", rep.Quarantines)
	}
	for _, c := range rep.Coffers {
		if c.Overall.Failed+c.Overall.CorrectlyFailed != 0 {
			t.Fatalf("coffer %s had failures in a fault-free run: %+v", c.Path, c.Overall)
		}
	}
}

// TestSeededViolationFails is the campaign's detection contract: ten ops end
// before the stalled holder's lease can expire, so its resume is not fenced,
// and the fence invariants must report it rather than pass the run.
func TestSeededViolationFails(t *testing.T) {
	rep, err := Run(Config{Seed: 1, Ops: 10})
	if err != nil {
		t.Fatalf("campaign: %v", err)
	}
	fence := false
	for _, v := range rep.Violations {
		fence = fence || v.Invariant == "fence_unexercised"
	}
	if rep.Passed() || !fence {
		t.Fatalf("a ten-op campaign passed its fence invariants: %d violations %+v", rep.ViolationCount, rep.Violations)
	}
}

// TestPlantedZeroedByteFails: the end-of-campaign check runs every invariant
// zofs.Check registers, so a byte planted before it in a page the allocation
// table flags zeroed (the device's last free page, never granted since mkfs)
// must fail the campaign as zeroed_pages_zero.
func TestPlantedZeroedByteFails(t *testing.T) {
	cfg := Config{Seed: 1}
	cfg.fill()
	e, err := setup(cfg)
	defer e.teardown()
	if err != nil {
		t.Fatalf("setup: %v", err)
	}
	e.drive()
	free := e.k.FreeExtents()
	e.dev.WriteNT(nil, (free[len(free)-1].End()-1)*nvm.PageSize, []byte{1})
	e.finish()
	zeroed := false
	for _, v := range e.rep.Violations {
		zeroed = zeroed || v.Invariant == "zeroed_pages_zero"
	}
	if e.rep.Passed() || !zeroed {
		t.Fatalf("a campaign passed over a flagged-zeroed page holding a byte: %d violations %+v",
			e.rep.ViolationCount, e.rep.Violations)
	}
}
