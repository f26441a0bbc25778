package crashmc

import (
	"bytes"
	"reflect"
	"testing"

	"zofs/internal/pmemtrace"
	"zofs/internal/vfs"
	"zofs/internal/zofs"
)

// TestGenWorkloadDeterministic: same seed, same script, and the script
// leaves files behind and uses every kind of op it is checked on.
func TestGenWorkloadDeterministic(t *testing.T) {
	a := GenWorkload(7, 40)
	b := GenWorkload(7, 40)
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if !reflect.DeepEqual(a[i], b[i]) {
			t.Fatalf("op %d differs: %v vs %v", i, a[i], b[i])
		}
	}
	if modelAfter(a, len(a)).Len() == 0 {
		t.Fatal("workload left no files")
	}
	kinds := map[vfs.OpKind]int{}
	for _, op := range a {
		kinds[op.Kind]++
	}
	for _, k := range []vfs.OpKind{vfs.OpCreate, vfs.OpWrite, vfs.OpFsync, vfs.OpRename} {
		if kinds[k] == 0 {
			t.Fatalf("40-op workload generated no %s ops (got %v)", k, kinds)
		}
	}
}

// TestExploreZoFSClean: a dense sweep over a ZoFS workload must violate
// nothing under any media model on either crash edge, and — ZoFS being
// all-NT — must never see a dirty cacheline.
func TestExploreZoFSClean(t *testing.T) {
	rep, err := Explore(Config{System: "ZoFS", Seed: 3, Ops: 20, Points: 12})
	if err != nil {
		t.Fatal(err)
	}
	if rep.States < 60 { // 12 points (some may dedup) x 2 edges x 3 models
		t.Fatalf("explored only %d states", rep.States)
	}
	for _, v := range rep.Violations {
		t.Errorf("violation: %s", v)
	}
	if rep.DirtyStates != 0 {
		t.Errorf("ZoFS had %d states with dirty lines at crash (all-NT discipline broken)", rep.DirtyStates)
	}
}

// TestExploreZoFSInlineClean covers the inline-data variant's distinct
// write path through the same sweep.
func TestExploreZoFSInlineClean(t *testing.T) {
	rep, err := Explore(Config{System: "ZoFS-inline", Seed: 5, Ops: 14, Points: 8})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range rep.Violations {
		t.Errorf("violation: %s", v)
	}
}

// TestExploreBaseline: Ext4-DAX caches data writes before flushing, so
// the before-edge states must expose dirty lines (the subset/torn models'
// reason to exist) while flushed blocks stay findable on the image.
func TestExploreBaseline(t *testing.T) {
	rep, err := Explore(Config{System: "Ext4-DAX", Seed: 3, Ops: 12, Points: 10})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range rep.Violations {
		t.Errorf("violation: %s", v)
	}
	if rep.DirtyStates == 0 {
		t.Error("Ext4-DAX sweep saw no dirty-at-crash states; the before edge is not biting")
	}
}

// TestExploreKeepsTheCallersRecorder: the campaign records each crash state
// into a recorder of its own and puts back the one it found, so a run that
// records its events keeps recording after the campaign.
func TestExploreKeepsTheCallersRecorder(t *testing.T) {
	defer pmemtrace.Install(pmemtrace.Active())
	caller := pmemtrace.Enable(pmemtrace.Config{})
	if _, err := Explore(Config{System: "Ext4-DAX", Seed: 3, Ops: 8, Points: 2}); err != nil {
		t.Fatal(err)
	}
	if got := pmemtrace.Active(); got != caller {
		t.Fatalf("after Explore the active recorder is %p, want the caller's %p", got, caller)
	}
}

// TestBitflipDetected: deliberate metadata corruption must be detected by
// recovery and survived gracefully (errors, not panics).
func TestBitflipDetected(t *testing.T) {
	rep, viols, err := RunFaults(Config{System: "ZoFS", Seed: 11, Ops: 16, Flips: 6}, "bitflip")
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range viols {
		t.Errorf("violation: %s", v)
	}
	if !rep.Detected {
		t.Error("injected corruption went undetected")
	}
	if rep.SurvivorPanics != 0 {
		t.Errorf("%d survivor panics", rep.SurvivorPanics)
	}
}

// TestLeaseCampaign: dead-holder leases are stolen when expired, respected
// while live, and cleared by recovery.
func TestLeaseCampaign(t *testing.T) {
	rep, viols, err := RunFaults(Config{System: "ZoFS", Seed: 11, Ops: 16}, "lease")
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range viols {
		t.Errorf("violation: %s", v)
	}
	if !rep.LeaseStolen || !rep.LiveLeaseRespected || rep.LeasesCleared == 0 {
		t.Errorf("lease assertions: stolen=%v respected=%v cleared=%d",
			rep.LeaseStolen, rep.LiveLeaseRespected, rep.LeasesCleared)
	}
}

// TestSlotlessCampaign: with every pool slot leased to live foreign
// holders, a doomed process serves itself slotless off volatile batch
// grants and dies with the grant tail unused. Recovery must reclaim
// exactly the stranded pages — no more, no less — and space accounting
// must reconcile on the recovered image.
func TestSlotlessCampaign(t *testing.T) {
	rep, viols, err := RunFaults(Config{System: "ZoFS", Seed: 11, Ops: 16}, "slotless")
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range viols {
		t.Errorf("violation: %s", v)
	}
	if rep.StrandedPages == 0 {
		t.Error("doomed process stranded no batch pages — slotless path not exercised")
	}
	if !rep.Detected {
		t.Errorf("recovery reclaimed %d pages, fewer than the %d stranded", rep.PagesReclaimed, rep.StrandedPages)
	}
	if rep.SurvivorErrors != 0 || rep.SurvivorPanics != 0 {
		t.Errorf("slotless service not graceful: %d errors, %d panics over %d ops",
			rep.SurvivorErrors, rep.SurvivorPanics, rep.SurvivorOps)
	}
}

// TestDetectsSeededCorruption proves the checker's teeth end to end: hand
// the explorer a crash state and then corrupt a completed file's data
// behind its back — the durability invariant must fire. This guards
// against the checker silently passing everything.
func TestDetectsSeededCorruption(t *testing.T) {
	p, err := lookup("ZoFS")
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{System: "ZoFS", Seed: 3, Ops: 16}
	cfg.fill()
	ops := GenWorkload(cfg.Seed, cfg.Ops)
	st, err := p.build(cfg.DeviceBytes)
	if err != nil {
		t.Fatal(err)
	}
	if res := runOps(st.fs, st.th, ops); res.err != nil || res.crashed {
		t.Fatalf("workload: err=%v crashed=%v", res.err, res.crashed)
	}
	m := modelAfter(ops, len(ops))
	var target string
	var data []byte
	for i := range m.Len() {
		path := m.Path(i)
		if c, _ := m.Data(path); len(c) > 64 && (target == "" || path < target) {
			target, data = path, c
		}
	}
	// Locate the file's first data block on the device by content and flip
	// a bit under it, then run the same post-crash checks a crash state
	// would run.
	blk := data[:min(4096, len(data))]
	dataPage := int64(-1)
	buf := make([]byte, len(blk))
	for pg := int64(0); pg < st.dev.Pages(); pg++ {
		st.dev.ReadNoCharge(pg*4096, buf)
		if bytes.Equal(buf, blk) {
			dataPage = pg
			break
		}
	}
	if dataPage < 0 {
		t.Fatalf("data block of %s not found on device", target)
	}
	zofs.FlipBit(st.dev, dataPage*4096+20, 3)

	var viols []Violation
	fail := func(invariant, detail string) {
		viols = append(viols, Violation{Invariant: invariant, Detail: detail})
	}
	rep := &Report{RepairsByKind: map[string]int64{}}
	checkZoFS(p, st.dev, ops, runResult{completed: len(ops), crashed: true},
		&pmemtrace.Report{}, fail, rep)
	found := false
	for _, v := range viols {
		if v.Invariant == "durability" {
			found = true
		}
	}
	if !found {
		t.Fatalf("checker missed seeded data corruption; violations: %v", viols)
	}
}
