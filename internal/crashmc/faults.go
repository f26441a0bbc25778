package crashmc

import (
	"fmt"
	"math/rand"
	"slices"

	"zofs/internal/fslibs"
	"zofs/internal/kernfs"
	"zofs/internal/nvm"
	"zofs/internal/pmemtrace"
	"zofs/internal/proc"
	"zofs/internal/vfs"
	"zofs/internal/zofs"
)

// FaultReport summarizes one injected-fault campaign. Unlike the crash
// exploration — whose workload never misbehaves — injected faults are
// EXPECTED to make survivors see errors; the invariants here are about
// degradation shape: errors instead of panics, detection by recovery, and
// a usable file system afterwards.
type FaultReport struct {
	Mode  string `json:"mode"` // bitflip | lease | slotless
	Flips int    `json:"flips,omitempty"`

	// Survivor behavior while the damage is live.
	SurvivorOps    int `json:"survivor_ops"`
	SurvivorErrors int `json:"survivor_errors"`
	SurvivorPanics int `json:"survivor_panics"` // must stay 0

	// Recovery behavior.
	Detected      bool `json:"detected"` // fsck found and repaired the damage
	Repairs       int  `json:"repairs"`
	LeasesCleared int  `json:"leases_cleared"`

	// Lease-campaign assertions.
	LeaseStolen        bool `json:"lease_stolen,omitempty"`
	LiveLeaseRespected bool `json:"live_lease_respected,omitempty"`

	// Slotless-campaign accounting.
	StrandedPages  int64 `json:"stranded_pages,omitempty"`  // doomed process's cached batch at crash
	PagesReclaimed int64 `json:"pages_reclaimed,omitempty"` // recovery's reclaim across all coffers
}

// RunFaults executes one injected-fault campaign ("bitflip", "lease" or
// "slotless") against a ZoFS system and returns the campaign report plus any
// violated degradation invariants. Every campaign starts from the same place:
// a fresh stack the seeded workload ran on, and the model of the tree it
// left.
func RunFaults(cfg Config, mode string) (*FaultReport, []Violation, error) {
	cfg.fill()
	run := map[string]func(*campaign) error{"bitflip": runBitflip, "lease": runLease, "slotless": runSlotless}[mode]
	if run == nil {
		return nil, nil, fmt.Errorf("crashmc: unknown fault mode %q (have bitflip, lease, slotless)", mode)
	}
	st, err := build(cfg)
	if err != nil {
		return nil, nil, err
	}
	f, ok := st.FS.(*zofs.FS)
	if !ok {
		return nil, nil, fmt.Errorf("crashmc: fault campaigns need a ZoFS system, not %s", cfg.System)
	}
	ops := GenWorkload(cfg.Seed, cfg.Ops)
	if res := runOps(st.fs, st.th, ops); res.err != nil || res.crashed {
		return nil, nil, fmt.Errorf("crashmc: %s setup workload: err=%v crashed=%v", mode, res.err, res.crashed)
	}
	c := &campaign{setup: f, cfg: cfg, st: st, m: modelAfter(ops, len(ops)), rep: &FaultReport{Mode: mode}}
	err = run(c)
	return c.rep, c.viols, err
}

// campaign is one fault campaign in progress.
type campaign struct {
	setup *zofs.FS // the µFS the seeded workload ran on
	cfg   Config
	st    *stack     // the stack the seeded workload ran on
	m     *vfs.Model // the tree the workload left
	rep   *FaultReport
	viols []Violation
}

// fail records a violated degradation invariant.
func (c *campaign) fail(invariant, detail string) {
	c.viols = append(c.viols, Violation{Model: Model(c.rep.Mode), Invariant: invariant, Detail: detail})
}

// runBitflip corrupts metadata bits in live inode pages, then asserts the
// two halves of graceful degradation: survivors driving the damaged image
// through FSLibs get errors — never panics — and offline recovery detects
// and repairs the corruption, converging to a usable file system.
func runBitflip(c *campaign) error {
	cfg, st, m, rep, fail := c.cfg, c.st, c.m, c.rep, c.fail
	rep.Flips = cfg.Flips
	paths := make([]string, m.Len())
	for i := range paths {
		paths[i] = m.Path(i)
	}
	slices.Sort(paths)

	// Collect the live inode pages (magic-tagged metadata) across every
	// coffer; those are the flip targets.
	var inodePages []int64
	for _, id := range st.Kern.Coffers() {
		for _, e := range st.Kern.ExtentsOf(id) {
			for pg := e.Start; pg < e.End(); pg++ {
				if pg != int64(id) && zofs.IsInodePage(st.Dev, pg) {
					inodePages = append(inodePages, pg)
				}
			}
		}
	}
	if len(inodePages) == 0 {
		return fmt.Errorf("crashmc: no inode pages found to corrupt")
	}
	slices.Sort(inodePages)

	// Flip bits in inode headers. The first flip lands in the magic word
	// of a file the workload actually references, guaranteeing damage the
	// fsck traversal must detect; the rest hit seeded header offsets.
	rng := rand.New(rand.NewSource(cfg.Seed))
	fi, err := st.fs.Stat(st.th, paths[0])
	if err != nil {
		return err
	}
	zofs.FlipBit(st.Dev, fi.Inode*int64(pmemtrace.PageSize), uint(rng.Intn(8)))
	for i := 1; i < cfg.Flips; i++ {
		pg := inodePages[rng.Intn(len(inodePages))]
		off := int64(rng.Intn(zofs.InodeHeaderLen))
		zofs.FlipBit(st.Dev, pg*int64(pmemtrace.PageSize)+off, uint(rng.Intn(8)))
	}

	// Survivors: a fresh process drives the damaged image through FSLibs,
	// whose guard layer must turn MPK/media faults into errors.
	th2 := proc.NewProcess(st.Dev, 0, 0).NewThread()
	lib, err := fslibs.Mount(st.Kern, th2, fslibs.Options{})
	if err != nil {
		return err
	}
	for _, path := range paths {
		rep.SurvivorOps++
		func() {
			defer func() {
				if r := recover(); r != nil {
					rep.SurvivorPanics++
					fail("graceful", fmt.Sprintf("survivor panicked reading %s: %v", path, r))
				}
			}()
			fd, err := lib.Open(th2, path, vfs.O_RDONLY, 0)
			if err != nil {
				rep.SurvivorErrors++
				return
			}
			defer lib.Close(th2, fd)
			if _, err := lib.Pread(th2, fd, make([]byte, 4096), 0); err != nil {
				rep.SurvivorErrors++
			}
		}()
	}

	// Detection: offline recovery over the corrupt image must find it.
	k2, th3, walked, err := recoverImage(st.Dev, rep, fail)
	if err != nil || !walked {
		return err
	}
	rep.Detected = rep.Repairs > 0
	if !rep.Detected {
		fail("detection", fmt.Sprintf("%d injected bit flips produced zero fsck repairs", cfg.Flips))
	}
	if err := fixpoint(k2, th3); err != nil {
		fail("fsck_fixpoint", err.Error())
	}
	// The repaired file system must accept new work.
	guarded(fail, "usability", func() { usable(zofs.New(k2, c.setup.Options()), th3) })
	return nil
}

// recoverImage remounts dev as after a crash and runs zofs.Check over it,
// adding what recovery repaired, cleared and reclaimed to rep. A coffer it
// could not walk fails detection, and walked is false; every other finding it
// left unrepaired fails its own invariant.
func recoverImage(dev *nvm.Device, rep *FaultReport, fail func(string, string)) (k *kernfs.KernFS, th *proc.Thread, walked bool, err error) {
	if k, th, err = remount(dev); err != nil {
		return nil, nil, false, err
	}
	found := zofs.Check(k, th)
	for _, c := range found.Coffers {
		rep.Repairs += len(c.Repairs)
		rep.LeasesCleared += c.LeasesCleared
		rep.PagesReclaimed += c.PagesReclaimed
	}
	return k, th, failFindings(found, "detection", fail), nil
}

// runLease models dead lease holders (§5.2): a process dies holding an
// allocator pool-slot lease and an inode lease. Survivors must steal the
// expired slot lease via CAS and keep respecting a live foreign one, and
// recovery must clear whatever leases remain.
func runLease(c *campaign) error {
	st, m, rep, fail := c.st, c.m, c.rep, c.fail
	victim := m.Path(0)
	for i := range m.Len() {
		victim = min(victim, m.Path(i))
	}
	rp, ok := st.Kern.Info(st.Kern.RootCoffer())
	if !ok {
		return fmt.Errorf("crashmc: root coffer has no info")
	}
	now := st.th.Clk.Now()

	// The "dead" process: an expired lease on slot 0 (stealable), a live
	// foreign lease on slot 1 (must be respected), and an inode lease on a
	// workload file (recovery must clear it).
	const deadTID = 4093
	zofs.PlantSlotLease(st.Dev, rp.Custom, 0, deadTID, 1)
	liveExpiry := now + 1_000_000_000_000 // far beyond any survivor's clock
	zofs.PlantSlotLease(st.Dev, rp.Custom, 1, deadTID+1, liveExpiry)
	vfi, err := st.fs.Stat(st.th, victim)
	if err != nil {
		return err
	}
	zofs.PlantInodeLease(st.Dev, vfi.Inode, deadTID, liveExpiry)

	// Survivor: a fresh process allocates; claiming walks the pool in slot
	// order, so it must steal the expired slot 0 and skip live slot 1.
	th2 := proc.NewProcess(st.Dev, 0, 0).NewThread()
	if err := st.Kern.FSMount(th2); err != nil {
		return err
	}
	f2 := zofs.New(st.Kern, c.setup.Options())
	for i := 0; i < 4; i++ {
		rep.SurvivorOps++
		h, err := f2.Create(th2, fmt.Sprintf("/lease%d", i), 0o644)
		if err != nil {
			rep.SurvivorErrors++
			fail("graceful", fmt.Sprintf("survivor create %d failed under dead leases: %v", i, err))
			continue
		}
		if _, err := h.WriteAt(th2, payload(uint32(i), 5000), 0); err != nil {
			rep.SurvivorErrors++
			fail("graceful", fmt.Sprintf("survivor write %d failed under dead leases: %v", i, err))
		}
		h.Close(th2)
	}
	if tid, _ := zofs.SlotLease(st.Dev, rp.Custom, 0); tid == th2.TID&0xffff {
		rep.LeaseStolen = true
	} else {
		fail("lease_steal", fmt.Sprintf("expired slot 0 lease not stolen by survivor tid %d (held by %d)",
			th2.TID&0xffff, tid))
	}
	if tid, expiry := zofs.SlotLease(st.Dev, rp.Custom, 1); tid == deadTID+1 && expiry == liveExpiry {
		rep.LiveLeaseRespected = true
	} else {
		fail("lease_respect", fmt.Sprintf("live foreign lease on slot 1 was overwritten (tid=%d expiry=%d)",
			tid, expiry))
	}

	// Recovery over the image clears every remaining lease, including the
	// dead holder's inode lease.
	if _, _, walked, err := recoverImage(st.Dev, rep, fail); err != nil || !walked {
		return err
	}
	rep.Detected = rep.LeasesCleared > 0
	if rep.LeasesCleared == 0 {
		fail("lease_clear", "recovery cleared no leases despite planted dead holders")
	}
	if tid, expiry := zofs.InodeLease(st.Dev, vfi.Inode); tid != 0 || expiry != 0 {
		fail("lease_clear", fmt.Sprintf("dead holder's inode lease survived recovery (tid=%d expiry=%d)", tid, expiry))
	}
	for slot := 0; slot < zofs.PoolSlots(); slot++ {
		if tid, expiry := zofs.SlotLease(st.Dev, rp.Custom, slot); tid != 0 || expiry != 0 {
			fail("lease_clear", fmt.Sprintf("slot %d lease survived recovery (tid=%d expiry=%d)", slot, tid, expiry))
			break
		}
	}
	return nil
}

// runSlotless exercises the allocator's slotless fallback (§5.2) dying at
// its worst moment. Every pool slot is first leased to a live foreign
// holder, so a fresh "doomed" process must allocate slotless: straight from
// a volatile batch cache refilled by whole kernel grants, never touching a
// slot. The doomed process then crashes with the tail of its last grant
// unconsumed — those pages are tagged to the coffer in the kernel's
// persistent allocation table but referenced by nothing on NVM, the exact
// window between slotless grant and first use. Recovery's in-use traversal
// must hand every stranded page back to the kernel while keeping every page
// the doomed process did publish, and the three-way space accounting must
// reconcile afterwards (space_conserved).
func runSlotless(c *campaign) error {
	st, m, rep, fail := c.st, c.m, c.rep, c.fail
	root := st.Kern.RootCoffer()
	rp, ok := st.Kern.Info(root)
	if !ok {
		return fmt.Errorf("crashmc: root coffer has no info")
	}

	// Exhaust the pool: every slot leased to a distinct live foreign holder
	// far beyond any survivor's clock. The doomed process has no slot to
	// claim or steal — slotFor must fail ErrNoSpace and alloc go slotless.
	const foreignBase = 4001
	liveExpiry := st.th.Clk.Now() + 1_000_000_000_000
	for slot := 0; slot < zofs.PoolSlots(); slot++ {
		zofs.PlantSlotLease(st.Dev, rp.Custom, slot, foreignBase+slot, liveExpiry)
	}

	// Doomed process: created files must succeed with zero free slots —
	// slotless service is graceful degradation, not an error path.
	th2 := proc.NewProcess(st.Dev, 0, 0).NewThread()
	if err := st.Kern.FSMount(th2); err != nil {
		return err
	}
	f2 := zofs.New(st.Kern, c.setup.Options())
	for i := 0; i < 4; i++ {
		rep.SurvivorOps++
		path := fmt.Sprintf("/slotless%d", i)
		data := payload(uint32(100+i), 9000)
		func() {
			defer func() {
				if r := recover(); r != nil {
					rep.SurvivorPanics++
					fail("graceful", fmt.Sprintf("doomed create %s panicked: %v", path, r))
				}
			}()
			h, err := f2.Create(th2, path, fileMode)
			if err != nil {
				rep.SurvivorErrors++
				fail("graceful", fmt.Sprintf("slotless create %s: %v", path, err))
				return
			}
			m.Create(path, fileMode)
			if _, err := h.WriteAt(th2, data, 0); err != nil {
				rep.SurvivorErrors++
				fail("graceful", fmt.Sprintf("slotless write %s: %v", path, err))
			} else {
				m.Write(path, data, 0)
			}
			h.Close(th2)
		}()
	}

	// The fallback must not have touched the pool: every slot still carries
	// the planted foreign lease, untouched by the doomed thread.
	for slot := 0; slot < zofs.PoolSlots(); slot++ {
		if tid, _ := zofs.SlotLease(st.Dev, rp.Custom, slot); tid != foreignBase+slot {
			fail("slotless_bypass", fmt.Sprintf(
				"slot %d lease changed to tid %d: doomed thread claimed a slot instead of going slotless", slot, tid))
			break
		}
	}

	// Crash accounting, taken the instant before the simulated death: the
	// unconsumed tail of the doomed process's kernel grants lives only in
	// its DRAM batch caches.
	strandedDoomed, strandedSetup, freeListed := int64(0), int64(0), int64(0)
	for _, cs := range f2.SpaceReport() {
		strandedDoomed += cs.Cached
		freeListed += cs.FreeListed
	}
	for _, cs := range c.setup.SpaceReport() {
		strandedSetup += cs.Cached
	}
	rep.StrandedPages = strandedDoomed
	if strandedDoomed == 0 {
		fail("slotless_setup", "doomed process crashed with no stranded batch pages — the campaign tested nothing")
	}
	freeAtCrash := st.Kern.FreePages()

	// The crash: both processes die (their caches evaporate), the machine
	// reboots, and offline recovery walks every coffer. Every invariant
	// zofs.Check registers must hold on the recovered image: space_conserved's
	// three-way reconciliation (allocation table vs extent sets vs page
	// census) included.
	k2, th3, walked, err := recoverImage(st.Dev, rep, fail)
	if err != nil || !walked {
		return err
	}
	rep.Detected = rep.PagesReclaimed >= strandedDoomed

	// Exact reclaim: what recovery hands back is precisely the pages no
	// inode references — both processes' stranded caches plus the persistent
	// free-list chains it resets. One page more means data loss, one page
	// less means a leak.
	want := strandedDoomed + strandedSetup + freeListed
	if rep.PagesReclaimed != want {
		fail("reclaim_exact", fmt.Sprintf(
			"recovery reclaimed %d pages, want %d (doomed cache %d + setup cache %d + free-listed %d)",
			rep.PagesReclaimed, want, strandedDoomed, strandedSetup, freeListed))
	}
	if free := k2.FreePages(); free != freeAtCrash+rep.PagesReclaimed {
		fail("free_conserved", fmt.Sprintf(
			"kernel free pages %d after recovery, want %d (%d at crash + %d reclaimed)",
			free, freeAtCrash+rep.PagesReclaimed, freeAtCrash, rep.PagesReclaimed))
	}

	// Durability: reclaiming the stranded tail must not have swallowed any
	// published page — neither the setup workload's files nor the pages the
	// doomed process consumed from its grants before dying.
	guarded(fail, "durability", func() {
		if err := m.Check(zofs.New(k2, c.setup.Options()), th3, nil); err != nil {
			panic(err.Error())
		}
	})
	return nil
}
