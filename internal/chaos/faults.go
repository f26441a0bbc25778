package chaos

import (
	"errors"
	"fmt"

	"zofs/internal/mpk"
	"zofs/internal/nvm"
	"zofs/internal/vfs"
	"zofs/internal/zofs"
)

// buildSchedule places the enabled fault events at fixed fractions of the
// campaign, always after the seed-create prologue so every fault has a
// populated target. The schedule is part of the deterministic recipe: same
// Config, same events at the same op indexes.
func buildSchedule(cfg Config) map[int][]string {
	sched := map[int][]string{}
	seeds := 2 * cfg.Coffers
	at := func(frac float64) int {
		i := int(frac * float64(cfg.Ops))
		if i <= seeds {
			i = seeds + 1
		}
		if i >= cfg.Ops {
			i = cfg.Ops - 1
		}
		return i
	}
	add := func(kind string, frac float64) int {
		i := at(frac)
		sched[i] = append(sched[i], kind)
		return i
	}
	if cfg.enabled("kdelay") {
		add("kdelay", 0.10)
		add("kdelay", 0.70)
	}
	if cfg.enabled("kill") && cfg.Clients >= 2 {
		add("kill", 0.15)
	}
	if cfg.enabled("stall") && cfg.Clients >= 3 {
		i := add("stall", 0.25)
		r := i + 10
		if r >= cfg.Ops {
			r = cfg.Ops - 1
		}
		if r > i {
			sched[r] = append(sched[r], "resume")
		}
	}
	if cfg.enabled("stray") {
		add("stray", 0.40)
	}
	if cfg.enabled("corrupt") {
		add("corrupt", 0.55)
	}
	return sched
}

// inject fires one scheduled fault event.
func (e *engine) inject(kind string) {
	switch kind {
	case "kdelay":
		e.injectKDelay()
	case "kill":
		e.injectKill()
	case "stall":
		e.injectStall()
	case "resume":
		e.injectResume()
	case "stray":
		e.injectStray()
	case "corrupt":
		e.injectCorrupt()
	}
}

// injectKDelay stalls the next-scheduled client's kernel call by 5 ms of
// virtual time — the "slow trap" fault. The op itself must still complete
// correctly; the delay lands before the op's latency window opens so it
// does not trip the bounded-wait check (the kernel being slow is not a
// retry-policy failure).
func (e *engine) injectKDelay() {
	c := e.pick()
	if c == nil {
		return
	}
	c.th.Clk.Advance(kdelayNS)
	e.rep.Faults["kdelay"]++
}

// injectKill kills client 1 while it "holds" a write lease: the client is
// removed from scheduling forever and its lease residue is planted on a
// file in a healthy coffer, exactly what its sudden death mid-commit would
// leave on NVM. The forced follow-up write must wait the lease out and
// steal it with an epoch bump — the healthy coffer degrades (one bounded
// wait) but loses nothing.
func (e *engine) injectKill() {
	kc := e.clients[1]
	if kc.dead || e.alive() < 2 {
		return
	}
	hc := e.healthyCoffers()[0]
	name := hc.model.Path(0)
	fi, err := e.maint.lib.Stat(e.maint.th, name)
	if err != nil {
		e.violate("inject_kill", fmt.Sprintf("stat %s: %v", name, err))
		return
	}
	kc.dead = true
	expiry := e.maxClock() + zofs.LeaseDurationNS()
	zofs.PlantInodeLeaseEpoch(e.dev, fi.Inode, kc.th.TID, 0, expiry)
	e.forceWrite(hc, name)
	e.rep.Faults["kill"]++
}

// injectStall freezes a live client that holds a write lease on a healthy
// coffer's file: the lease word stays valid on NVM while the holder makes
// no progress. The forced follow-up write waits out the expiry and steals
// with an epoch bump; injectResume later thaws the holder and proves its
// stale commit is fenced.
func (e *engine) injectStall() {
	var sc *client
	for i := len(e.clients) - 1; i >= 0; i-- {
		if !e.clients[i].dead && !e.clients[i].stalled {
			sc = e.clients[i]
			break
		}
	}
	if sc == nil || e.alive() < 2 {
		return
	}
	hcs := e.healthyCoffers()
	hc := hcs[len(hcs)-1]
	name := hc.model.Path(hc.model.Len() - 1)
	fi, err := e.maint.lib.Stat(e.maint.th, name)
	if err != nil {
		e.violate("inject_stall", fmt.Sprintf("stat %s: %v", name, err))
		return
	}
	sc.stalled = true
	expiry := e.maxClock() + zofs.LeaseDurationNS()
	zofs.PlantInodeLeaseEpoch(e.dev, fi.Inode, sc.th.TID, 0, expiry)
	e.stall = &stallRec{c: sc, cof: hc, ino: fi.Inode, epoch: 0}
	e.forceWrite(hc, name)
	e.rep.Faults["stall"]++
}

// injectResume thaws the stalled holder and replays the commit it was
// frozen in the middle of, using the lease epoch it remembered. The steal
// bumped the epoch (and the stealer's unlock cleared the word), so the
// fence must reject the resume with vfs.ErrStaleLease — a resurrected
// stale holder cannot publish.
func (e *engine) injectResume() {
	st := e.stall
	if st == nil || st.done {
		return
	}
	st.done = true
	st.c.stalled = false
	err := e.resumeStale(st)
	if errors.Is(err, vfs.ErrIO) {
		// The holder's mapping went stale while it was frozen (the coffer
		// grew under it); a live process would page-fault, re-map and only
		// then reach the epoch fence. Model exactly that.
		st.c.lib.ZoFS().InvalidateAll()
		err = e.resumeStale(st)
	}
	if errors.Is(err, vfs.ErrStaleLease) {
		e.rep.FencedResumes++
	} else {
		e.violate("fence_leak", fmt.Sprintf("stale resume on %s ino %d returned %v, want ErrStaleLease",
			st.cof.path, st.ino, err))
	}
	e.rep.Faults["resume"]++
}

// resumeStale attempts the stale holder's commit replay, converting an MPK
// fault on its stale mappings into ErrIO the way the SIGSEGV handler would.
func (e *engine) resumeStale(st *stallRec) (err error) {
	defer func() {
		r := recover()
		if r == nil {
			return
		}
		if _, ok := r.(mpk.Violation); !ok {
			panic(r)
		}
		err = vfs.ErrIO
	}()
	return st.c.lib.ZoFS().ResumeStaleWrite(st.c.th, st.cof.id, st.ino, st.epoch)
}

// injectStray has the byzantine client fire raw stores at the read-only
// victim's pages from outside any MPK window. Every store must be blocked
// by the protection hardware (that is the paper's §6.5 claim); the kernel's
// fault handler attributes the faulting page to its coffer and, at the
// violation threshold, quarantines the coffer read-only.
func (e *engine) injectStray() {
	b := e.clients[0]
	if b.dead {
		for _, c := range e.clients {
			if !c.dead {
				b = c
				break
			}
		}
	}
	victim := e.byRole(roleVictimRO)
	exts := e.k.ExtentsOf(victim.id)
	if len(exts) == 0 {
		e.violate("inject_stray", fmt.Sprintf("%s has no extents", victim.path))
		return
	}
	base := exts[0].Start*nvm.PageSize + 64
	quarantined := false
	for i := 0; i < 8 && !quarantined; i++ {
		e.rep.Faults["stray"]++
		landed, q := e.strayStore(b, base+int64(i)*8)
		if landed {
			e.violate("stray_landed", fmt.Sprintf("raw store at %#x reached %s unblocked",
				base+int64(i)*8, victim.path))
			return
		}
		quarantined = q
	}
	if !quarantined {
		e.violate("quarantine_ro_missed",
			fmt.Sprintf("%s not quarantined after %d violations", victim.path, e.k.Violations(victim.id)))
		return
	}
	victim.readOnly = true
	e.quarActive = true
	e.rep.Quarantines.ReadOnly++
	// Probe: a process that never touched the victim must now see the
	// typed error on its first write attempt.
	probe := victim.path + "/__probe"
	if _, err := e.maint.lib.Create(e.maint.th, probe, 0o600); !errors.Is(err, vfs.ErrReadOnlyCoffer) {
		e.violate("quarantine_ro_probe",
			fmt.Sprintf("create %s returned %v, want ErrReadOnlyCoffer", probe, err))
	}
}

// strayStore performs one wild store and mirrors the kernel's SIGSEGV
// handler: the MPK violation is caught, the faulting page attributed to its
// coffer, and the violation reported. landed is true if the store was NOT
// blocked (a protection failure); quarantined is true when this report
// tripped the threshold.
func (e *engine) strayStore(b *client, off int64) (landed, quarantined bool) {
	defer func() {
		r := recover()
		if r == nil {
			return
		}
		v, ok := r.(mpk.Violation)
		if !ok {
			panic(r)
		}
		if id, ok := e.k.OwnerOf(v.Page); ok {
			quarantined, _ = e.k.ReportViolation(b.th, id)
		}
	}()
	b.th.Store64(off, 0xDEADBEEFDEADBEEF)
	return true, false
}

// injectCorrupt flips bits in the offline-victim's root directory inode —
// media damage, not a cached store — then runs the operator fsck path:
// recovery finds the root destroyed (unrepairable damage) and the coffer is
// quarantined offline. Every other coffer must keep serving.
func (e *engine) injectCorrupt() {
	victim := e.byRole(roleVictimOff)
	fi, err := e.maint.lib.Stat(e.maint.th, victim.path)
	if err != nil {
		e.violate("inject_corrupt", fmt.Sprintf("stat %s: %v", victim.path, err))
		return
	}
	for i, bit := range []uint{1, 3, 6} {
		zofs.FlipBit(e.dev, fi.Inode*nvm.PageSize+int64(i), bit)
	}
	e.rep.Faults["corrupt"]++
	_, quarantined, err := e.maint.lib.ZoFS().QuarantineIfDamaged(e.maint.th, victim.id)
	if err != nil {
		e.violate("quarantine_off_err", fmt.Sprintf("%s: %v", victim.path, err))
		return
	}
	if !quarantined {
		e.violate("quarantine_off_missed", fmt.Sprintf("%s damage not classified unrepairable", victim.path))
		return
	}
	victim.offline = true
	e.quarActive = true
	e.rep.Quarantines.Offline++
}
