package zofs

import (
	"fmt"
	"testing"

	"zofs/internal/kernfs"
	"zofs/internal/nvm"
	"zofs/internal/pmemtrace"
	"zofs/internal/proc"
	"zofs/internal/vfs"
)

// remountFsck mounts a fresh kernel over a crashed device, runs offline
// recovery on every coffer and returns the repairs in auditor coordinates.
func remountFsck(t *testing.T, dev *nvm.Device) []pmemtrace.RepairSite {
	t.Helper()
	k, err := kernfs.Mount(dev)
	if err != nil {
		t.Fatalf("remount after crash: %v", err)
	}
	th := proc.NewProcess(dev, 0, 0).NewThread()
	if err := k.FSMount(th); err != nil {
		t.Fatal(err)
	}
	rep := Check(k, th)
	if err := rep.Err(); err != nil {
		t.Fatalf("fsck: %v", err)
	}
	var repairs []pmemtrace.RepairSite
	for _, st := range rep.Coffers {
		for _, rp := range st.Repairs {
			repairs = append(repairs, pmemtrace.RepairSite{Off: rp.Off, Target: rp.Target, Kind: rp.Kind})
		}
	}
	return repairs
}

// TestAuditorFlagsSkippedFlush injects the classic persistence bug — an
// inode header written through the write-back cache with no flush before
// the dentry commit makes it reachable — and checks that the auditor
// pinpoints exactly that line, that fsck independently finds the resulting
// dangling dentry, and that the two reports cross-check.
func TestAuditorFlagsSkippedFlush(t *testing.T) {
	rec := pmemtrace.Enable(pmemtrace.Config{RingCap: 1 << 18})
	defer pmemtrace.Disable()
	dev, _, f, th := newTestFS(t, Options{})
	if _, err := f.Create(th, "/healthy", 0o644); err != nil {
		t.Fatal(err)
	}

	// Build a file exactly as Create does, except the inode header is a
	// cached store that is never flushed (ZoFS itself uses th.WriteNT here).
	pos, err := f.walk(th, "/", false, true)
	if err != nil {
		t.Fatal(err)
	}
	pg, err := f.allocPage(th, pos.m, classMeta)
	if err != nil {
		t.Fatal(err)
	}
	hdr := make([]byte, inoHeaderLen)
	putU32(hdr, inoMagicOff, inoMagic)
	putU32(hdr, inoTypeOff, uint32(vfs.TypeRegular))
	putU32(hdr, inoModeOff, 0o644)
	putU32(hdr, inoNlinkOff, 1)
	th.Write(pg*pageSize, hdr) // the bug: missing Flush+Fence
	if err := f.dirInsert(th, pos.m, pos.ino, "victim", uint8(vfs.TypeRegular), 0, pg); err != nil {
		t.Fatal(err)
	}
	pos.close()

	dev.Crash()
	ResetShared(dev)

	rep := pmemtrace.Audit(rec.Events(), nil)
	if len(rep.LostLines) != 1 {
		t.Fatalf("auditor reported %d lost lines, want exactly 1: %+v", len(rep.LostLines), rep.LostLines)
	}
	if got := rep.LostLines[0].Line; got != pg*pageSize {
		t.Fatalf("lost line at %#x, want the victim header line %#x", got, pg*pageSize)
	}

	repairs := remountFsck(t, dev)
	found := false
	for _, rp := range repairs {
		if rp.Kind == "dangling_dentry" && rp.Target == pg {
			found = true
		}
	}
	if !found {
		t.Fatalf("fsck repairs %+v lack a dangling_dentry targeting page %d", repairs, pg)
	}
	if dis := pmemtrace.CrossCheck(rep, repairs); len(dis) != 0 {
		t.Fatalf("auditor and fsck disagree: %v", dis)
	}
	// Had the recorder missed the hazard, the cross-check must flag the
	// repairs as unexplained.
	if dis := pmemtrace.CrossCheck(&pmemtrace.Report{}, repairs); len(dis) == 0 {
		t.Fatal("cross-check failed to flag repairs against an empty lost-line report")
	}
}

// TestFailAfterSweepAuditMatchesDevice drives injected crashes through the
// real stack and checks the auditor's replayed dirty state against the
// device's own persistence tracking at every crash point: ZoFS persists
// everything with non-temporal stores, so both must agree on zero dirty
// lines, and fsck's repairs must never contradict the (empty) lost set.
func TestFailAfterSweepAuditMatchesDevice(t *testing.T) {
	rec := pmemtrace.Enable(pmemtrace.Config{RingCap: 1 << 18})
	defer pmemtrace.Disable()
	dev, _, f, th := newTestFS(t, Options{})
	sweeps := []int64{5, 17, 43}
	for _, failAt := range sweeps {
		dev.FailAfter(failAt)
		func() {
			defer func() {
				if r := recover(); r != nil && !nvm.IsInjectedCrash(r) {
					panic(r)
				}
			}()
			for i := 0; i < 100; i++ {
				f.Create(th, fmt.Sprintf("/crash-%d-%d", failAt, i), 0o644)
			}
		}()
		dev.FailAfter(0)
		if dirty := dev.DirtyLines(); dirty != 0 {
			t.Fatalf("failAt=%d: device reports %d dirty lines before crash; ZoFS must persist via NT stores only", failAt, dirty)
		}
		dev.Crash()
		ResetShared(dev)

		rep := pmemtrace.Audit(rec.Events(), nil)
		if len(rep.LostLines) != 0 {
			t.Fatalf("failAt=%d: auditor reported lost lines for an all-NT stack: %+v", failAt, rep.LostLines)
		}
		if rep.Injected == 0 || rep.Crashes == 0 {
			t.Fatalf("failAt=%d: crash markers missing from the stream (injected %d, crashes %d)", failAt, rep.Injected, rep.Crashes)
		}
		repairs := remountFsck(t, dev)
		if dis := pmemtrace.CrossCheck(rep, repairs); len(dis) != 0 {
			t.Fatalf("failAt=%d: auditor and fsck disagree: %v", failAt, dis)
		}

		// Continue on the recovered image with fresh volatile state.
		k2, err := kernfs.Mount(dev)
		if err != nil {
			t.Fatal(err)
		}
		th = proc.NewProcess(dev, 0, 0).NewThread()
		if err := k2.FSMount(th); err != nil {
			t.Fatal(err)
		}
		f = New(k2, Options{})
	}
}
