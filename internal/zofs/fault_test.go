package zofs

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"zofs/internal/kernfs"
	"zofs/internal/nvm"
	"zofs/internal/proc"
	"zofs/internal/vfs"
)

// TestAllocatorLeaseStealAfterExpiry covers the §5.2 lease-steal path: a
// holder thread "dies" mid-allocation (its pool slot lease word stays on
// NVM), virtual time passes the expiry, and a thread of a second process
// steals the slot with CAS64 instead of hanging or exhausting the pool.
func TestAllocatorLeaseStealAfterExpiry(t *testing.T) {
	dev, k, f, th := newTestFS(t, Options{})
	if _, err := f.Create(th, "/seed", 0o644); err != nil {
		t.Fatal(err)
	}
	pos, err := f.walk(th, "/", false, true)
	if err != nil {
		t.Fatal(err)
	}
	custom := pos.m.custom
	pos.close()

	tid0, expiry0 := SlotLease(dev, custom, 0)
	if tid0 != th.TID&0xffff || expiry0 == 0 {
		t.Fatalf("slot 0 should hold the creator's lease, got tid=%d expiry=%d", tid0, expiry0)
	}

	// The holder dies without unlocking: nothing on NVM changes. A second
	// process arrives after the lease window has passed.
	th2 := proc.NewProcess(dev, 0, 0).NewThread()
	if err := k.FSMount(th2); err != nil {
		t.Fatal(err)
	}
	th2.Clk.Advance(expiry0 - th2.Clk.Now() + 1)
	f2 := New(k, Options{})
	if _, err := f2.Create(th2, "/steal", 0o644); err != nil {
		t.Fatalf("create through expired slot: %v", err)
	}
	tid, expiry := SlotLease(dev, custom, 0)
	if tid != th2.TID&0xffff {
		t.Fatalf("slot 0 lease should be stolen by tid %d, held by tid %d", th2.TID&0xffff, tid)
	}
	if expiry <= th2.Clk.Now()-leaseDuration {
		t.Fatalf("stolen lease expiry %d not renewed past acquisition", expiry)
	}

	// Before expiry the same steal must NOT happen: plant a live foreign
	// lease on a free slot and check claimSlot skips it.
	PlantSlotLease(dev, custom, 10, 4093, th2.Clk.Now()+10*leaseDuration)
	pos2, err := f2.walk(th2, "/", false, true)
	if err != nil {
		t.Fatal(err)
	}
	if idx, err := f2.claimSlot(th2, pos2.m, classMeta); err != nil {
		t.Fatalf("claimSlot: %v", err)
	} else if idx == 10 {
		t.Fatal("claimSlot stole a live foreign lease")
	}
	pos2.close()
}

// TestCrashMidAllocationClearsSlots crashes a thread in the middle of
// create/write bursts (leaving claimed slot leases and free-list heads on
// NVM), then checks recovery resets the whole pool and the file system is
// allocatable again.
func TestCrashMidAllocationClearsSlots(t *testing.T) {
	dev, _, f, th := newTestFS(t, Options{})
	dev.FailAfter(25)
	func() {
		defer func() {
			if r := recover(); r != nil && !nvm.IsInjectedCrash(r) {
				panic(r)
			}
		}()
		for i := 0; ; i++ {
			h, err := f.Create(th, fmt.Sprintf("/burst%d", i), 0o644)
			if err == nil {
				h.WriteAt(th, make([]byte, 5000), 0)
				h.Close(th)
			}
		}
	}()
	dev.FailAfter(0)
	dev.Crash()
	dev.DropVolatile()

	k2, err := kernfs.Mount(dev)
	if err != nil {
		t.Fatal(err)
	}
	th2 := proc.NewProcess(dev, 0, 0).NewThread()
	if err := k2.FSMount(th2); err != nil {
		t.Fatal(err)
	}
	if err := Check(k2, th2).Err(); err != nil {
		t.Fatal(err)
	}
	rp, _ := k2.Info(k2.RootCoffer())
	for slot := 0; slot < PoolSlots(); slot++ {
		if tid, expiry := SlotLease(dev, rp.Custom, slot); tid != 0 || expiry != 0 {
			t.Fatalf("slot %d lease survived recovery: tid=%d expiry=%d", slot, tid, expiry)
		}
	}
	f2 := New(k2, Options{})
	h, err := f2.Create(th2, "/after", 0o644)
	if err != nil {
		t.Fatalf("post-recovery create: %v", err)
	}
	if _, err := h.WriteAt(th2, make([]byte, 3*pageSize), 0); err != nil {
		t.Fatalf("post-recovery write: %v", err)
	}
	h.Close(th2)
}

// TestRecoveryClearsDeadInodeLease plants a dead holder's lease word on a
// file inode and checks recovery clears it (LeasesCleared) and the file
// stays fully usable.
func TestRecoveryClearsDeadInodeLease(t *testing.T) {
	dev, _, f, th := newTestFS(t, Options{})
	h, err := f.Create(th, "/victim", 0o644)
	if err != nil {
		t.Fatal(err)
	}
	h.WriteAt(th, []byte("payload"), 0)
	h.Close(th)
	fi, err := f.Stat(th, "/victim")
	if err != nil {
		t.Fatal(err)
	}
	PlantInodeLease(dev, fi.Inode, 4093, th.Clk.Now()+10*leaseDuration)
	dev.DropVolatile()

	k2, err := kernfs.Mount(dev)
	if err != nil {
		t.Fatal(err)
	}
	th2 := proc.NewProcess(dev, 0, 0).NewThread()
	if err := k2.FSMount(th2); err != nil {
		t.Fatal(err)
	}
	rep := Check(k2, th2)
	if err := rep.Err(); err != nil {
		t.Fatal(err)
	}
	cleared := 0
	for _, st := range rep.Coffers {
		cleared += st.LeasesCleared
	}
	if cleared == 0 {
		t.Fatal("recovery cleared no leases despite a planted dead holder")
	}
	if tid, expiry := InodeLease(dev, fi.Inode); tid != 0 || expiry != 0 {
		t.Fatalf("inode lease survived recovery: tid=%d expiry=%d", tid, expiry)
	}
	f2 := New(k2, Options{})
	h2, err := f2.Open(th2, "/victim", vfs.O_RDWR)
	if err != nil {
		t.Fatalf("post-recovery open: %v", err)
	}
	buf := make([]byte, 7)
	if n, err := h2.ReadAt(th2, buf, 0); err != nil || string(buf[:n]) != "payload" {
		t.Fatalf("post-recovery read: n=%d err=%v buf=%q", n, err, buf)
	}
	h2.Close(th2)
}

// TestRecoveryClearsStaleBlockPointers: a crash between a block pointer's
// publish and the size commit used to leave the pointer aimed at a page
// recovery reclaims; a later in-place write through it would alias
// re-granted pages (MPK violation at best, cross-file corruption at
// worst). Sweep injected crashes across an extending write and require the
// file to accept appends after fsck at every crash point.
func TestRecoveryClearsStaleBlockPointers(t *testing.T) {
	for failAt := int64(1); failAt <= 24; failAt++ {
		dev, _, f, th := newTestFS(t, Options{})
		h, err := f.Create(th, "/grow", 0o644)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := h.WriteAt(th, make([]byte, pageSize), 0); err != nil {
			t.Fatal(err)
		}
		h.Close(th)

		dev.FailAfter(failAt)
		completed := false
		func() {
			defer func() {
				if r := recover(); r != nil && !nvm.IsInjectedCrash(r) {
					panic(r)
				}
			}()
			h, err := f.Open(th, "/grow", vfs.O_RDWR)
			if err != nil {
				t.Fatal(err)
			}
			h.WriteAt(th, make([]byte, 3*pageSize), pageSize)
			h.Close(th)
			completed = true
		}()
		dev.FailAfter(0)
		if completed {
			return // swept past the whole operation
		}
		dev.Crash()
		dev.DropVolatile()

		k2, err := kernfs.Mount(dev)
		if err != nil {
			t.Fatalf("failAt=%d: remount: %v", failAt, err)
		}
		th2 := proc.NewProcess(dev, 0, 0).NewThread()
		if err := k2.FSMount(th2); err != nil {
			t.Fatal(err)
		}
		if err := Check(k2, th2).Err(); err != nil {
			t.Fatalf("failAt=%d: fsck: %v", failAt, err)
		}
		f2 := New(k2, Options{})
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("failAt=%d: post-recovery append panicked: %v", failAt, r)
				}
			}()
			h2, err := f2.Open(th2, "/grow", vfs.O_RDWR)
			if err != nil {
				t.Fatalf("failAt=%d: post-recovery open: %v", failAt, err)
			}
			fi, err := h2.Stat(th2)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := h2.WriteAt(th2, []byte("appended"), fi.Size); err != nil {
				t.Fatalf("failAt=%d: post-recovery append at %d: %v", failAt, fi.Size, err)
			}
			h2.Close(th2)
		}()
	}
	t.Fatal("sweep never completed the write; raise the failAt ceiling")
}

// TestRedirectDentryInAChainPage: RedirectDentry walks a directory's real
// geometry, so it finds a dentry that overflowed a second-level page's inline
// slots into a bucket chain page, where dentries start at byte chainFirstDe,
// not on the page's 128-byte grid. The walk through the redirected dentry is
// refused (G3).
func TestRedirectDentryInAChainPage(t *testing.T) {
	_, k, f, th := newTestFS(t, Options{})
	victim := makeCoffer(t, k, f, th, "/victim")
	target := makeCoffer(t, k, f, th, "/target")
	if err := f.Mkdir(th, "/victim/d", 0o700); err != nil { // same mode: in-coffer
		t.Fatal(err)
	}
	// Fill the inline slots of the second-level page "sub" hashes to.
	want := l1Index(nameHash("sub"))
	for i, n := 0, 0; n < l2InlineCnt; i++ {
		name := fmt.Sprintf("f%d", i)
		if l1Index(nameHash(name)) != want {
			continue
		}
		if _, err := f.Create(th, "/victim/d/"+name, 0o600); err != nil {
			t.Fatal(err)
		}
		n++
	}
	if err := f.Mkdir(th, "/victim/d/sub", 0o700); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Create(th, "/victim/d/sub/leaf", 0o600); err != nil {
		t.Fatal(err)
	}
	pos, err := f.walk(th, "/victim/d", false, false)
	if err != nil {
		t.Fatal(err)
	}
	var at deLoc
	dirWalk(th, pos.ino, nil, func(d dentry, loc deLoc, _ int64) bool {
		if d.state == deStateLive && d.name == "sub" {
			at = loc
		}
		return true
	})
	pos.close()
	if at.off%dentrySize != chainFirstDe {
		t.Fatalf("dentry of sub at page offset %d, want one in a chain page", at.off)
	}
	if _, err := f.Stat(th, "/victim/d/sub/leaf"); err != nil {
		t.Fatalf("walk before the attack: %v", err)
	}

	info, _ := k.Info(target)
	mi, err := k.CofferMap(th, victim, true)
	if err != nil {
		t.Fatal(err)
	}
	th.OpenWindow(mi.Key, true)
	redirected := RedirectDentry(th, k, victim, "sub", target, info.RootInode)
	th.CloseWindow()
	if !redirected {
		t.Fatal("RedirectDentry did not find the dentry in the chain page")
	}
	if _, err := f.Stat(th, "/victim/d/sub/leaf"); !errors.Is(err, vfs.ErrCorrupted) {
		t.Fatalf("walk through the redirected dentry: %v, want ErrCorrupted", err)
	}
}

// TestCheckReportsForeignRootInode moves a coffer's root inode page into the
// root coffer, as a merge's page moves do one page at a time, then runs
// Check. Recovery must not write the page through the coffer's own key, which
// faults, but report the coffer and leave it unrepaired (§6.5: a damaged
// coffer yields errors, not crashes).
func TestCheckReportsForeignRootInode(t *testing.T) {
	_, k, f, th := newTestFS(t, Options{})
	h, err := f.Create(th, "/c", 0o600)
	if err != nil {
		t.Fatal(err)
	}
	h.Close(th)
	id, ok := k.LookupPath(nil, "/c")
	if !ok {
		t.Fatal("premise: /c is not its own coffer")
	}
	if err := k.SetCofferMeta(th, id, 0o755, 0, 0); err != nil { // move_pages wants equal permissions
		t.Fatal(err)
	}
	rp, _ := k.Info(id)
	if err := k.MovePages(th, id, k.RootCoffer(), []int64{rp.RootInode}); err != nil {
		t.Fatal(err)
	}
	var rep *Report
	if p := panicOf(func() { rep = Check(k, th) }); p != nil {
		t.Fatalf("Check panicked: %v", p)
	}
	for _, fd := range rep.Findings {
		if fd.Coffer == id && !fd.Repaired && strings.Contains(fd.Detail, "root inode") {
			return
		}
	}
	t.Fatalf("Check found %v, want coffer %d's root inode reported", rep.Findings, id)
}

// TestChainLoopIsAnError plants a self-loop in a bucket chain page: the
// page's next pointer names the page itself. §6.5 asks a damaged coffer to
// give errors, not hangs: a lookup that rebuilds the directory's index must
// fail with ErrCorrupted, and Check must clear the pointer that closes the
// loop and report it, after which the directory serves lookups again. Each
// lookup runs under a deadline, so a walk that spins fails the test instead
// of hanging it.
func TestChainLoopIsAnError(t *testing.T) {
	dev, k, f, th := newTestFS(t, Options{})
	if err := f.Mkdir(th, "/d", 0o755); err != nil {
		t.Fatal(err)
	}
	// Sixteen names of one first-level slot fill its inline area; the
	// seventeenth heads a bucket chain.
	var names []string
	for i := 0; len(names) <= l2InlineCnt; i++ {
		if n := fmt.Sprintf("n%d", i); l1Index(nameHash(n)) == l1Index(nameHash("n0")) {
			names = append(names, n)
			h, err := f.Create(th, "/d/"+n, 0o644)
			if err != nil {
				t.Fatal(err)
			}
			h.Close(th)
		}
	}
	pos, err := f.walk(th, "/d", false, false)
	if err != nil {
		t.Fatal(err)
	}
	_, at, err := f.dirLookup(th, pos.ino, names[l2InlineCnt])
	pos.close()
	if err != nil || at.off%dentrySize != chainFirstDe {
		t.Fatalf("last name at page offset %d (%v), want one in a chain page", at.off, err)
	}
	next := at.page*pageSize + chainNextOff
	dev.Store64(nil, next, uint64(at.page))

	stat := func(name string) error {
		t.Helper()
		done := make(chan error, 1)
		go func() {
			_, err := f.Stat(th, "/d/"+name)
			done <- err
		}()
		select {
		case err := <-done:
			return err
		case <-time.After(10 * time.Second):
			t.Fatalf("Stat of /d/%s spins on the looping chain", name)
			return nil
		}
	}
	f.InvalidateAll() // the next lookup rebuilds the index from NVM
	if err := stat(names[0]); !errors.Is(err, vfs.ErrCorrupted) {
		t.Fatalf("lookup over a looping chain: %v, want ErrCorrupted", err)
	}
	rep := Check(k, th)
	if err := rep.Err(); err != nil {
		t.Fatalf("Check left findings: %v", err)
	}
	if !slices.ContainsFunc(rep.Findings, func(fd Finding) bool { return fd.Off == next && fd.Detail == "chain_loop" }) {
		t.Fatalf("Check found %v, want the loop's pointer at %#x cleared", rep.Findings, next)
	}
	if w := dev.Load64(nil, next); w != 0 {
		t.Fatalf("the loop's pointer reads %d after Check, want 0", w)
	}
	for _, n := range names {
		if err := stat(n); err != nil {
			t.Fatalf("lookup of %s after Check: %v", n, err)
		}
	}
}

// TestChainLoopFindsTheCloser drives the chain loop rule over every chain of
// up to 40 pages whose last page points back at one of them, or ends it: a
// loop is reported exactly when there is one, within three passes of the
// chain, and closer names the last page as the one that closes it.
func TestChainLoopFindsTheCloser(t *testing.T) {
	for n := int64(1); n <= 40; n++ {
		for back := int64(0); back <= n; back++ { // 0: no loop
			next := func(pg int64) int64 {
				if pg < n {
					return pg + 1
				}
				return back
			}
			var loop chainLoop
			looped, steps := false, int64(0)
			for pg := int64(1); pg != 0 && !looped; pg = next(pg) {
				if looped = loop.closes(pg); steps > 3*n {
					t.Fatalf("%d pages back to %d: no loop reported after %d steps", n, back, steps)
				}
				steps++
			}
			if looped != (back != 0) {
				t.Fatalf("%d pages back to %d: loop reported %v", n, back, looped)
			}
			if looped {
				if c := loop.closer(1, next); c != n {
					t.Fatalf("%d pages back to %d: closer %d, want %d", n, back, c, n)
				}
			}
		}
	}
}
