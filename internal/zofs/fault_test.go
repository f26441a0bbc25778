package zofs

import (
	"errors"
	"fmt"
	"testing"

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
