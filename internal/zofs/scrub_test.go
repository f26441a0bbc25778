package zofs

import (
	"bytes"
	"errors"
	"slices"
	"testing"

	"zofs/internal/mpk"
	"zofs/internal/nvm"
	"zofs/internal/proc"
	"zofs/internal/vfs"
)

// An inode page is scrubbed on free only over what it can hold when its
// lease epoch is 0 (freeInode): the header and the direct slots the size
// covers. These tests leave a block pointer past EOF each way an op can, then
// unlink the file; the recycled inode page must read zero, which needs the
// epoch to have left 0 (or the scrub to have been whole).

// scrubFixture is a file of 100 committed bytes (one block) on a fresh
// device, with the allocator's double-free tracking and zero-on-pop check on.
func scrubFixture(t *testing.T) (*nvm.Device, *FS, *proc.Thread, *file, *mount) {
	t.Helper()
	withDebugPool(t)
	dev, _, f, th := newTestFS(t, Options{})
	h := mustCreate(t, f, th, "/f")
	mustWrite(t, th, h, bytes.Repeat([]byte{'A'}, 100), 0)
	m, err := h.remap(th, true)
	if err != nil {
		t.Fatal(err)
	}
	return dev, f, th, h, m
}

// requirePtrPastEOF fails unless block 1 of the inode is mapped: the premise
// that there is something past EOF for the scrub to miss.
func requirePtrPastEOF(t *testing.T, dev *nvm.Device, ino int64) {
	t.Helper()
	if dev.Load64(nil, ino*pageSize+inoDirectOff+8) == 0 {
		t.Fatal("premise: no block pointer was left past EOF")
	}
}

// unlinkAndRecycle unlinks path and requires the freed inode page to read
// zero, then takes it again with a create (the zero-on-pop check).
func unlinkAndRecycle(t *testing.T, dev *nvm.Device, f *FS, th *proc.Thread, path string, ino int64) {
	t.Helper()
	if err := f.Unlink(th, path); err != nil {
		t.Fatal(err)
	}
	requireZeroPage(t, dev, ino)
	h := mustCreate(t, f, th, "/next")
	if h.ino != ino {
		t.Fatalf("the next create took page %d, not the freed inode %d", h.ino, ino)
	}
	h.Close(th)
}

func requireZeroPage(t *testing.T, dev *nvm.Device, page int64) {
	t.Helper()
	buf := make([]byte, pageSize)
	dev.ReadNoCharge(page*pageSize, buf)
	if i := slices.IndexFunc(buf, func(b byte) bool { return b != 0 }); i >= 0 {
		t.Fatalf("freed inode page %d reads %#x at byte %d, want all zero", page, buf[i], i)
	}
}

// fencedAppend runs an append under the inode lock whose own lease expires
// before its commit: the block pointers land, checkLease fails with the
// writer's own TID, and the unlock finds the window open.
func fencedAppend(t *testing.T, f *FS, th *proc.Thread, m *mount, ino int64) {
	t.Helper()
	ep, err := f.lockInode(th, m, ino)
	if err != nil {
		t.Fatal(err)
	}
	th.Clk.Advance(leaseDuration + 1)
	cl := f.window(th, m, true)
	_, err = f.writeAt(th, m, ino, ep, bytes.Repeat([]byte{'B'}, 2*pageSize), f.inodeSize(th, ino))
	cl.close()
	f.unlockInode(th, m, ino, ep)
	if !errors.Is(err, vfs.ErrStaleLease) {
		t.Fatalf("append past its lease returned %v, want ErrStaleLease", err)
	}
}

// TestScrubAfterStolenAppend: a writer frozen mid-append leaves pointers
// past EOF and its lease at epoch 0; another thread steals the lease, stalls
// past it itself, and unlinks the file.
func TestScrubAfterStolenAppend(t *testing.T) {
	dev, f, th, h, m := scrubFixture(t)
	h.Close(th)
	thW := th.Proc.NewThread()
	PlantInodeLeaseEpoch(dev, h.ino, thW.TID, 0, 1)
	cl := f.window(thW, m, true)
	_, err := f.writeAt(thW, m, h.ino, 0, bytes.Repeat([]byte{'B'}, 2*pageSize), 100)
	cl.close()
	if !errors.Is(err, vfs.ErrStaleLease) {
		t.Fatalf("frozen writer's append returned %v, want ErrStaleLease", err)
	}
	requirePtrPastEOF(t, dev, h.ino)

	ep, err := f.lockInode(th, m, h.ino)
	if err != nil || ep == 0 {
		t.Fatalf("steal: epoch %d, %v; want a bumped epoch", ep, err)
	}
	th.Clk.Advance(leaseDuration + 1) // the stealer outlives its own lease
	f.unlockInode(th, m, h.ino, ep)
	unlinkAndRecycle(t, dev, f, th, "/f", h.ino)
}

// TestScrubAfterOwnLeaseExpired: the writer's own lease expires mid-append,
// so checkLease fails with its own TID and nothing is stolen.
func TestScrubAfterOwnLeaseExpired(t *testing.T) {
	dev, f, th, h, m := scrubFixture(t)
	h.Close(th)
	fencedAppend(t, f, th, m, h.ino)
	requirePtrPastEOF(t, dev, h.ino)
	if _, ep, _ := InodeLeaseEpoch(dev, h.ino); ep == 0 {
		t.Fatal("the unlock after a fenced append left the lease at epoch 0")
	}
	unlinkAndRecycle(t, dev, f, th, "/f", h.ino)
}

// TestScrubAfterFaultInAppend: an MPK fault unwinds an append through its
// deferred unlock after the block pointers were stored: the fresh data page
// the append takes next carries a protection key the window does not grant.
func TestScrubAfterFaultInAppend(t *testing.T) {
	dev, f, th, h, m := scrubFixture(t)
	// The fixture's write used all of the thread's one-page first grant:
	// take the next grant's page and put it back, so it is the page the
	// append takes next.
	func() {
		defer f.window(th, m, true).close()
		pg, err := f.allocPage(th, m, classData)
		if err != nil {
			t.Fatal(err)
		}
		f.pushFree(th, m, classData, pg)
	}()
	cache := m.threadSlotsFor(th.TID).cache[classData]
	if len(cache) == 0 {
		t.Fatal("premise: the data batch cache is empty")
	}
	pg := cache[len(cache)-1]
	key, _ := th.Proc.Mem.KeyOf(pg)
	th.Proc.Mem.Map(pg, 1, key%14+1, true)
	func() {
		defer func() {
			if _, ok := recover().(mpk.Violation); !ok {
				t.Fatal("the append raised no mpk.Violation")
			}
		}()
		h.Append(th, bytes.Repeat([]byte{'B'}, 2*pageSize))
	}()
	th.Proc.Mem.Map(pg, 1, key, true)
	requirePtrPastEOF(t, dev, h.ino)
	h.Close(th)
	unlinkAndRecycle(t, dev, f, th, "/f", h.ino)
}

// TestScrubAfterFaultInTruncate: a truncate down unwinds between its size
// commit and its last dead-slot clear: the indirect page, whose slots it
// clears first, carries a foreign protection key, so the direct slots past
// the new size are never cleared.
func TestScrubAfterFaultInTruncate(t *testing.T) {
	dev, f, th, h, _ := scrubFixture(t)
	mustWrite(t, th, h, make([]byte, (inoDirectCnt+3)*pageSize-100), 100)
	ind := int64(dev.Load64(nil, h.ino*pageSize+inoIndirectOff))
	if ind == 0 {
		t.Fatal("premise: the file has no indirect page")
	}
	key, _ := th.Proc.Mem.KeyOf(ind)
	th.Proc.Mem.Map(ind, 1, key%14+1, true)
	func() {
		defer func() {
			if _, ok := recover().(mpk.Violation); !ok {
				t.Fatal("the truncate raised no mpk.Violation")
			}
		}()
		f.Truncate(th, "/f", 100)
	}()
	th.Proc.Mem.Map(ind, 1, key, true)
	if fi := mustStat(t, f, th, "/f"); fi.Size != 100 {
		t.Fatalf("premise: the size commit landed before the fault, size %d", fi.Size)
	}
	requirePtrPastEOF(t, dev, h.ino)
	h.Close(th)
	unlinkAndRecycle(t, dev, f, th, "/f", h.ino)
}

// TestEpochSkipsZero: once a pointer lies past EOF, no number of steals may
// bring the lease epoch back to 0 — the 8-bit epoch skips it on the wrap.
func TestEpochSkipsZero(t *testing.T) {
	dev, f, th, h, m := scrubFixture(t)
	h.Close(th)
	fencedAppend(t, f, th, m, h.ino)
	requirePtrPastEOF(t, dev, h.ino)
	thDead := th.Proc.NewThread()
	for i := 0; i < 300; i++ {
		_, ep, _ := InodeLeaseEpoch(dev, h.ino)
		if ep == 0 {
			t.Fatalf("the lease is at epoch 0 after %d steals", i)
		}
		PlantInodeLeaseEpoch(dev, h.ino, thDead.TID, ep, 1)
		got, err := f.lockInode(th, m, h.ino)
		if err != nil {
			t.Fatal(err)
		}
		f.unlockInode(th, m, h.ino, got)
	}
	unlinkAndRecycle(t, dev, f, th, "/f", h.ino)
}

// TestScrubOrphanOnClose: the file is unlinked while open, after an append
// that left pointers past EOF; its last close reclaims it, holding the lease
// itself.
func TestScrubOrphanOnClose(t *testing.T) {
	dev, f, th, h, m := scrubFixture(t)
	fencedAppend(t, f, th, m, h.ino)
	requirePtrPastEOF(t, dev, h.ino)
	if err := f.Unlink(th, "/f"); err != nil {
		t.Fatal(err)
	}
	if dev.Load64(nil, h.ino*pageSize) == 0 {
		t.Fatal("premise: the open file was reclaimed at unlink")
	}
	ino := h.ino
	h.Close(th)
	requireZeroPage(t, dev, ino)
	if g := mustCreate(t, f, th, "/next"); g.ino != ino {
		t.Fatalf("the next create took page %d, not the freed inode %d", g.ino, ino)
	}
}
