package zofs

import (
	"zofs/internal/byteflow"
	"zofs/internal/coffer"
	"zofs/internal/nvm"
	"zofs/internal/proc"
)

// Fault-injection hooks for crash/fault campaigns (internal/crashmc and
// tests). They bypass thread accounting and MPK windows on purpose: the
// injected state models damage left behind by a process that died, not an
// access performed by a live one.

// PlantInodeLease writes an inode's persistent lease word directly,
// simulating a holder thread that died while holding the inode lock.
// Recovery must clear it; survivors must not hang on it. The planted lease
// carries epoch 0; PlantInodeLeaseEpoch controls the fencing epoch.
func PlantInodeLease(dev *nvm.Device, ino int64, tid int, expiry int64) {
	PlantInodeLeaseEpoch(dev, ino, tid, 0, expiry)
}

// PlantInodeLeaseEpoch plants an inode lease at an explicit fencing epoch —
// the chaos engine's model of a holder frozen (stalled) while holding the
// lock: the lease word stays live on NVM while the holder makes no
// progress, and survivors must wait it out, steal with an epoch bump, and
// reject the holder's eventual resume.
func PlantInodeLeaseEpoch(dev *nvm.Device, ino int64, tid, epoch int, expiry int64) {
	dev.Store64(nil, ino*pageSize+inoLeaseOff, inoLeaseWord(tid, epoch, expiry))
}

// InodeLease reads an inode's persistent lease word (0,0 = unlocked).
func InodeLease(dev *nvm.Device, ino int64) (tid int, expiry int64) {
	tid, _, expiry = InodeLeaseEpoch(dev, ino)
	return tid, expiry
}

// InodeLeaseEpoch reads an inode's lease word including its fencing epoch.
func InodeLeaseEpoch(dev *nvm.Device, ino int64) (tid, epoch int, expiry int64) {
	w := dev.Load64(nil, ino*pageSize+inoLeaseOff)
	if w == 0 {
		return 0, 0, 0
	}
	return unpackInoLease(w)
}

// PlantSlotLease writes an allocator pool slot's lease word on a coffer's
// custom page, simulating a holder that died mid-allocation (§5.2): the
// slot stays claimed until the lease expires, then a survivor steals it
// via CAS64.
func PlantSlotLease(dev *nvm.Device, custom int64, slot int, tid int, expiry int64) {
	dev.Store64(nil, slotOffset(custom, int32(slot))+slotLeaseOff, leaseWord(tid, expiry))
}

// SlotLease reads a pool slot's lease word (0,0 = free).
func SlotLease(dev *nvm.Device, custom int64, slot int) (tid int, expiry int64) {
	w := dev.Load64(nil, slotOffset(custom, int32(slot))+slotLeaseOff)
	if w == 0 {
		return 0, 0
	}
	return unpackLease(w)
}

// PoolSlots returns the number of allocator pool slots per coffer, for
// fault campaigns that sweep them.
func PoolSlots() int { return poolSlots }

// LeaseDurationNS exposes the inode lease validity window, so fault
// campaigns can plant leases that are live "now" and expire on schedule.
func LeaseDurationNS() int64 { return leaseDuration }

// LeaseBudget exposes the per-acquire retry deadline budget: no single op
// may stall longer than this waiting for a lease, which is the bounded-wait
// invariant the chaos engine asserts per op.
func LeaseBudget() int64 { return leaseAcquirePolicy.Budget }

// IsInodePage reports whether a device page starts with the ZoFS inode
// magic — the metadata pages a bit-flip campaign targets.
func IsInodePage(dev *nvm.Device, page int64) bool {
	buf := make([]byte, 4)
	dev.ReadNoCharge(page*pageSize, buf)
	return u32at(buf, 0) == inoMagic
}

// InodeHeaderLen is the byte span of an inode page's fixed header, the
// region bit-flip campaigns corrupt to provoke detectable damage.
const InodeHeaderLen = inoHeaderLen

// ResumeStaleWrite replays a resurrected holder's in-flight commit: it
// runs the real epoch fence (checkLease) under the thread's real MPK
// window, attempting to publish the metadata update the holder was about
// to commit before it stalled, using the lease epoch it remembered. It
// returns vfs.ErrStaleLease when the epoch was superseded by a steal — the
// containment proof the chaos engine asserts — and nil when the lease is
// genuinely still held, in which case the mtime publish goes through.
func (f *FS) ResumeStaleWrite(th *proc.Thread, cid coffer.ID, ino int64, epoch uint8) error {
	m, err := f.ensureMapped(th, cid, true)
	if err != nil {
		return err
	}
	cl := f.window(th, m, true)
	defer cl.close()
	if err := f.checkLease(th, ino, epoch); err != nil {
		return err
	}
	wprev := th.Clk.SwapWriteClass(uint8(byteflow.ClassInode))
	th.Store64(ino*pageSize+inoMtimeOff, uint64(th.Clk.Now()))
	th.Clk.SetWriteClass(wprev)
	return nil
}

// FlipBit flips one bit of the device image in place, as persisted state
// (media corruption, not a cached store).
func FlipBit(dev *nvm.Device, off int64, bit uint) {
	buf := make([]byte, 1)
	dev.ReadNoCharge(off, buf)
	buf[0] ^= 1 << (bit % 8)
	dev.WriteNT(nil, off, buf)
}
