package zofs

import (
	"sync"

	"zofs/internal/byteflow"
	"zofs/internal/lockprof"
	"zofs/internal/nvm"
	"zofs/internal/perfmodel"
	"zofs/internal/proc"
	"zofs/internal/retry"
	"zofs/internal/vfs"
)

// shared holds the cross-process coordination state for one device's ZoFS
// coffers. On real hardware this is carried entirely by NVM lease words and
// cache coherence; in the simulation the persistent lease words are still
// maintained (recovery inspects and clears them) while the blocking/waiting
// behaviour is modeled by per-inode virtual-time readers-writer locks,
// shared by every process of the same device. It is volatile and hangs off
// the device it describes (nvm.Device.Volatile): a crash drops it
// (ResetShared), and it is collected with the device.
type shared struct {
	// states is the per-inode volatile state table, sharded by key so that
	// threads working on different inodes rarely meet on a shard mutex.
	// Entries are created on first use and live as long as the table: the
	// lock in one must outlast every thread that may still be queued on it.
	states [stateShards]struct {
		mu sync.Mutex
		m  map[int64]*inoState
	}
	// dc is the volatile directory lookup index (see dcache.go). Dropping
	// the shared state on crash drops it too, so recovery can never observe
	// pre-crash cached dentries.
	dc dcache
}

const stateShards = 64

// inoState is what the processes of a device share, in DRAM, about one inode
// page — or, under a negative key, one directory hash bucket, which uses the
// lock alone.
type inoState struct {
	// lock is the virtual-time readers-writer lock standing in for the
	// blocking behaviour of the inode's lease word.
	lock lockprof.RWMutex
	// parked is the lease word unlockInode left live in NVM for batched
	// renewal (DESIGN.md §14), 0 for none: the next lock of the inode by the
	// same thread within the lease window reuses the word with zero NVM
	// writes. Another thread finding a parked word steals it immediately
	// (epoch bump) — the park is the proof the in-process hold is over. It is
	// read and written under lock's write side; a crash drops it, leaving the
	// word for recovery to clear, exactly like a crashed live lease.
	parked uint64

	// Open-handle accounting across every process of the device, so unlink
	// can defer content reclamation until the last close (POSIX semantics).
	// A crash drops it; recovery reclaims the orphans' pages (§5.3).
	mu       sync.Mutex // guards the fields below
	opens    int
	orphaned bool
	typ      uint8 // vfs.FileType of the orphan, for reclamation
}

// state returns the entry for an inode page (non-negative keys) or a
// directory hash bucket (negative keys), creating it on first use.
func (s *shared) state(key int64) *inoState {
	sh := &s.states[uint64(key)%stateShards]
	sh.mu.Lock()
	st := sh.m[key]
	if st == nil {
		st = new(inoState)
		if key < 0 {
			st.lock.InitKeyed("zofs.dirbucket", -key)
		} else {
			st.lock.InitKeyed("zofs.inode", key)
		}
		if sh.m == nil {
			sh.m = map[int64]*inoState{}
		}
		sh.m[key] = st
	}
	sh.mu.Unlock()
	return st
}

// lockOf returns the shared lock for an inode page or directory hash bucket.
func (s *shared) lockOf(key int64) *lockprof.RWMutex { return &s.state(key).lock }

// retain registers an open handle on an inode.
func (s *shared) retain(ino int64) {
	st := s.state(ino)
	st.mu.Lock()
	st.opens++
	st.mu.Unlock()
}

// release drops a handle; it reports whether the caller must now reclaim an
// orphaned inode's content (and of which type).
func (s *shared) release(ino int64) (reclaim bool, typ uint8) {
	st := s.state(ino)
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.opens == 0 {
		return false, 0 // opened before a ResetShared
	}
	if st.opens--; st.opens == 0 {
		reclaim, typ = st.orphaned, st.typ
		st.orphaned, st.typ = false, 0
	}
	return reclaim, typ
}

// orphan marks an unlinked-but-open inode; it reports whether any handle is
// still open (true = defer reclamation to the last close).
func (s *shared) orphan(ino int64, typ uint8) bool {
	st := s.state(ino)
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.opens == 0 {
		return false
	}
	st.orphaned, st.typ = true, typ
	return true
}

// ResetShared discards all volatile cross-process coordination state for a
// device — the analogue of every process dying in a power failure. Crash
// tests call it right after nvm.Device.Crash, before remounting; persistent
// lease words remain on the device for recovery to clear.
func ResetShared(dev *nvm.Device) { dev.DropVolatile() }

// sharedFor returns the device's shared state, creating it on first use.
func sharedFor(dev *nvm.Device) *shared {
	return dev.Volatile(func() any { return new(shared) }).(*shared)
}

// leaseAcquirePolicy bounds how long an op may wait behind a live foreign
// inode lease (a stalled or dead holder in another process): jittered
// exponential polling of the lease word, giving up with a typed timeout
// after five lease windows. The waits are real virtual-time sleeps, billed
// to the spans retry component.
var leaseAcquirePolicy = retry.Policy{
	Base:   20_000, // 20µs: first re-poll of the lease word
	Cap:    leaseDuration / 4,
	Budget: 5 * leaseDuration,
}

// lockInode write-locks an inode: virtual-time/real serialization through
// the shared lock, plus the persistent lease word (§5.2) so that crashed
// holders are observable and recoverable. The write window for the owning
// coffer is (re)opened, since the lease write needs it. The returned epoch
// fences the caller's commit points (checkLease) and must be handed back to
// unlockInode. On vfs.ErrLeaseTimeout the shared lock is already released.
func (f *FS) lockInode(th *proc.Thread, m *mount, ino int64) (uint8, error) {
	th.CPU(perfmodel.CPULockAcquire) // clock_gettime via vDSO + bookkeeping
	st := f.sh.state(ino)
	st.lock.Lock(th.Clk)
	f.window(th, m, true)
	epoch, err := f.claimInodeLease(th, st, ino)
	if err != nil {
		st.lock.Unlock(th.Clk)
		return 0, err
	}
	return epoch, nil
}

// claimInodeLease takes the persistent inode lease by CAS. In-process
// writers are already serialized by the shared lock; the loop exists for
// the cross-process cases the lease word carries: a free word is claimed at
// its current epoch, an expired foreign lease is stolen with the epoch
// bumped (fencing the late holder), and a live foreign lease is waited out
// under the unified retry policy until its expiry or the op's deadline
// budget runs out.
func (f *FS) claimInodeLease(th *proc.Thread, st *inoState, ino int64) (uint8, error) {
	off := ino*pageSize + inoLeaseOff
	wprev := th.Clk.SwapWriteClass(uint8(byteflow.ClassInode))
	defer th.Clk.SetWriteClass(wprev)
	var bo *retry.Backoff
	for {
		// The lease word of a repeatedly locked inode stays resident in the
		// owner's cache between ops; contended re-polls after a sleep pay
		// the coherence miss through the CAS instead.
		w := th.Load64Cached(off)
		tid, epoch, expiry := unpackInoLease(w)
		now := th.Clk.Now()
		if w != 0 && st.parked == w {
			if tid == th.TID&0xffff {
				// Our own parked lease: the batched fast path. Reuse the
				// word as-is — zero NVM writes per lock/unlock pair —
				// renewing only once the window is half-spent (the
				// allocator slot idiom), so renewals amortize to one
				// write per lease window instead of two per op.
				if expiry > now && expiry-now >= leaseDuration/2 && expiry <= now+leaseDuration {
					st.parked = 0
					return uint8(epoch), nil
				}
				if th.CAS64(off, w, inoLeaseWord(th.TID, epoch, now+leaseDuration)) {
					st.parked = 0
					return uint8(epoch), nil
				}
				continue
			}
			// Foreign parked lease: the park proves the holder's
			// in-process hold ended, so steal immediately (epoch bump
			// fences the parker's stale word) instead of sleeping out
			// the remaining window.
			ne := (epoch + 1) & 0xff
			if th.CAS64(off, w, inoLeaseWord(th.TID, ne, now+leaseDuration)) {
				st.parked = 0
				return uint8(ne), nil
			}
			continue
		}
		switch {
		case w == 0 || (tid == th.TID&0xffff && expiry > now):
			// Free, or our own still-live lease (a re-claimed word after a
			// partial failure): (re)take it at the current epoch.
			if th.CAS64(off, w, inoLeaseWord(th.TID, epoch, now+leaseDuration)) {
				return uint8(epoch), nil
			}
		case expiry <= now:
			// Expired foreign lease — the holder died or stalled past its
			// window. Steal it, bumping the epoch so the fence rejects any
			// in-flight publish the old holder wakes up with.
			ne := (epoch + 1) & 0xff
			if th.CAS64(off, w, inoLeaseWord(th.TID, ne, now+leaseDuration)) {
				return uint8(ne), nil
			}
		default:
			// Live foreign lease: wait it out under the retry policy.
			if bo == nil {
				bo = leaseAcquirePolicy.Start(now, uint64(th.TID)<<32^uint64(ino))
			}
			th.CPU(perfmodel.CPULockAcquire) // lease-word re-poll bookkeeping
			if !bo.SleepUntil(th.Clk, expiry+1) {
				return 0, vfs.ErrLeaseTimeout
			}
		}
	}
}

// unlockInode releases the inode lease taken at the given epoch. The clear
// is a CAS against exactly the word we published: if the lease was stolen
// while we ran (we stalled past expiry), the stealer's word is left intact
// — clearing it would hand a third writer a lock the stealer still holds.
//
// A still-live own lease is parked instead of cleared: the word stays in NVM
// and the inode's state records it, so the thread's next lock of the same
// inode inside the lease window costs no NVM write at all — one renewal per
// lease window per thread instead of a CAS pair per op (the DWOM hold-time
// fix). An own lease that expired while the op ran is cleared instead: no
// window is left to reuse, and a free word is claimed at its current epoch
// where an expired one would be stolen with the epoch bumped.
func (f *FS) unlockInode(th *proc.Thread, m *mount, ino int64, epoch uint8) {
	f.window(th, m, true)
	wprev := th.Clk.SwapWriteClass(uint8(byteflow.ClassInode))
	off := ino*nvm.PageSize + inoLeaseOff
	w := th.Load64Cached(off) // written by this thread at lock time
	tid, ep, expiry := unpackInoLease(w)
	st := f.sh.state(ino)
	if w != 0 && tid == th.TID&0xffff && uint8(ep) == epoch {
		if expiry > th.Clk.Now() {
			st.parked = w
		} else {
			th.CAS64(off, w, 0)
		}
	}
	th.Clk.SetWriteClass(wprev)
	st.lock.Unlock(th.Clk)
}

// checkLease is the epoch fence consulted immediately before a commit-point
// publish (setInodeSize, mtime): it verifies the thread still holds the
// inode lease at the epoch it acquired. A holder resurrected after a stall
// finds its epoch superseded by a steal (or its lease expired) and gets a
// typed stale-lease error instead of silently publishing over the stealer.
func (f *FS) checkLease(th *proc.Thread, ino int64, epoch uint8) error {
	th.CPU(perfmodel.CPULockAcquire)                 // lease-word validation read
	w := th.Load64Cached(ino*pageSize + inoLeaseOff) // warm: written at lock time
	tid, ep, expiry := unpackInoLease(w)
	if tid != th.TID&0xffff || uint8(ep) != epoch || expiry <= th.Clk.Now() {
		return vfs.ErrStaleLease
	}
	return nil
}

// Directory mutations lock the *hash bucket* a name falls in, not the whole
// directory — the fine-grained locking that lets ZoFS's two-level hash
// directories scale on huge shared directories (Fig. 9's webproxy/varmail).
// Bucket lock keys live in a negative namespace so they never collide with
// inode page numbers in the shared lock table. The bucket's lease word
// conceptually lives in the second-level page; its acquisition cost is
// charged per lock operation.

// bucketKey derives the lock-table key for a name's bucket in a directory.
func bucketKey(dirIno int64, name string) int64 {
	return -(dirIno*dirL1Slots + l1Index(nameHash(name)) + 1)
}

// lockDirBucket write-locks the bucket of name in directory dirIno.
func (f *FS) lockDirBucket(th *proc.Thread, dirIno int64, name string) int64 {
	th.CPU(2 * perfmodel.CPULockAcquire) // clock_gettime + bucket lease CAS
	k := bucketKey(dirIno, name)
	f.sh.lockOf(k).Lock(th.Clk)
	return k
}

func (f *FS) unlockDirBucket(th *proc.Thread, k int64) {
	th.CPU(perfmodel.CPULockAcquire)
	f.sh.lockOf(k).Unlock(th.Clk)
}

// rlockInode read-locks an inode (readers overlap; no lease write — reads
// are made safe by the atomic 8-byte update discipline of §5.3).
func (f *FS) rlockInode(th *proc.Thread, ino int64) {
	th.CPU(perfmodel.CPULockAcquire)
	f.sh.lockOf(ino).RLock(th.Clk)
}

func (f *FS) runlockInode(th *proc.Thread, ino int64) {
	f.sh.lockOf(ino).RUnlock(th.Clk)
}
