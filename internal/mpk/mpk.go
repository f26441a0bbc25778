// Package mpk simulates Intel Memory Protection Keys (paper §2.4).
//
// The kernel (KernFS) tags each mapped page with a 4-bit protection key in
// the per-process address space; each thread carries a PKRU register holding
// a pair of permission bits (access-disable, write-disable) per key. Every
// user-space access to the device is checked against both the page-table
// permission (present/writable) and the PKRU, exactly mirroring the
// hardware: a violation is delivered as a panic (the analogue of SIGSEGV)
// that FSLibs catches and converts to a file system error (§3.4.2).
package mpk

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// NumKeys is the number of protection keys (16; key 0 is conventionally the
// process's ordinary memory, leaving 15 for coffers — §3.4.2).
const NumKeys = 16

// Key is a 4-bit protection key.
type Key uint8

// PKRU is the per-thread protection-key rights register: two bits per key,
// bit 2k = access-disable (AD), bit 2k+1 = write-disable (WD).
type PKRU uint32

// DefaultPKRU returns the register state KernFS installs before returning
// to user space: key 0 fully accessible, every other key access-disabled.
func DefaultPKRU() PKRU {
	var p PKRU
	for k := Key(1); k < NumKeys; k++ {
		p |= 1 << (2 * k) // AD
	}
	return p
}

// CanRead reports whether the register permits loads from pages with key k.
func (p PKRU) CanRead(k Key) bool { return p&(1<<(2*k)) == 0 }

// CanWrite reports whether the register permits stores to pages with key k.
func (p PKRU) CanWrite(k Key) bool { return p&(3<<(2*k)) == 0 }

// WithAccess returns a copy of the register with key k's permissions set.
func (p PKRU) WithAccess(k Key, read, write bool) PKRU {
	p |= 3 << (2 * k)
	if read {
		p &^= 1 << (2 * k)
	}
	if write {
		p &^= 2 << (2 * k)
	}
	return p
}

// Violation is the panic value raised on a protection fault. It carries
// enough context for FSLibs to translate it into a file system error, plus
// the offending thread's PKRU value for fault diagnostics.
type Violation struct {
	Page  int64
	Key   Key
	Write bool
	PKRU  PKRU
	Cause string
}

func (v Violation) Error() string {
	op := "read"
	if v.Write {
		op = "write"
	}
	return fmt.Sprintf("mpk violation: %s page %d key %d pkru=%#010x: %s", op, v.Page, v.Key, uint32(v.PKRU), v.Cause)
}

// Page-table entry bits stored per page in an AddressSpace.
const (
	ptePresent  = 1 << 4
	pteWritable = 1 << 5
	pteKeyMask  = 0x0f
)

// AddressSpace is the per-process page table: for each device page it
// records whether the page is mapped into the process, whether it is
// writable, and its protection key. Only the kernel (KernFS) mutates it.
//
// The one-byte entries are packed eight to an atomic word, page i in lane
// i%8. Every access check loads its entries without a lock — per-page
// atomicity is what the hardware's page walk gives — and the kernel's edits,
// serialized by mu, store whole words except at the two ends of a range.
type AddressSpace struct {
	mu     sync.Mutex
	npages int64
	words  []atomic.Uint64
}

const ptesPerWord = 8

// NewAddressSpace creates an empty address space covering npages pages.
func NewAddressSpace(npages int64) *AddressSpace {
	return &AddressSpace{npages: npages, words: make([]atomic.Uint64, (npages+ptesPerWord-1)/ptesPerWord)}
}

// Map marks [page, page+count) present with the given key and writability.
func (a *AddressSpace) Map(page, count int64, key Key, writable bool) {
	e := uint8(key&pteKeyMask) | ptePresent
	if writable {
		e |= pteWritable
	}
	a.fill(page, count, e)
}

// Unmap removes [page, page+count) from the address space.
func (a *AddressSpace) Unmap(page, count int64) { a.fill(page, count, 0) }

// fill sets the entries of [page, page+count) to e, a word at a time.
func (a *AddressSpace) fill(page, count int64, e uint8) {
	a.mu.Lock()
	defer a.mu.Unlock()
	lanes := uint64(e) * 0x0101010101010101
	for end := page + count; page < end; {
		w, lane := &a.words[page/ptesPerWord], page%ptesPerWord
		n := min(end-page, ptesPerWord-lane)
		if n == ptesPerWord {
			w.Store(lanes)
		} else {
			// An edge word keeps its other lanes; mu makes the
			// read-modify-write safe among writers.
			mask := (uint64(1)<<(8*n) - 1) << (8 * lane)
			w.Store(w.Load()&^mask | lanes&mask)
		}
		page += n
	}
}

// pte loads one page's entry; the page must lie inside the address space.
func (a *AddressSpace) pte(page int64) uint8 {
	return uint8(a.words[page/ptesPerWord].Load() >> (8 * (page % ptesPerWord)))
}

// ViolationObserver sees a Violation the instant it is raised, before the
// panic starts unwinding the faulting op's stack. The causal span layer
// (internal/spans) implements it to mark the active span aborted with the
// fault attached; a nil observer is simply skipped.
type ViolationObserver interface{ ObserveViolation(Violation) }

// Check validates one access spanning [page, page+count) under the given
// register, panicking with a Violation on the first failing page.
func (a *AddressSpace) Check(pkru PKRU, page, count int64, write bool) {
	a.CheckObserved(pkru, page, count, write, nil)
}

// CheckObserved is Check with an optional ViolationObserver that is notified
// synchronously before the Violation panic is thrown.
func (a *AddressSpace) CheckObserved(pkru PKRU, page, count int64, write bool, obs ViolationObserver) {
	for i := page; i < page+count; i++ {
		if i < 0 || i >= a.npages {
			raise(obs, Violation{Page: i, Write: write, PKRU: pkru, Cause: "page not in address space"})
		}
		e := a.pte(i)
		if e&ptePresent == 0 {
			raise(obs, Violation{Page: i, Write: write, PKRU: pkru, Cause: "page not mapped"})
		}
		k := Key(e & pteKeyMask)
		if write {
			if e&pteWritable == 0 {
				raise(obs, Violation{Page: i, Key: k, Write: true, PKRU: pkru, Cause: "page mapped read-only"})
			}
			if !pkru.CanWrite(k) {
				raise(obs, Violation{Page: i, Key: k, Write: true, PKRU: pkru, Cause: "PKRU write-disable"})
			}
		} else if !pkru.CanRead(k) {
			raise(obs, Violation{Page: i, Key: k, PKRU: pkru, Cause: "PKRU access-disable"})
		}
	}
}

// raise delivers the violation to the observer (if any) and panics.
func raise(obs ViolationObserver, v Violation) {
	if obs != nil {
		obs.ObserveViolation(v)
	}
	panic(v)
}

// Mapped reports whether a page is present.
func (a *AddressSpace) Mapped(page int64) bool {
	return page >= 0 && page < a.npages && a.pte(page)&ptePresent != 0
}

// KeyOf returns the protection key of a mapped page.
func (a *AddressSpace) KeyOf(page int64) (Key, bool) {
	if page < 0 || page >= a.npages {
		return 0, false
	}
	e := a.pte(page)
	return Key(e & pteKeyMask), e&ptePresent != 0
}
