package mpk

import (
	"fmt"
	"strings"
	"testing"
	"testing/quick"
)

func TestDefaultPKRU(t *testing.T) {
	p := DefaultPKRU()
	if !p.CanRead(0) || !p.CanWrite(0) {
		t.Fatal("key 0 must be fully accessible by default")
	}
	for k := Key(1); k < NumKeys; k++ {
		if p.CanRead(k) || p.CanWrite(k) {
			t.Fatalf("key %d must be access-disabled by default", k)
		}
	}
}

func TestWithAccess(t *testing.T) {
	p := DefaultPKRU().WithAccess(3, true, false)
	if !p.CanRead(3) {
		t.Fatal("read should be enabled")
	}
	if p.CanWrite(3) {
		t.Fatal("write should remain disabled")
	}
	p = p.WithAccess(3, true, true)
	if !p.CanWrite(3) {
		t.Fatal("write should now be enabled")
	}
	p = p.WithAccess(3, false, false)
	if p.CanRead(3) || p.CanWrite(3) {
		t.Fatal("access should be fully revoked")
	}
}

func TestWriteImpliesReadCheck(t *testing.T) {
	// A key with AD set cannot be written even if WD is clear.
	var p PKRU
	p |= 1 << (2 * 5) // AD only
	if p.CanWrite(5) {
		t.Fatal("AD must block writes")
	}
}

func expectViolation(t *testing.T, f func()) Violation {
	t.Helper()
	var got Violation
	func() {
		defer func() {
			r := recover()
			v, ok := r.(Violation)
			if !ok {
				t.Fatalf("expected Violation panic, got %v", r)
			}
			got = v
		}()
		f()
	}()
	return got
}

func TestAddressSpaceCheck(t *testing.T) {
	a := NewAddressSpace(64)
	a.Map(10, 4, 2, true)
	pkru := DefaultPKRU().WithAccess(2, true, true)

	a.Check(pkru, 10, 4, true) // should not panic

	v := expectViolation(t, func() { a.Check(pkru, 9, 1, false) })
	if v.Cause != "page not mapped" {
		t.Fatalf("cause = %q", v.Cause)
	}
	v = expectViolation(t, func() { a.Check(DefaultPKRU(), 10, 1, false) })
	if v.Key != 2 {
		t.Fatalf("violation key = %d, want 2", v.Key)
	}
	v = expectViolation(t, func() { a.Check(pkru, -1, 1, false) })
	if v.Cause != "page not in address space" {
		t.Fatalf("cause = %q", v.Cause)
	}
}

func TestReadOnlyMapping(t *testing.T) {
	a := NewAddressSpace(16)
	a.Map(0, 1, 1, false) // read-only page permission
	pkru := DefaultPKRU().WithAccess(1, true, true)
	a.Check(pkru, 0, 1, false)
	v := expectViolation(t, func() { a.Check(pkru, 0, 1, true) })
	if v.Cause != "page mapped read-only" {
		t.Fatalf("cause = %q", v.Cause)
	}
}

func TestPKRUWriteDisable(t *testing.T) {
	a := NewAddressSpace(16)
	a.Map(0, 1, 1, true)
	roPKRU := DefaultPKRU().WithAccess(1, true, false)
	a.Check(roPKRU, 0, 1, false)
	v := expectViolation(t, func() { a.Check(roPKRU, 0, 1, true) })
	if v.Cause != "PKRU write-disable" {
		t.Fatalf("cause = %q", v.Cause)
	}
}

// TestViolationCarriesPKRU checks the faulting register value rides along in
// the Violation and appears in its message, for fault diagnostics.
func TestViolationCarriesPKRU(t *testing.T) {
	a := NewAddressSpace(16)
	a.Map(0, 1, 1, true)
	roPKRU := DefaultPKRU().WithAccess(1, true, false)
	v := expectViolation(t, func() { a.Check(roPKRU, 0, 1, true) })
	if v.PKRU != roPKRU {
		t.Fatalf("violation PKRU = %#x, want %#x", uint32(v.PKRU), uint32(roPKRU))
	}
	msg := v.Error()
	want := fmt.Sprintf("pkru=%#010x", uint32(roPKRU))
	if !strings.Contains(msg, want) {
		t.Fatalf("Error() = %q, missing %q", msg, want)
	}

	// Out-of-range accesses also report the register in effect.
	v = expectViolation(t, func() { a.Check(roPKRU, -1, 1, false) })
	if v.PKRU != roPKRU {
		t.Fatalf("out-of-range violation PKRU = %#x, want %#x", uint32(v.PKRU), uint32(roPKRU))
	}
}

func TestUnmap(t *testing.T) {
	a := NewAddressSpace(16)
	a.Map(4, 2, 3, true)
	if !a.Mapped(4) || !a.Mapped(5) {
		t.Fatal("pages should be mapped")
	}
	if k, ok := a.KeyOf(4); !ok || k != 3 {
		t.Fatalf("KeyOf = %d,%v", k, ok)
	}
	a.Unmap(4, 2)
	if a.Mapped(4) {
		t.Fatal("page should be unmapped")
	}
	if _, ok := a.KeyOf(4); ok {
		t.Fatal("KeyOf on unmapped page should report false")
	}
}

// Property: WithAccess(k, r, w) yields exactly the requested permissions on
// key k and never affects any other key.
func TestWithAccessIsolatedProperty(t *testing.T) {
	f := func(base uint32, kRaw uint8, r, w bool) bool {
		k := Key(kRaw % NumKeys)
		p := PKRU(base)
		q := p.WithAccess(k, r, w)
		if q.CanRead(k) != r {
			return false
		}
		// CanWrite requires both AD and WD clear.
		if q.CanWrite(k) != (r && w) {
			return false
		}
		for other := Key(0); other < NumKeys; other++ {
			if other == k {
				continue
			}
			if p.CanRead(other) != q.CanRead(other) || p.CanWrite(other) != q.CanWrite(other) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestPackedLanes: entries share a word eight at a time, so every lane must
// raise its own violation, and mapping or unmapping a range that starts and
// ends mid-word must leave the neighbouring lanes of both edge words alone.
func TestPackedLanes(t *testing.T) {
	const npages = 43 // the last word is partial
	pkru := DefaultPKRU().WithAccess(2, true, true).WithAccess(3, true, true)
	for lane := int64(0); lane < ptesPerWord; lane++ {
		as := NewAddressSpace(npages)
		as.Map(8, 16, 2, true)
		as.Unmap(8+lane, 1)
		v := expectViolation(t, func() { as.Check(pkru, 8, 16, false) })
		if v.Page != 8+lane || v.Cause != "page not mapped" {
			t.Fatalf("lane %d: violation %+v", lane, v)
		}
		as.Map(8+lane, 1, 2, false)
		v = expectViolation(t, func() { as.Check(pkru, 8, 16, true) })
		if v.Page != 8+lane || v.Cause != "page mapped read-only" {
			t.Fatalf("lane %d: violation %+v", lane, v)
		}
	}

	as := NewAddressSpace(npages)
	model := make([]uint8, npages)
	fill := func(page, count int64, key Key, writable, present bool) {
		e := uint8(0)
		if present {
			as.Map(page, count, key, writable)
			e = uint8(key) | ptePresent
			if writable {
				e |= pteWritable
			}
		} else {
			as.Unmap(page, count)
		}
		for i := page; i < page+count; i++ {
			model[i] = e
		}
	}
	fill(0, npages, 2, true, true)
	fill(3, 2, 3, false, true)   // inside one word
	fill(5, 14, 3, true, true)   // mid-word to mid-word across a whole word
	fill(13, 6, 0, false, false) // unmap across a word boundary
	fill(38, 5, 3, false, true)  // up to the last page of the partial word
	fill(16, 8, 0, false, false) // exactly one word
	for i := int64(0); i < npages; i++ {
		if got := as.pte(i); got != model[i] {
			t.Fatalf("page %d: entry %#x, want %#x", i, got, model[i])
		}
		key, ok := as.KeyOf(i)
		if ok != (model[i]&ptePresent != 0) || as.Mapped(i) != ok || (ok && key != Key(model[i]&pteKeyMask)) {
			t.Fatalf("page %d: KeyOf = %d,%v, Mapped = %v, entry %#x", i, key, ok, as.Mapped(i), model[i])
		}
	}
	if as.Mapped(npages) || as.Mapped(-1) {
		t.Fatal("a page outside the address space reads as mapped")
	}
}

// TestCheckRacesMapUnmap: access checks take no lock, so under -race they run
// against a kernel remapping ranges whose two ends fall mid-word. Pages the
// writer never touches must check clean throughout; pages it does touch may
// fault, but only ever with a whole entry (mapped under the writer's key, or
// not mapped).
func TestCheckRacesMapUnmap(t *testing.T) {
	const npages = 64
	as := NewAddressSpace(npages)
	as.Map(0, npages, 1, true)
	pkru := DefaultPKRU().WithAccess(1, true, true).WithAccess(2, true, true)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 2000; i++ {
			as.Unmap(11, 26) // lanes 3.. of word 1 through lane 4 of word 4
			as.Map(11, 26, 2, i%2 == 0)
		}
	}()
	for running := true; running; {
		select {
		case <-done:
			running = false
		default:
		}
		as.Check(pkru, 0, 11, true)  // shares word 1 with the writer's range
		as.Check(pkru, 37, 27, true) // shares word 4 with it
		func() {
			defer func() {
				r := recover()
				if r == nil {
					return
				}
				v := r.(Violation)
				unmapped := v.Cause == "page not mapped"
				readOnly := v.Cause == "page mapped read-only" && v.Key == 2
				if v.Page < 11 || v.Page >= 37 || !(unmapped || readOnly) {
					t.Errorf("torn entry: %+v", v)
				}
			}()
			as.Check(pkru, 8, 32, true)
		}()
	}
}
