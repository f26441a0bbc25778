package nvm

import (
	"bytes"
	"sync"
	"testing"
	"testing/quick"

	"zofs/internal/simclock"
)

func TestDeviceSizeRounding(t *testing.T) {
	d := NewDevice(PageSize + 1)
	if d.Size() != 2*PageSize {
		t.Fatalf("Size = %d, want %d", d.Size(), 2*PageSize)
	}
	if d.Pages() != 2 {
		t.Fatalf("Pages = %d, want 2", d.Pages())
	}
}

func TestReadWriteRoundTrip(t *testing.T) {
	d := NewDevice(1 << 20)
	clk := simclock.NewClock()
	in := []byte("hello, persistent world")
	d.WriteNT(clk, 4096, in)
	out := make([]byte, len(in))
	d.Read(clk, 4096, out)
	if !bytes.Equal(in, out) {
		t.Fatalf("round trip mismatch: %q vs %q", in, out)
	}
	if clk.Now() == 0 {
		t.Fatal("clock should have been charged")
	}
}

func TestOutOfRangePanics(t *testing.T) {
	d := NewDevice(PageSize)
	for _, tc := range []func(){
		func() { d.Read(nil, -1, make([]byte, 8)) },
		func() { d.Read(nil, PageSize-4, make([]byte, 8)) },
		func() { d.WriteNT(nil, PageSize, []byte{1}) },
		func() { d.Load64(nil, 4) }, // unaligned
	} {
		func() {
			defer func() {
				if r := recover(); r == nil {
					t.Fatal("expected panic")
				} else if _, ok := r.(Fault); !ok {
					t.Fatalf("expected Fault, got %T", r)
				}
			}()
			tc()
		}()
	}
}

func TestCachedWriteNotPersistedUntilFlush(t *testing.T) {
	d := NewDevice(1 << 16)
	clk := simclock.NewClock()
	d.WriteNT(clk, 0, []byte("persisted-base-content-here!"))
	d.Write(clk, 0, []byte("CACHED")) // dirty, unflushed
	if d.DirtyLines() == 0 {
		t.Fatal("expected dirty lines after cached write")
	}
	d.Crash()
	out := make([]byte, 6)
	d.ReadNoCharge(0, out)
	if string(out) != "persis" {
		t.Fatalf("crash should revert unflushed write, got %q", out)
	}
}

func TestFlushPersists(t *testing.T) {
	d := NewDevice(1 << 16)
	clk := simclock.NewClock()
	d.Write(clk, 128, []byte("durable"))
	d.Flush(clk, 128, 7)
	if d.DirtyLines() != 0 {
		t.Fatalf("DirtyLines after flush = %d", d.DirtyLines())
	}
	d.Crash()
	out := make([]byte, 7)
	d.ReadNoCharge(128, out)
	if string(out) != "durable" {
		t.Fatalf("flushed data must survive crash, got %q", out)
	}
}

func TestWriteNTSurvivesCrash(t *testing.T) {
	d := NewDevice(1 << 16)
	d.WriteNT(nil, 64, []byte("ntstore"))
	d.Crash()
	out := make([]byte, 7)
	d.ReadNoCharge(64, out)
	if string(out) != "ntstore" {
		t.Fatalf("ntstore must survive crash, got %q", out)
	}
}

func TestCrashRevertsOnlyDirtyLines(t *testing.T) {
	d := NewDevice(1 << 16)
	d.WriteNT(nil, 0, []byte("AAAA"))
	d.WriteNT(nil, 64, []byte("BBBB"))
	d.Write(nil, 64, []byte("XXXX")) // dirty line 1 only
	d.Crash()
	a, b := make([]byte, 4), make([]byte, 4)
	d.ReadNoCharge(0, a)
	d.ReadNoCharge(64, b)
	if string(a) != "AAAA" || string(b) != "BBBB" {
		t.Fatalf("got %q %q, want AAAA BBBB", a, b)
	}
}

func TestAtomics(t *testing.T) {
	d := NewDevice(1 << 16)
	clk := simclock.NewClock()
	d.Store64(clk, 8, 0xdeadbeef)
	if got := d.Load64(clk, 8); got != 0xdeadbeef {
		t.Fatalf("Load64 = %x", got)
	}
	if !d.CAS64(clk, 8, 0xdeadbeef, 42) {
		t.Fatal("CAS should succeed")
	}
	if d.CAS64(clk, 8, 0xdeadbeef, 43) {
		t.Fatal("CAS with stale old value should fail")
	}
	if got := d.Load64(clk, 8); got != 42 {
		t.Fatalf("Load64 after CAS = %d", got)
	}
}

// TestLoad64RacesWriters: Load64 takes no lock, so under -race it runs
// against Store64 and CAS64 on the same word and must only ever see a whole
// value one of them wrote. The word is also read bytewise afterwards: the
// image stays little-endian.
func TestLoad64RacesWriters(t *testing.T) {
	d := New(Config{Size: 1 << 16})
	const off, a, b = 4096 + 24, 0x1111111111111111, 0x2222222222222222
	d.Store64(nil, off, a)
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < 5000; i++ {
			d.CAS64(nil, off, a, b)
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 5000; i++ {
			d.Store64(nil, off, a)
		}
	}()
	for i := 0; i < 5000; i++ {
		if v := d.Load64(nil, off); v != a && v != b {
			t.Fatalf("Load64 = %#x: torn", v)
		}
	}
	wg.Wait()
	d.Store64(nil, off, 0x0807060504030201)
	var raw [8]byte
	d.ReadNoCharge(off, raw[:])
	if raw != [8]byte{1, 2, 3, 4, 5, 6, 7, 8} {
		t.Fatalf("image bytes = %v, want little-endian", raw)
	}
}

func TestStore64SurvivesCrash(t *testing.T) {
	d := NewDevice(1 << 16)
	d.Store64(nil, 16, 7)
	d.Crash()
	if got := d.Load64(nil, 16); got != 7 {
		t.Fatalf("atomic store must be durable, got %d", got)
	}
}

func TestFailAfterInjectsCrash(t *testing.T) {
	d := NewDevice(1 << 16)
	d.FailAfter(3)
	crashed := false
	func() {
		defer func() {
			r := recover()
			if !IsInjectedCrash(r) {
				t.Fatalf("expected injected crash, got %v", r)
			}
			crashed = true
		}()
		for i := int64(0); i < 10; i++ {
			d.Store64(nil, i*8, uint64(i))
		}
	}()
	if !crashed {
		t.Fatal("crash was not injected")
	}
	if d.WriteCount() != 3 {
		t.Fatalf("WriteCount = %d, want 3", d.WriteCount())
	}
	d.FailAfter(0) // disarm
	d.Store64(nil, 0, 1)
}

func TestZero(t *testing.T) {
	d := NewDevice(1 << 16)
	d.WriteNT(nil, 0, bytes.Repeat([]byte{0xff}, 256))
	d.Zero(nil, 0, 256)
	out := make([]byte, 256)
	d.ReadNoCharge(0, out)
	for i, b := range out {
		if b != 0 {
			t.Fatalf("byte %d = %x after Zero", i, b)
		}
	}
}

func TestWriteBandwidthCeiling(t *testing.T) {
	// Two threads each NT-writing 1MB must take ~2x the single-thread
	// virtual time on the shared write channel.
	d := New(Config{Size: 8 << 20, TrackPersistence: false})
	a := simclock.NewClock()
	buf := make([]byte, 1<<20)
	d.WriteNT(a, 0, buf)
	solo := a.Now()
	b := simclock.NewClock()
	d.WriteNT(b, 1<<20, buf)
	if b.Now() < 2*solo-solo/4 {
		t.Fatalf("second writer should queue behind first: %d vs solo %d", b.Now(), solo)
	}
}

func TestConcurrencyDegradation(t *testing.T) {
	buf := make([]byte, 4096)
	a := simclock.NewClock()
	New(Config{Size: 1 << 20, TrackPersistence: false}).WriteNT(a, 0, buf)
	base := a.Now()
	d := New(Config{Size: 1 << 20, TrackPersistence: false})
	d.SetConcurrency(20)
	b := simclock.NewClock()
	d.WriteNT(b, 0, buf)
	if b.Now() <= base {
		t.Fatalf("20-thread writes must be slower per byte: %d vs %d", b.Now(), base)
	}
}

// Property: any sequence of WriteNT operations is fully crash-durable.
func TestNTWritesDurableProperty(t *testing.T) {
	f := func(ops []struct {
		Off  uint16
		Data [8]byte
	}) bool {
		d := NewDevice(1 << 16)
		want := make(map[int64][8]byte)
		for _, op := range ops {
			off := int64(op.Off) % (1<<16 - 8)
			d.WriteNT(nil, off, op.Data[:])
			// Later overlapping writes supersede earlier ones; replaying
			// the map in insertion order is wrong, so just track exact
			// final bytes via a shadow image instead.
			want[off] = op.Data
		}
		shadow := make([]byte, d.Size())
		d.ReadNoCharge(0, shadow)
		d.Crash()
		after := make([]byte, d.Size())
		d.ReadNoCharge(0, after)
		return bytes.Equal(shadow, after)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: cached writes never survive a crash unless flushed.
func TestCachedWritesRevertProperty(t *testing.T) {
	f := func(offs []uint16) bool {
		d := NewDevice(1 << 16)
		base := make([]byte, d.Size())
		d.ReadNoCharge(0, base) // all zeros, persisted
		for _, o := range offs {
			off := int64(o) % (1<<16 - 4)
			d.Write(nil, off, []byte{1, 2, 3, 4})
		}
		d.Crash()
		after := make([]byte, d.Size())
		d.ReadNoCharge(0, after)
		return bytes.Equal(base, after)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestCrashOnUntrackedDevicePanics(t *testing.T) {
	d := New(Config{Size: 1 << 16, TrackPersistence: false})
	defer func() {
		if recover() == nil {
			t.Fatal("Crash on an untracked device must panic, not silently keep unflushed stores")
		}
	}()
	d.Crash()
}

func TestCrashMediatedFates(t *testing.T) {
	d := NewDevice(1 << 16)
	// Three dirty lines over persisted base content, one per fate.
	base := bytes.Repeat([]byte{0xAA}, LineSize)
	for _, off := range []int64{0, LineSize, 2 * LineSize} {
		d.WriteNT(nil, off, base)
		d.Write(nil, off, bytes.Repeat([]byte{0xBB}, LineSize))
	}
	out := d.CrashMediated(func(line int64) LineFate {
		switch line {
		case 0:
			return LineFate{} // revert
		case LineSize:
			return LineFate{Persist: true}
		default:
			return LineFate{TornMask: 0x01} // only word 0 written back
		}
	})
	if len(out.Reverted) != 1 || out.Reverted[0] != 0 {
		t.Fatalf("Reverted = %v", out.Reverted)
	}
	if len(out.Persisted) != 1 || out.Persisted[0] != LineSize {
		t.Fatalf("Persisted = %v", out.Persisted)
	}
	if len(out.Torn) != 1 || out.Torn[0] != 2*LineSize {
		t.Fatalf("Torn = %v", out.Torn)
	}
	got := make([]byte, 3*LineSize)
	d.ReadNoCharge(0, got)
	want := append(append(bytes.Repeat([]byte{0xAA}, LineSize), bytes.Repeat([]byte{0xBB}, LineSize)...),
		append(bytes.Repeat([]byte{0xBB}, 8), bytes.Repeat([]byte{0xAA}, LineSize-8)...)...)
	if !bytes.Equal(got, want) {
		t.Fatalf("mediated image mismatch:\n got %x\nwant %x", got, want)
	}
	if d.DirtyLines() != 0 {
		t.Fatalf("DirtyLines after mediated crash = %d", d.DirtyLines())
	}
}

// TestFailAfterStopsLaterStores: once FailAfter has tripped, a store issued
// while the crash unwinds (a deferred cleanup) panics before it lands, so the
// crash image holds the tripping store and nothing after it.
func TestFailAfterStopsLaterStores(t *testing.T) {
	d := NewDevice(1 << 16)
	d.FailAfter(1)
	crash := func(f func()) {
		t.Helper()
		defer func() {
			if !IsInjectedCrash(recover()) {
				t.Fatal("expected injected crash")
			}
		}()
		f()
	}
	crash(func() { d.Store64(nil, 0, 1) }) // store 1: lands, then trips
	crash(func() { d.Store64(nil, 8, 2) }) // store 2: must not land
	crash(func() { d.WriteNT(nil, 64, []byte("late")) })
	d.FailAfter(0)
	d.Crash()
	if got := d.Load64(nil, 0); got != 1 {
		t.Fatalf("tripping store: word = %d, want 1", got)
	}
	if got := d.Load64(nil, 8); got != 0 {
		t.Fatalf("store after the trip leaked into the image: word = %d, want 0", got)
	}
	got := make([]byte, 4)
	d.ReadNoCharge(64, got)
	if !bytes.Equal(got, make([]byte, 4)) {
		t.Fatalf("nt-store after the trip leaked into the image: %q", got)
	}
}

func TestFailAtStartLeavesStoreUnapplied(t *testing.T) {
	d := NewDevice(1 << 16)
	d.Store64(nil, 0, 1) // persisted baseline
	d.FailAtStart(2)
	func() {
		defer func() {
			if !IsInjectedCrash(recover()) {
				t.Fatal("expected injected crash")
			}
		}()
		d.Store64(nil, 8, 2) // store 1: lands
		d.Store64(nil, 0, 9) // store 2: must NOT land
	}()
	d.FailAtStart(0)
	d.Crash()
	if got := d.Load64(nil, 0); got != 1 {
		t.Fatalf("fail-at-start store leaked into the image: word = %d, want 1", got)
	}
	if got := d.Load64(nil, 8); got != 2 {
		t.Fatalf("store before the armed point must persist, got %d", got)
	}
}

func TestFailAtStartKeepsEpochDirty(t *testing.T) {
	d := NewDevice(1 << 16)
	d.WriteNT(nil, 0, bytes.Repeat([]byte{0xAA}, LineSize))
	d.FailAtStart(1)
	func() {
		defer func() {
			if !IsInjectedCrash(recover()) {
				t.Fatal("expected injected crash")
			}
		}()
		d.Write(nil, 0, []byte("CACHED")) // dirties the line
		d.Flush(nil, 0, 8)                // armed point: fires before clearDirty
	}()
	d.FailAtStart(0)
	if d.DirtyLines() != 1 {
		t.Fatalf("DirtyLines at mid-epoch crash = %d, want 1", d.DirtyLines())
	}
	out := d.CrashMediated(func(int64) LineFate { return LineFate{Persist: true} })
	if len(out.Persisted) != 1 {
		t.Fatalf("Persisted = %v", out.Persisted)
	}
	got := make([]byte, 6)
	d.ReadNoCharge(0, got)
	if string(got) != "CACHED" {
		t.Fatalf("opportunistic writeback model must keep cached content, got %q", got)
	}
}

func TestFailAtStartCASLeavesWordUntouched(t *testing.T) {
	d := NewDevice(1 << 16)
	d.Store64(nil, 0, 5)
	d.FailAtStart(1)
	func() {
		defer func() {
			if !IsInjectedCrash(recover()) {
				t.Fatal("expected injected crash")
			}
		}()
		d.CAS64(nil, 0, 5, 6)
	}()
	d.FailAtStart(0)
	if got := d.Load64(nil, 0); got != 5 {
		t.Fatalf("CAS interrupted before effect must leave word, got %d", got)
	}
	// The stripe lock must not be left held by the unwound CAS.
	if !d.CAS64(nil, 0, 5, 7) {
		t.Fatal("post-crash CAS should succeed")
	}
}

// TestDeviceUIDsUnique: registries key volatile per-device state on the
// UID; a collision would silently share lock tables between file systems.
func TestDeviceUIDsUnique(t *testing.T) {
	seen := make(map[uint64]bool)
	for i := 0; i < 64; i++ {
		d := NewDevice(1 << 20)
		if seen[d.UID()] {
			t.Fatalf("duplicate device UID %d", d.UID())
		}
		seen[d.UID()] = true
	}
}

// TestVolatileAttachmentsPerOwner: each owner gets its own attachment, built
// once, and a crash drops every one of them as a power failure empties DRAM.
func TestVolatileAttachmentsPerOwner(t *testing.T) {
	type ownerA struct{}
	type ownerB struct{}
	d := NewDevice(PageSize)
	built := 0
	mk := func() any { built++; return new(int) }
	a, b := d.Volatile(ownerA{}, mk), d.Volatile(ownerB{}, mk)
	if a == b || d.Volatile(ownerA{}, mk) != a || built != 2 {
		t.Fatalf("attachments a=%p b=%p, %d built; want two distinct, each built once", a, b, built)
	}
	d.Crash()
	if d.Volatile(ownerA{}, nil) != nil || d.Volatile(ownerB{}, nil) != nil {
		t.Fatal("an attachment survived the crash")
	}
	if d.Volatile(ownerA{}, mk) == a {
		t.Fatal("the attachment built after the crash is the old one")
	}
}
