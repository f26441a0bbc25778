//go:build linux && !race

package nvm

import (
	"runtime"
	"testing"
	"time"
)

// settledMapped collects garbage until every unreachable device has released
// its media, then returns the bytes still mapped.
func settledMapped(t *testing.T) int64 {
	t.Helper()
	last, same := mappedBytes.Load(), 0
	for deadline := time.Now().Add(10 * time.Second); same < 5; {
		if time.Now().After(deadline) {
			t.Fatalf("mapped media still changing: %d bytes", last)
		}
		runtime.GC()
		time.Sleep(2 * time.Millisecond)
		if cur := mappedBytes.Load(); cur == last {
			same++
		} else {
			last, same = cur, 0
		}
	}
	return last
}

// TestMediaLeavesWithDevice: each device maps its media whole, and the
// mapping is released once the device is unreachable — a dropped device
// leaks no memory the collector cannot see.
func TestMediaLeavesWithDevice(t *testing.T) {
	const n, size = 8, 3 * chunkBytes
	base := settledMapped(t)
	devs := make([]*Device, n)
	for i := range devs {
		devs[i] = New(Config{Size: size, TrackPersistence: true})
		for c := int64(0); c < size; c += chunkBytes {
			devs[i].WriteNT(nil, c+int64(i)*PageSize, []byte("touched"))
		}
	}
	if got := mappedBytes.Load() - base; got != n*size {
		t.Fatalf("%d devices of %d bytes mapped %d bytes", n, size, got)
	}
	devs = nil
	if got := settledMapped(t); got != base {
		t.Fatalf("after dropping the devices %d bytes are mapped, want %d", got, base)
	}
}

// TestChunkMaterializesOffHeap: first touch of a chunk stores a pointer into
// the device's mapping and allocates nothing.
func TestChunkMaterializesOffHeap(t *testing.T) {
	d := New(Config{Size: 64 * chunkBytes})
	next := int64(0)
	if a := testing.AllocsPerRun(16, func() {
		d.WriteNT(nil, next, []byte{1})
		next += chunkBytes
	}); a != 0 {
		t.Fatalf("materializing a chunk costs %.1f heap allocations, want 0", a)
	}
}
