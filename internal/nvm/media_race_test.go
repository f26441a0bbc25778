//go:build race

package nvm

import (
	"runtime"
	"testing"
)

// TestRaceMediaOnHeap: under the race detector device media is Go heap
// memory, which the detector instruments; a mapping it cannot see would let
// unsynchronized device accesses pass `go test -race` unreported.
func TestRaceMediaOnHeap(t *testing.T) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	d := NewDevice(2 * chunkBytes)
	d.WriteNT(nil, chunkBytes, []byte("on the heap"))
	runtime.ReadMemStats(&after)
	if grew := after.TotalAlloc - before.TotalAlloc; grew < chunkBytes {
		t.Fatalf("materializing a chunk allocated %d heap bytes, want >= %d", grew, chunkBytes)
	}
}
