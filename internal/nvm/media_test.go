package nvm

import (
	"bytes"
	"testing"

	"zofs/internal/simclock"
)

// TestUntouchedMediaReadsZero: bytes never written read zero through every
// read path — in a materialized chunk (fresh media pages), in an untouched
// chunk (the shared zero chunk) and in the device's partial last chunk.
func TestUntouchedMediaReadsZero(t *testing.T) {
	d := NewDevice(2*chunkBytes + 3*PageSize)
	clk := simclock.NewClock()
	d.WriteNT(clk, 64, []byte("materialize chunk 0"))
	d.WriteNT(clk, d.Size()-PageSize, []byte("and the last"))
	for _, off := range []int64{
		PageSize, chunkBytes - PageSize, // chunk 0, touched elsewhere
		chunkBytes + 8,        // chunk 1, never touched
		d.Size() - 2*PageSize, // the partial last chunk, touched elsewhere
	} {
		buf := bytes.Repeat([]byte{0xff}, 64)
		d.Read(clk, off, buf)
		v, ok := d.ReadView(clk, off, 64)
		if !ok {
			t.Fatalf("off %d: view refused", off)
		}
		if !bytes.Equal(buf, make([]byte, 64)) || !bytes.Equal(v, make([]byte, 64)) {
			t.Fatalf("off %d: Read %x, ReadView %x, want zeros", off, buf[:8], v[:8])
		}
		if w := d.Load64(clk, off); w != 0 {
			t.Fatalf("off %d: Load64 = %x, want 0", off, w)
		}
	}
}

// TestImageRoundTripPartialChunk: a device whose size is not a whole number
// of chunks saves and reloads its last chunk, which LoadImage materializes
// whole like any other.
func TestImageRoundTripPartialChunk(t *testing.T) {
	d := NewDevice(chunkBytes + 3*PageSize)
	tail := d.Size() - 16
	d.WriteNT(nil, tail, []byte("the last sixteen"))
	var img bytes.Buffer
	if err := d.SaveImage(&img); err != nil {
		t.Fatal(err)
	}
	d2, err := LoadImage(&img)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 16)
	d2.ReadNoCharge(tail, got)
	if string(got) != "the last sixteen" {
		t.Fatalf("tail after reload = %q", got)
	}
	d2.Store64(nil, tail-8, 7)
	if v := d2.Load64(nil, tail-8); v != 7 {
		t.Fatalf("Load64 on the reloaded tail = %d", v)
	}
}
