package nvm

import (
	"bytes"
	"testing"

	"zofs/internal/simclock"
)

// TestReadViewAliasesImage: a read view returns the live device bytes and
// stays coherent with later writes (it is a window, not a snapshot).
func TestReadViewAliasesImage(t *testing.T) {
	d := NewDevice(8 << 20)
	clk := simclock.NewClock()
	data := []byte("view me")
	d.WriteNT(clk, 4096, data)

	v, ok := d.ReadView(clk, 4096, int64(len(data)))
	if !ok {
		t.Fatal("single-page view refused")
	}
	if !bytes.Equal(v, data) {
		t.Fatalf("view reads %q, want %q", v, data)
	}
	d.WriteNT(clk, 4096, []byte("VIEW"))
	if !bytes.Equal(v[:4], []byte("VIEW")) {
		t.Fatalf("view went stale: %q", v[:7])
	}
}

// TestReadViewChargesLikeRead: the zero-copy path must not be cheaper on
// the media model — only the DRAM staging copy is saved.
func TestReadViewChargesLikeRead(t *testing.T) {
	d := NewDevice(8 << 20)
	for _, n := range []int64{64, 512, 4096} {
		c1, c2 := simclock.NewClock(), simclock.NewClock()
		buf := make([]byte, n)
		d.Read(c1, 0, buf)
		if _, ok := d.ReadView(c2, 0, n); !ok {
			t.Fatalf("n=%d: view refused", n)
		}
		if c1.Now() != c2.Now() {
			t.Fatalf("n=%d: Read charged %d, ReadView %d", n, c1.Now(), c2.Now())
		}
	}
}

// TestViewSpanCrossChunk: ranges crossing a lazy-chunk boundary are not
// view-eligible and must report ok=false so callers fall back to copies.
func TestViewSpanCrossChunk(t *testing.T) {
	d := NewDevice(16 << 20)
	clk := simclock.NewClock()
	boundary := int64(chunkBytes)
	if _, ok := d.ReadView(clk, boundary-8, 16); ok {
		t.Fatal("cross-chunk read view handed out")
	}
	if _, _, ok := d.WriteView(clk, boundary-8, 16); ok {
		t.Fatal("cross-chunk write view handed out")
	}
	if _, ok := d.ReadView(clk, boundary-16, 16); !ok {
		t.Fatal("boundary-adjacent in-chunk view refused")
	}
	if _, ok := d.ReadView(clk, 0, 0); ok {
		t.Fatal("empty view handed out")
	}
}

// TestReadViewHoleReadsZero: a view over a never-written chunk is all
// zeros and does not materialize the chunk.
func TestReadViewHoleReadsZero(t *testing.T) {
	d := NewDevice(16 << 20)
	clk := simclock.NewClock()
	v, ok := d.ReadView(clk, chunkBytes+123, 4000)
	if !ok {
		t.Fatal("hole view refused")
	}
	for i, b := range v {
		if b != 0 {
			t.Fatalf("hole byte %d = %d, want 0", i, b)
		}
	}
}

// TestWriteViewCommitPersists: fill-then-commit has WriteNT semantics —
// the same charge, visible data, and no dirty lines left behind under
// persistence tracking.
func TestWriteViewCommitPersists(t *testing.T) {
	d := New(Config{Size: 8 << 20, TrackPersistence: true})
	c1 := simclock.NewClock()
	buf, commit, ok := d.WriteView(c1, 8192, 120)
	if !ok {
		t.Fatal("write view refused")
	}
	for i := range buf {
		buf[i] = byte(i)
	}
	commit.Done()

	c2 := simclock.NewClock()
	d.WriteNT(c2, 16384, make([]byte, 120))
	if c1.Now() != c2.Now() {
		t.Fatalf("WriteView charged %d, WriteNT %d", c1.Now(), c2.Now())
	}

	// A crash must preserve committed view contents: nothing dirty remains.
	d.Crash()
	out := make([]byte, 120)
	d.ReadNoCharge(8192, out)
	for i := range out {
		if out[i] != byte(i) {
			t.Fatalf("committed view byte %d = %d, want %d", i, out[i], byte(i))
		}
	}
}

// TestWriteViewIsolatesFromReadPath: the borrowed write window must not
// hand out the shared zero chunk (writing through it would corrupt every
// hole on the device).
func TestWriteViewIsolatesFromReadPath(t *testing.T) {
	d := NewDevice(16 << 20)
	clk := simclock.NewClock()
	// chunk at chunkBytes is untouched; a write view must materialize it.
	buf, commit, ok := d.WriteView(clk, chunkBytes, 64)
	if !ok {
		t.Fatal("write view refused")
	}
	buf[0] = 0xAB
	commit.Done()
	rv, _ := d.ReadView(clk, 2*chunkBytes, 64) // a different hole
	if rv[0] != 0 {
		t.Fatal("write view aliased the shared zero chunk")
	}
	out := make([]byte, 1)
	d.ReadNoCharge(chunkBytes, out)
	if out[0] != 0xAB {
		t.Fatal("write view contents not visible through the read path")
	}
}
