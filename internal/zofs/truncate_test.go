package zofs

import (
	"bytes"
	"fmt"
	"testing"

	"zofs/internal/kernfs"
	"zofs/internal/nvm"
	"zofs/internal/proc"
	"zofs/internal/vfs"
)

// Tests for truncate a pointer page at a time: content and page conservation
// at every map level, every crash point inside Truncate, and its cost.

// Block numbers where the map changes level.
const (
	indFirst = inoDirectCnt             // first block behind the indirect page
	dblFirst = indFirst + ptrsPerPage   // first block behind the double-indirect tree
	dblSecnd = dblFirst + ptrsPerPage   // first block of its second second-level page
	allLevel = dblSecnd + 40            // blocks in a file that uses every pointer array kind
	someHole = indFirst + ptrsPerPage/2 // a block inside a hole of holedFile
)

// holedFile writes a file of allLevel blocks with a hole of ten blocks at
// each map level and returns its content.
func holedFile(t *testing.T, th *proc.Thread, h vfs.Handle) []byte {
	t.Helper()
	model := patterned(allLevel*pageSize, 11)
	for _, hole := range []int64{50, someHole - 5, dblFirst + 20} {
		clear(model[hole*pageSize : (hole+10)*pageSize])
	}
	for blk := int64(0); blk < allLevel; {
		end := blk
		for end < allLevel && model[end*pageSize] != 0 {
			end++
		}
		if end > blk {
			mustWrite(t, th, h, model[blk*pageSize:end*pageSize], blk*pageSize)
		}
		blk = end + 1
	}
	return model
}

// usedPages is the number of granted pages that are neither on a free list
// nor in a batch cache, over all coffers.
func usedPages(f *FS) int64 {
	var n int64
	for _, cs := range f.SpaceReport() {
		n += cs.Used
	}
	return n
}

func readAll(t *testing.T, th *proc.Thread, h vfs.Handle, size int64) []byte {
	t.Helper()
	buf := make([]byte, size+1)
	n, err := h.ReadAt(th, buf, 0)
	if err != nil || int64(n) != size {
		t.Fatalf("ReadAt(whole file) = %d, %v; want %d", n, err, size)
	}
	return buf[:n]
}

func TestTruncateEveryLevel(t *testing.T) {
	for _, v := range runVariants {
		for _, c := range []struct {
			name    string
			newSize int64
		}{
			{"to nothing", 0},
			{"mid-direct", 100*pageSize + 123},
			{"on a block boundary", 200 * pageSize},
			{"mid-indirect", (indFirst+200)*pageSize + 1},
			{"to the end of the indirect page", dblFirst * pageSize},
			{"mid-double-indirect", (dblFirst+300)*pageSize + 4000},
			{"into the second second-level page", (dblSecnd+10)*pageSize + 7},
			{"into a hole", someHole*pageSize + 10},
		} {
			t.Run(v.name+"/"+c.name, func(t *testing.T) {
				withDebugPool(t)
				_, _, f, th := newTestFS(t, v.opts)
				start := usedPages(f)
				h := mustCreate(t, f, th, "/t")
				model := holedFile(t, th, h)
				before := usedPages(f)

				// Every mapped block wholly past the new size comes back.
				var dead int64
				for blk := blocksOf(c.newSize); blk < allLevel; blk++ {
					if model[blk*pageSize] != 0 {
						dead++
					}
				}
				if err := f.Truncate(th, "/t", c.newSize); err != nil {
					t.Fatal(err)
				}
				if fi := mustStat(t, f, th, "/t"); fi.Size != c.newSize {
					t.Fatalf("size %d after truncate to %d", fi.Size, c.newSize)
				}
				if got := usedPages(f); got != before-dead {
					t.Fatalf("truncate freed %d pages, want %d", before-got, dead)
				}
				if !bytes.Equal(readAll(t, th, h, c.newSize), model[:c.newSize]) {
					t.Fatal("content below the new size changed")
				}

				// Re-extend: everything past the cut reads as zeros, and
				// writing there maps fresh pages.
				if err := f.Truncate(th, "/t", int64(len(model))); err != nil {
					t.Fatal(err)
				}
				clear(model[c.newSize:])
				if !bytes.Equal(readAll(t, th, h, int64(len(model))), model) {
					t.Fatal("re-extended file does not read zeros past the cut")
				}
				copy(model[c.newSize:], patterned(len(model)-int(c.newSize), 33))
				mustWrite(t, th, h, model[c.newSize:], c.newSize)
				if !bytes.Equal(readAll(t, th, h, int64(len(model))), model) {
					t.Fatal("content written past the cut does not read back")
				}

				h.Close(th)
				if err := f.Unlink(th, "/t"); err != nil {
					t.Fatal(err)
				}
				// The directory page /t hashed to outlives the name.
				if got := usedPages(f); got > start+2 {
					t.Fatalf("%d pages in use after unlink, %d before the file existed", got, start)
				}
				if err := f.VerifySpace(); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

// TestTruncateCrashPoints crashes Truncate around every persisting store it
// makes (the size commit, the boundary-page scrub, one streaming
// clear per pointer array), recovers, and requires: the size is the new one (the old one only if the
// commit itself did not land) with the content below it intact; the dropped
// blocks re-extend to zeros; and no page is both reachable from the file and
// granted again — pages handed to a new file never alias the old one.
func TestTruncateCrashPoints(t *testing.T) {
	const newSize = 3*pageSize + 100
	for _, v := range runVariants {
		t.Run(v.name, func(t *testing.T) {
			// build makes a file on a fresh device, two blocks at either end of
			// every pointer array; the truncate then starts from the same
			// state every time.
			build := func() (*nvm.Device, *FS, *proc.Thread, []byte) {
				dev := nvm.NewDevice(64 << 20)
				_, f, th := mountTestFS(t, dev, v.opts)
				h := mustCreate(t, f, th, "/t")
				model := make([]byte, allLevel*pageSize)
				for _, blk := range []int64{0, 2, indFirst - 2, indFirst, dblFirst - 2, dblFirst, dblSecnd - 2, dblSecnd, allLevel - 2} {
					p := model[blk*pageSize : (blk+2)*pageSize]
					copy(p, patterned(len(p), byte(blk)))
					mustWrite(t, th, h, p, blk*pageSize)
				}
				h.Close(th)
				return dev, f, th, model
			}
			dev, f, th, _ := build()
			w0 := dev.WriteCount()
			if err := f.Truncate(th, "/t", newSize); err != nil {
				t.Fatal(err)
			}
			points := dev.WriteCount() - w0
			if points < 5 {
				t.Fatalf("truncate made %d persisting stores: fewer than the size commit, the scrub and three pointer arrays", points)
			}
			other := patterned(2<<20, 99)
			// The stores persist as they are issued, so the image before store
			// k is the image after store k-1: crash before the first store,
			// then after each.
			for k := int64(0); k <= points; k++ {
				dev, f, th, model := build()
				if k == 0 {
					dev.FailAtStart(1)
				} else {
					dev.FailAfter(k)
				}
				crashed := func() (crashed bool) {
					defer func() {
						if r := recover(); r != nil {
							if !nvm.IsInjectedCrash(r) {
								panic(r)
							}
							crashed = true
						}
					}()
					f.Truncate(th, "/t", newSize)
					return false
				}()
				if !crashed {
					t.Fatalf("store %d of %d did not crash", k, points)
				}
				dev.FailAfter(0)
				dev.Crash()
				ResetShared(dev)
				where := fmt.Sprintf("crash after store %d of %d", k, points)

				k2, err := kernfs.Mount(dev)
				if err != nil {
					t.Fatalf("%s: remount: %v", where, err)
				}
				th2 := proc.NewProcess(dev, 0, 0).NewThread()
				if err := k2.FSMount(th2); err != nil {
					t.Fatal(err)
				}
				if _, err := FsckAll(k2, th2); err != nil {
					t.Fatalf("%s: fsck: %v", where, err)
				}
				f2 := New(k2, v.opts)
				size := mustStat(t, f2, th2, "/t").Size
				if size != newSize && !(size == int64(len(model)) && k == 0) {
					t.Fatalf("%s: recovered size %d, want %d", where, size, newSize)
				}
				h, err := f2.Open(th2, "/t", vfs.O_RDWR)
				if err != nil {
					t.Fatalf("%s: %v", where, err)
				}
				if !bytes.Equal(readAll(t, th2, h, size), model[:size]) {
					t.Fatalf("%s: content below the recovered size changed", where)
				}
				// Re-extended, the dropped blocks read as zeros. (The rest of
				// the boundary block is scrubbed after the size commit, as it
				// always was: a crash between the two leaves stale bytes there,
				// so that tail is not compared.)
				if err := f2.Truncate(th2, "/t", int64(len(model))); err != nil {
					t.Fatal(err)
				}
				clear(model[size:])
				cut := blocksOf(size) * pageSize
				same := func() bool {
					got := readAll(t, th2, h, int64(len(model)))
					return bytes.Equal(got[:size], model[:size]) && bytes.Equal(got[cut:], model[cut:])
				}
				if !same() {
					t.Fatalf("%s: re-extended file does not read zeros past the cut", where)
				}
				// Nothing past the size is still mapped (a page recovery
				// handed back could be granted again under the pointer) ...
				for blk, pg := range blockPages(t, f2, th2, h.(*file), allLevel) {
					if int64(blk) >= blocksOf(size) && pg != 0 {
						t.Fatalf("%s: block %d past the size still maps page %d", where, blk, pg)
					}
				}
				// ... and another file's new pages do not alias this one's.
				n := mustCreate(t, f2, th2, "/n")
				mustWrite(t, th2, n, other, 0)
				if !same() {
					t.Fatalf("%s: the file changed under a write to another file", where)
				}
				held := map[int64]bool{}
				for _, path := range []string{"/t", "/n"} {
					pos, err := f2.walk(th2, path, true, false)
					if err != nil {
						t.Fatal(err)
					}
					for _, pg := range f2.filePages(th2, pos.ino, nil) {
						if held[pg] {
							t.Fatalf("%s: page %d is reachable twice", where, pg)
						}
						held[pg] = true
					}
					pos.close()
				}
				if err := f2.VerifySpace(); err != nil {
					t.Fatalf("%s: %v", where, err)
				}
			}
		})
	}
}

// TestTruncateCost pins the virtual cost of dropping a 16 MiB file's blocks:
// nine pointer arrays read and cleared once each and 4096 pages pushed onto
// the free list, 69 µs. Slot by slot it was two uncached loads and a
// fenced store per block, 2.8 ms.
func TestTruncateCost(t *testing.T) {
	_, _, f, th := newTestFS(t, Options{})
	h := mustCreate(t, f, th, "/log")
	mustWrite(t, th, h, make([]byte, 16<<20), 0)
	t0 := th.Clk.Now()
	if err := f.Truncate(th, "/log", 0); err != nil {
		t.Fatal(err)
	}
	if cost := th.Clk.Now() - t0; cost < 4096*15 || cost > 100_000 {
		t.Fatalf("truncating 16 MiB cost %d vns, want between the 4096 free-list pushes (61440) and 100000", cost)
	}
}
