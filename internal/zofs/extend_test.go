package zofs

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"zofs/internal/kernfs"
	"zofs/internal/nvm"
	"zofs/internal/proc"
	"zofs/internal/vfs"
)

// Bytes at or past EOF are undefined on the device; whatever makes them
// readable zeroes them first. These tests leave bytes past EOF the ways the
// file system can — an append lost to a crash before its size commit, a
// writer fenced off by a lease steal — and then extend the file both ways.

// extenders are the two ways a file grows over bytes it did not write: a
// truncate up, and a write past EOF (its one byte, 'C', lands at to-1).
var extenders = []struct {
	name string
	grow func(f *FS, th *proc.Thread, h vfs.Handle, path string, to int64) error
}{
	{"Truncate", func(f *FS, th *proc.Thread, _ vfs.Handle, path string, to int64) error {
		return f.Truncate(th, path, to)
	}},
	{"WriteAt", func(_ *FS, th *proc.Thread, h vfs.Handle, _ string, to int64) error {
		_, err := h.WriteAt(th, []byte{'C'}, to-1)
		return err
	}},
}

// checkExtended requires the file to read as want followed by zeros up to
// to, the byte the WriteAt extender put at to-1 aside.
func checkExtended(t *testing.T, th *proc.Thread, h vfs.Handle, want []byte, to int64, where, extender string) {
	t.Helper()
	got := readAll(t, th, h, to)
	if !bytes.Equal(got[:len(want)], want) {
		t.Fatalf("%s: the %d committed bytes changed", where, len(want))
	}
	gap := got[len(want):]
	if extender == "WriteAt" {
		if gap[len(gap)-1] != 'C' {
			t.Fatalf("%s: byte %d reads %q, want the written 'C'", where, to-1, gap[len(gap)-1])
		}
		gap = gap[:len(gap)-1]
	}
	for i, b := range gap {
		if b != 0 {
			t.Fatalf("%s: byte %d reads %q after the %s extension, want 0", where, len(want)+i, b, extender)
		}
	}
}

// TestLostAppendStaysLost crashes an append of 100 bytes to a 100-byte file
// after each of its persisting stores. Wherever recovery comes back with the
// old size, the appended bytes may still sit on the device past EOF;
// extending the file over them must read zeros, not the lost bytes. The file
// grows within its first block, and past it.
func TestLostAppendStaysLost(t *testing.T) {
	const size = 100
	committed := bytes.Repeat([]byte{'A'}, size)
	for _, v := range runVariants {
		t.Run(v.name, func(t *testing.T) {
			// build makes the 100-byte file on a fresh device, so every crash
			// starts from the same image. Its data page is a recycled one,
			// full of another file's bytes.
			build := func() (*nvm.Device, *FS, *proc.Thread, vfs.Handle) {
				dev := nvm.NewDevice(64 << 20)
				_, f, th := mountTestFS(t, dev, v.opts)
				junk := mustCreate(t, f, th, "/junk")
				mustWrite(t, th, junk, bytes.Repeat([]byte{'D'}, 4*pageSize), 0)
				junk.Close(th)
				if err := f.Unlink(th, "/junk"); err != nil {
					t.Fatal(err)
				}
				h := mustCreate(t, f, th, "/f")
				mustWrite(t, th, h, committed, 0)
				return dev, f, th, h
			}
			dev, _, th, h := build()
			w0 := dev.WriteCount()
			if _, err := h.Append(th, bytes.Repeat([]byte{'B'}, size)); err != nil {
				t.Fatal(err)
			}
			points := dev.WriteCount() - w0
			lost := 0
			for k := int64(1); k <= points; k++ {
				for _, to := range []int64{300, 2*pageSize + 1} {
					for _, e := range extenders {
						dev, _, th, h := build()
						dev.FailAfter(k)
						crashed := func() (crashed bool) {
							defer func() {
								if r := recover(); r != nil {
									if !nvm.IsInjectedCrash(r) {
										panic(r)
									}
									crashed = true
								}
							}()
							h.Append(th, bytes.Repeat([]byte{'B'}, size))
							return false
						}()
						if !crashed {
							t.Fatalf("store %d of %d did not crash", k, points)
						}
						dev.FailAfter(0)
						dev.Crash()
						dev.DropVolatile()
						f2, th2 := remountAfterCrash(t, dev, v.opts)
						if mustStat(t, f2, th2, "/f").Size != size {
							continue // the append committed
						}
						lost++
						h2, err := f2.Open(th2, "/f", vfs.O_RDWR)
						if err != nil {
							t.Fatal(err)
						}
						where := fmt.Sprintf("crash after store %d of %d, grown to %d", k, points, to)
						if err := e.grow(f2, th2, h2, "/f", to); err != nil {
							t.Fatalf("%s: %s: %v", where, e.name, err)
						}
						checkExtended(t, th2, h2, committed, to, where, e.name)
					}
				}
			}
			if lost == 0 {
				t.Fatalf("no crash point of %d left the old size: the sweep tests nothing", points)
			}
		})
	}
}

// remountAfterCrash mounts the crashed device again, runs recovery and
// returns a fresh ZoFS instance over it.
func remountAfterCrash(t *testing.T, dev *nvm.Device, opts Options) (*FS, *proc.Thread) {
	t.Helper()
	k, err := kernfs.Mount(dev)
	if err != nil {
		t.Fatalf("remount: %v", err)
	}
	th := proc.NewProcess(dev, 0, 0).NewThread()
	if err := k.FSMount(th); err != nil {
		t.Fatal(err)
	}
	if err := Check(k, th).Err(); err != nil {
		t.Fatalf("fsck: %v", err)
	}
	return New(k, opts), th
}

// TestStolenWriteStaysInvisible: a writer stalls until its lease expires,
// then stores 'B' from EOF across two fresh pages before its commit fence
// rejects it. Its bytes and its block pointers stay past EOF. The stealer
// then extends the file over them and must read zeros.
func TestStolenWriteStaysInvisible(t *testing.T) {
	const size = 100
	to := int64(3 * pageSize)
	committed := bytes.Repeat([]byte{'A'}, size)
	for _, e := range extenders {
		t.Run(e.name, func(t *testing.T) {
			dev, k, f, th := newTestFS(t, Options{})
			h := mustCreate(t, f, th, "/f")
			mustWrite(t, th, h, committed, 0)
			ino := h.ino

			// The stalled writer, in another process: its lease is on the
			// inode but long expired when its stores run.
			thW := proc.NewProcess(dev, 0, 0).NewThread()
			if err := k.FSMount(thW); err != nil {
				t.Fatal(err)
			}
			fW := New(k, Options{})
			m, err := fW.ensureMapped(thW, k.RootCoffer(), true)
			if err != nil {
				t.Fatal(err)
			}
			PlantInodeLeaseEpoch(dev, ino, thW.TID, 0, 1)
			cl := fW.window(thW, m, true)
			_, err = fW.writeAt(thW, m, ino, 0, bytes.Repeat([]byte{'B'}, int(to)-size), size)
			cl.close()
			if !errors.Is(err, vfs.ErrStaleLease) {
				t.Fatalf("stale writer's write returned %v, want ErrStaleLease", err)
			}
			if got := mustStat(t, f, th, "/f").Size; got != size {
				t.Fatalf("size after the fenced write = %d, want %d", got, size)
			}
			if pages := blockPages(t, f, th, h, 3); pages[1] == 0 || pages[2] == 0 {
				t.Fatalf("the fenced write left no pointer past EOF (%v): nothing to scrub", pages)
			}
			if err := e.grow(f, th, h, "/f", to); err != nil {
				t.Fatal(err)
			}
			checkExtended(t, th, h, committed, to, "after the steal", e.name)
		})
	}
}
