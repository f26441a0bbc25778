package zofs

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"zofs/internal/mpk"
	"zofs/internal/nvm"
	"zofs/internal/proc"
	"zofs/internal/telemetry"
	"zofs/internal/vfs"
)

// Tests for the data path in runs: layout (ascending grants, recycled runs),
// copy (one device access per run on read and write) and the short write.

var runVariants = []struct {
	name string
	opts Options
}{
	{"default", Options{}},
}

// newCountedFS is newTestFS with a telemetry recorder on the device.
func newCountedFS(t *testing.T, opts Options) (*telemetry.Recorder, *FS, *proc.Thread) {
	t.Helper()
	dev, _, f, th := newTestFS(t, opts)
	rec := telemetry.New()
	dev.SetRecorder(rec)
	return rec, f, th
}

func counter(rec *telemetry.Recorder, name string) int64 { return rec.Snapshot().Counters[name] }

func mustCreate(t *testing.T, f *FS, th *proc.Thread, path string) *file {
	t.Helper()
	h, err := f.Create(th, path, 0o644)
	if err != nil {
		t.Fatalf("Create(%q): %v", path, err)
	}
	return h.(*file)
}

func mustWrite(t *testing.T, th *proc.Thread, h vfs.Handle, p []byte, off int64) {
	t.Helper()
	if n, err := h.WriteAt(th, p, off); err != nil || n != len(p) {
		t.Fatalf("WriteAt(%d bytes at %d) = %d, %v", len(p), off, n, err)
	}
}

// patterned returns n bytes that differ from block to block and from file to
// file (tag), never zero, so a misplaced run or a hole shows up.
func patterned(n int, tag byte) []byte {
	p := make([]byte, n)
	for off := 0; off < n; off += pageSize {
		copy(p[off:min(n, off+pageSize)], patternCycle[(off/pageSize*7+int(tag))%255:])
	}
	return p
}

// patternCycle is 1..255 repeated, long enough to copy a block from any phase.
var patternCycle = func() []byte {
	c := make([]byte, pageSize+255)
	for i := range c {
		c[i] = byte(1 + i%255)
	}
	return c
}()

// blockPages returns the device page of each of the file's first n blocks,
// read one slot at a time: the per-block walk the run walker replaced, kept
// here as the oracle for it.
func blockPages(t *testing.T, f *FS, th *proc.Thread, h *file, n int64) []int64 {
	t.Helper()
	m, err := h.remap(th, false)
	if err != nil {
		t.Fatal(err)
	}
	defer f.window(th, m, false).close()
	pages := make([]int64, n)
	for idx := range pages {
		slot, err := f.blockSlot(th, m, h.ino, int64(idx), false)
		if err != nil {
			t.Fatal(err)
		}
		if slot != 0 {
			pages[idx] = int64(th.Load64Cached(slot))
		}
	}
	return pages
}

// fragments counts the pieces an access to blocks [0, len(pages)) falls into:
// maximal ranges of consecutive pages, or of holes, cut where the block map
// moves to its next pointer array.
func fragments(pages []int64) int64 {
	var n int64
	for i, pg := range pages {
		first, _ := leafSpan(int64(i))
		prev := int64(-1)
		if i > 0 && int64(i) != first {
			prev = pages[i-1]
		}
		if prev < 0 || (pg == 0) != (prev == 0) || (pg != 0 && pg != prev+1) {
			n++
		}
	}
	return n
}

func blocksOf(size int64) int64 { return (size + pageSize - 1) / pageSize }

// TestRunsTable builds files of different shapes and requires, for every
// allocator/layout variant: a whole-file ReadAt is byte-exact and makes one
// device read per fragment with data; a whole-file overwrite makes one
// streaming store per fragment (plus the mtime word); and both still hold
// after the overwrite filled the holes.
func TestRunsTable(t *testing.T) {
	type built struct {
		h     *file
		model []byte
	}
	// put writes data at a block offset and mirrors it in the model.
	put := func(t *testing.T, th *proc.Thread, b *built, blk int64, nblk int, tag byte) {
		t.Helper()
		p := patterned(nblk*pageSize, tag)
		mustWrite(t, th, b.h, p, blk*pageSize)
		if end := int(blk)*pageSize + len(p); end > len(b.model) {
			b.model = append(b.model, make([]byte, end-len(b.model))...)
		}
		copy(b.model[blk*pageSize:], p)
	}
	shapes := []struct {
		name  string
		holes bool
		build func(*testing.T, *FS, *proc.Thread) *built
	}{
		{"sequential 1 MiB", false, func(t *testing.T, f *FS, th *proc.Thread) *built {
			b := &built{h: mustCreate(t, f, th, "/a")}
			for i := int64(0); i < 256; i++ {
				put(t, th, b, i, 1, 1)
			}
			return b
		}},
		{"two files appended alternately", false, func(t *testing.T, f *FS, th *proc.Thread) *built {
			b, other := &built{h: mustCreate(t, f, th, "/a")}, &built{h: mustCreate(t, f, th, "/b")}
			for i := int64(0); i < 64; i++ {
				put(t, th, b, i, 1, 1)
				put(t, th, other, i, 1, 2)
			}
			return b
		}},
		{"two files appended four blocks at a time", false, func(t *testing.T, f *FS, th *proc.Thread) *built {
			b, other := &built{h: mustCreate(t, f, th, "/a")}, &built{h: mustCreate(t, f, th, "/b")}
			for i := int64(0); i < 64; i += 4 {
				put(t, th, b, i, 4, 1)
				put(t, th, other, i, 4, 2)
			}
			return b
		}},
		{"across the three map levels", false, func(t *testing.T, f *FS, th *proc.Thread) *built {
			b := &built{h: mustCreate(t, f, th, "/a")}
			put(t, th, b, 0, inoDirectCnt+ptrsPerPage+ptrsPerPage+9, 3)
			return b
		}},
		{"holes at every map level", true, func(t *testing.T, f *FS, th *proc.Thread) *built {
			b := &built{h: mustCreate(t, f, th, "/a")}
			for _, at := range []struct {
				blk  int64
				nblk int
			}{
				{1, 2}, {5, 1}, {inoDirectCnt - 1, 2}, // leaves the direct slots
				{inoDirectCnt + 3, 2}, {inoDirectCnt + ptrsPerPage - 1, 1},
				{inoDirectCnt + ptrsPerPage + 7, 2},
				{inoDirectCnt + 3*ptrsPerPage + 1, 1}, // second-level page 1 stays absent
			} {
				put(t, th, b, at.blk, at.nblk, byte(at.blk))
			}
			return b
		}},
		{"grown from a small first write", false, func(t *testing.T, f *FS, th *proc.Thread) *built {
			b := &built{h: mustCreate(t, f, th, "/a")}
			p := patterned(100, 9)
			mustWrite(t, th, b.h, p, 0)
			b.model = append(b.model, p...)
			p = patterned(3*pageSize, 4)
			mustWrite(t, th, b.h, p, 100) // straddles four blocks
			b.model = append(b.model, p...)
			return b
		}},
	}
	for _, v := range runVariants {
		for _, s := range shapes {
			t.Run(v.name+"/"+s.name, func(t *testing.T) {
				rec, f, th := newCountedFS(t, v.opts)
				b := s.build(t, f, th)
				size := int64(len(b.model))
				check := func(when string) {
					t.Helper()
					pages := blockPages(t, f, th, b.h, blocksOf(size))
					var data int64 // fragments that are not holes
					for i, pg := range pages {
						if pg != 0 {
							data += fragments(pages[:i+1]) - fragments(pages[:i])
						}
					}
					got := make([]byte, size+10)
					r0 := counter(rec, "nvm.reads")
					n, err := b.h.ReadAt(th, got, 0)
					if err != nil || int64(n) != size {
						t.Fatalf("%s: ReadAt = %d, %v; want %d", when, n, err, size)
					}
					if !bytes.Equal(got[:n], b.model) {
						t.Fatalf("%s: content differs from the model", when)
					}
					if reads := counter(rec, "nvm.reads") - r0; reads != data {
						t.Fatalf("%s: %d device reads for %d fragments with data (%d with holes)",
							when, reads, data, fragments(pages))
					}
				}
				check("as built")

				// Write the whole range back in one call.
				b.model = patterned(len(b.model), 77)
				frags := fragments(blockPages(t, f, th, b.h, blocksOf(size)))
				s0 := counter(rec, "nvm.nt_stores")
				mustWrite(t, th, b.h, b.model, 0)
				if stores := counter(rec, "nvm.nt_stores") - s0; !s.holes && stores != frags+1 {
					t.Fatalf("overwrite made %d streaming stores, want %d (one per fragment) + the mtime word", stores, frags)
				}
				check("after the overwrite")
				if err := verifyLive(f); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

// TestSequentialWriteIsOneRun: a fresh file written front to back lies in
// ascending consecutive pages, so a 64 KiB read anywhere inside is one device
// access and a 1 MiB overwrite one streaming store. A file whose pages were
// freed by unlink, or by truncate, hands the same run back to the next writer.
func TestSequentialWriteIsOneRun(t *testing.T) {
	for _, v := range runVariants {
		t.Run(v.name, func(t *testing.T) {
			rec, f, th := newCountedFS(t, v.opts)
			data := patterned(1<<20, 5)
			h := mustCreate(t, f, th, "/f")
			for off := 0; off < len(data); off += pageSize {
				mustWrite(t, th, h, data[off:off+pageSize], int64(off))
			}
			laid := blockPages(t, f, th, h, 256)
			if n := fragments(laid); n != 1 {
				t.Fatalf("1 MiB written sequentially lies in %d fragments: %v", n, laid)
			}
			buf := make([]byte, 64<<10)
			for _, off := range []int64{0, 5 * pageSize, 240 * pageSize, 3*pageSize + 17} {
				r0, t0 := counter(rec, "nvm.reads"), th.Clk.Now()
				if n, err := h.ReadAt(th, buf, off); err != nil || n != len(buf) || !bytes.Equal(buf, data[off:off+int64(n)]) {
					t.Fatalf("ReadAt(64 KiB at %d) = %d, %v", off, n, err)
				}
				if reads := counter(rec, "nvm.reads") - r0; reads != 1 {
					t.Fatalf("64 KiB read at %d made %d device reads", off, reads)
				}
				if cost := th.Clk.Now() - t0; cost > 2400 {
					t.Fatalf("64 KiB read at %d cost %d vns", off, cost)
				}
			}
			s0 := counter(rec, "nvm.nt_stores")
			mustWrite(t, th, h, data, 0)
			if stores := counter(rec, "nvm.nt_stores") - s0; stores != 2 {
				t.Fatalf("1 MiB overwrite made %d streaming stores, want the data and the mtime word", stores)
			}

			// Truncate to nothing and write again through the same handle.
			if err := f.Truncate(th, "/f", 0); err != nil {
				t.Fatal(err)
			}
			mustWrite(t, th, h, data, 0)
			if again := blockPages(t, f, th, h, 256); !equalPages(again, laid) {
				t.Fatalf("rewritten after truncate: pages %v, first time %v", again, laid)
			}
			// Unlink and write a new file of the same size.
			h.Close(th)
			if err := f.Unlink(th, "/f"); err != nil {
				t.Fatal(err)
			}
			h = mustCreate(t, f, th, "/g")
			mustWrite(t, th, h, data, 0)
			if again := blockPages(t, f, th, h, 256); !equalPages(again, laid) {
				t.Fatalf("written after unlink: pages %v, the unlinked file's %v", again, laid)
			}
		})
	}
}

func equalPages(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestRunIsCheckedPerPage: the PKRU check of a run covers each of its pages,
// not just the first. The middle page of a three-page run is retagged to a
// protection key the open window does not grant; reading or writing the run
// must raise mpk.Violation on that page.
func TestRunIsCheckedPerPage(t *testing.T) {
	_, _, f, th := newTestFS(t, Options{})
	h := mustCreate(t, f, th, "/f")
	mustWrite(t, th, h, patterned(3*pageSize, 1), 0)
	pages := blockPages(t, f, th, h, 3)
	if fragments(pages) != 1 {
		t.Fatalf("premise: three blocks in one run, got %v", pages)
	}
	key, ok := th.Proc.Mem.KeyOf(pages[1])
	if !ok {
		t.Fatal("premise: the file's page is mapped")
	}
	foreign := key%14 + 1 // any other key
	th.Proc.Mem.Map(pages[1], 1, foreign, true)
	for _, op := range []struct {
		name string
		do   func() (int, error)
	}{
		{"read", func() (int, error) { return h.ReadAt(th, make([]byte, 3*pageSize), 0) }},
		{"write", func() (int, error) { return h.WriteAt(th, make([]byte, 3*pageSize), 0) }},
	} {
		t.Run(op.name, func(t *testing.T) {
			defer func() {
				v, ok := recover().(mpk.Violation)
				if !ok {
					t.Fatal("no mpk.Violation raised")
				}
				if v.Page != pages[1] {
					t.Fatalf("violation on page %d, want the retagged page %d", v.Page, pages[1])
				}
			}()
			n, err := op.do()
			t.Fatalf("access through a foreign page returned %d, %v", n, err)
		})
	}
}

// TestShortWriteLeavesNoBlockBeyondSize: a write that runs out of space
// part-way commits what it mapped as a short write, and only a write that
// mapped nothing returns ErrNoSpace. Either way no block is left beyond the
// size, where neither truncate nor unlink would find it: after unlinking,
// every page is idle again.
func TestShortWriteLeavesNoBlockBeyondSize(t *testing.T) {
	for _, startBlk := range []int64{0, inoDirectCnt - 40} {
		t.Run(fmt.Sprintf("from block %d", startBlk), func(t *testing.T) {
			withDebugPool(t)
			dev := nvm.NewDevice(16 << 20)
			k, f, th := mountTestFS(t, dev, Options{DataEnlargeBatch: 64})
			// Take both classes' first grants and the directory's pages
			// before the baseline.
			for _, name := range []string{"/filler", "/f"} {
				w := mustCreate(t, f, th, name)
				mustWrite(t, th, w, make([]byte, pageSize), 0)
				w.Close(th)
				if err := f.Unlink(th, name); err != nil {
					t.Fatal(err)
				}
			}
			start := idlePages(k, f)

			// Leave the kernel less than the write needs, more than a grant.
			filler := mustCreate(t, f, th, "/filler")
			chunk := make([]byte, 64*pageSize)
			for k.FreePages() >= 200 {
				if _, err := filler.Append(th, chunk); err != nil {
					t.Fatal(err)
				}
			}
			h := mustCreate(t, f, th, "/f")
			data := patterned(1<<20, 3)
			off := startBlk * pageSize
			n, err := h.WriteAt(th, data, off)
			if err != nil || n <= 0 || n >= len(data) || n%pageSize != 0 {
				t.Fatalf("1 MiB write with %d pages free = %d, %v; want a short write of whole blocks", k.FreePages(), n, err)
			}
			if fi, err := h.Stat(th); err != nil || fi.Size != off+int64(n) {
				t.Fatalf("size %d after a short write of %d at %d (%v)", fi.Size, n, off, err)
			}
			got := make([]byte, len(data))
			if m, err := h.ReadAt(th, got, off); err != nil || m != n || !bytes.Equal(got[:m], data[:n]) {
				t.Fatalf("read back %d, %v after a short write of %d", m, err, n)
			}
			// Exhaust what is left, then a write maps nothing at all.
			for {
				m, err := h.WriteAt(th, data, off+int64(n))
				if err != nil {
					if m != 0 || !errors.Is(err, vfs.ErrNoSpace) {
						t.Fatalf("write with no space = %d, %v", m, err)
					}
					break
				}
				n += m
			}
			if fi, _ := h.Stat(th); fi.Size != off+int64(n) {
				t.Fatalf("size %d, want %d", fi.Size, off+int64(n))
			}
			h.Close(th)
			filler.Close(th)
			for _, name := range []string{"/f", "/filler"} {
				if err := f.Unlink(th, name); err != nil {
					t.Fatal(err)
				}
			}
			if got := idlePages(k, f); got != start {
				t.Fatalf("idle pages %d after unlinking everything, baseline %d: %d leaked", got, start, start-got)
			}
			if err := verifyLive(f); err != nil {
				t.Fatal(err)
			}
		})
	}
}
