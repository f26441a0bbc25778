package zofs

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"zofs/internal/kernfs"
	"zofs/internal/proc"
	"zofs/internal/vfs"
)

// Tests for "do path work once": the resolution memo as the µFS sees it, and
// page conservation of the bounded pointer read and of the merge-back fix.

// mustStat stats path and fails the test on error.
func mustStat(t *testing.T, f *FS, th *proc.Thread, path string) vfs.FileInfo {
	t.Helper()
	fi, err := f.Stat(th, path)
	if err != nil {
		t.Fatalf("Stat(%q): %v", path, err)
	}
	return fi
}

// TestMemoSeesSplitAndMerge: a chmod split turns a memoised path into a
// coffer root and the merge-back deletes that coffer again, once by the
// memoising thread itself and once by another thread between two of its ops.
// A memo that outlived the merge would name a dead coffer.
func TestMemoSeesSplitAndMerge(t *testing.T) {
	for _, who := range []string{"same thread", "another thread"} {
		t.Run(who, func(t *testing.T) {
			_, k, f, th := newTestFS(t, Options{})
			chmodTh := th
			if who == "another thread" {
				chmodTh = th.Proc.NewThread()
			}
			if err := f.Mkdir(th, "/d", 0o755); err != nil {
				t.Fatal(err)
			}
			h, err := f.Create(th, "/d/f", 0o644)
			if err != nil {
				t.Fatal(err)
			}
			h.Close(th)
			root := k.RootCoffer()

			if fi := mustStat(t, f, th, "/d/f"); fi.Coffer != root {
				t.Fatalf("before split: coffer %d, want root %d", fi.Coffer, root)
			}
			if err := f.Chmod(chmodTh, "/d/f", 0o600); err != nil {
				t.Fatal(err)
			}
			split, ok := k.LookupPath(nil, "/d/f")
			if !ok {
				t.Fatal("chmod 0600 did not split")
			}
			if id, p, _ := k.ResolveLongest(th.Clk, "/d/f"); id != split || p != "/d/f" {
				t.Fatalf("after split the thread resolves /d/f to (%d, %q), want (%d, \"/d/f\")", id, p, split)
			}
			if fi := mustStat(t, f, th, "/d/f"); fi.Coffer != split || fi.Mode != 0o600 {
				t.Fatalf("after split: %+v, want coffer %d mode 0600", fi, split)
			}
			if err := f.Chmod(chmodTh, "/d/f", 0o644); err != nil {
				t.Fatal(err)
			}
			if _, ok := k.LookupPath(nil, "/d/f"); ok {
				t.Fatal("chmod 0644 did not merge back")
			}
			if fi := mustStat(t, f, th, "/d/f"); fi.Coffer != root || fi.Mode != 0o644 {
				t.Fatalf("after merge: %+v, want coffer %d mode 0644", fi, root)
			}
		})
	}
}

// TestMemoSeesDeleteAndRename: unlinking a coffer-root file and renaming a
// coffer-root directory both rewrite the path table under a memoised path.
func TestMemoSeesDeleteAndRename(t *testing.T) {
	_, k, f, th := newTestFS(t, Options{})

	// A 0600 file under a 0755 root is a coffer of its own.
	h, err := f.Create(th, "/s", 0o600)
	if err != nil {
		t.Fatal(err)
	}
	h.Close(th)
	if fi := mustStat(t, f, th, "/s"); fi.Coffer == k.RootCoffer() {
		t.Fatal("test premise: /s should be its own coffer")
	}
	if err := f.Unlink(th, "/s"); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Stat(th, "/s"); !errors.Is(err, vfs.ErrNotExist) {
		t.Fatalf("Stat of the deleted coffer file: %v", err)
	}
	if h, err = f.Create(th, "/s", 0o644); err != nil {
		t.Fatal(err)
	}
	h.Close(th)
	if fi := mustStat(t, f, th, "/s"); fi.Coffer != k.RootCoffer() {
		t.Fatalf("recreated in-coffer, Stat says coffer %d", fi.Coffer)
	}

	// A 0700 directory likewise; renaming it goes through RenameCoffer.
	if err := f.Mkdir(th, "/p", 0o700); err != nil {
		t.Fatal(err)
	}
	if h, err = f.Create(th, "/p/f", 0o700); err != nil {
		t.Fatal(err)
	}
	h.Close(th)
	p := mustStat(t, f, th, "/p/f").Coffer
	if err := f.Rename(th, "/p", "/q"); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Stat(th, "/p/f"); !errors.Is(err, vfs.ErrNotExist) {
		t.Fatalf("Stat under the old name: %v", err)
	}
	if fi := mustStat(t, f, th, "/q/f"); fi.Coffer != p {
		t.Fatalf("under the new name: coffer %d, want %d", fi.Coffer, p)
	}
}

// TestMemoAcrossRemount: the thread survives its kernel instance (the
// crash/remount shape) and keeps working against the next one.
func TestMemoAcrossRemount(t *testing.T) {
	dev, _, f, th := newTestFS(t, Options{})
	if err := f.Mkdir(th, "/p", 0o700); err != nil {
		t.Fatal(err)
	}
	h, err := f.Create(th, "/p/f", 0o700)
	if err != nil {
		t.Fatal(err)
	}
	h.Close(th)
	want := mustStat(t, f, th, "/p/f")

	dev.DropVolatile()
	k2, err := kernfs.Mount(dev)
	if err != nil {
		t.Fatal(err)
	}
	if err := k2.FSMount(th); err != nil {
		t.Fatal(err)
	}
	f2 := New(k2, Options{})
	t0 := th.Clk.Now()
	id, p, ok := k2.ResolveLongest(th.Clk, "/p/f")
	if !ok || id != want.Coffer || p != "/p" {
		t.Fatalf("remounted resolve = (%d, %q, %v)", id, p, ok)
	}
	if c := th.Clk.Now() - t0; c != resolveMissDepth2 {
		t.Fatalf("first resolve on the new kernel cost %d vns: the old kernel's memo answered it", c)
	}
	if got := mustStat(t, f2, th, "/p/f"); got.Inode != want.Inode || got.Coffer != want.Coffer {
		t.Fatalf("after remount %+v, before %+v", got, want)
	}
}

// idlePages counts every page no file system structure references: the
// kernel's free pool plus this instance's per-thread batch caches.
func idlePages(k *kernfs.KernFS, f *FS) int64 {
	n := k.FreePages()
	for _, id := range k.Coffers() {
		n += f.cachedPages(id)
	}
	return n
}

// withDebugPool turns the allocator's double-grant / double-free tracking on
// for one test.
func withDebugPool(t *testing.T) {
	prev := debugPool
	SetDebugPool(true)
	t.Cleanup(func() { SetDebugPool(prev) })
}

// TestChmodCycleConservesPages: a chmod 0600 / chmod 0644 cycle splits a file
// into its own coffer and merges it back. The split allocates a pool page for
// the new coffer; after the merge nothing references it, so it must come back
// (it used to leak: one page per cycle).
func TestChmodCycleConservesPages(t *testing.T) {
	withDebugPool(t)
	_, k, f, th := newTestFS(t, Options{})
	h, err := f.Create(th, "/f", 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.WriteAt(th, make([]byte, 3*pageSize), 0); err != nil {
		t.Fatal(err)
	}
	h.Close(th)
	cycle := func() {
		t.Helper()
		if err := f.Chmod(th, "/f", 0o600); err != nil {
			t.Fatal(err)
		}
		if _, ok := k.LookupPath(nil, "/f"); !ok {
			t.Fatal("chmod 0600 did not split")
		}
		if err := f.Chmod(th, "/f", 0o644); err != nil {
			t.Fatal(err)
		}
		if _, ok := k.LookupPath(nil, "/f"); ok {
			t.Fatal("chmod 0644 did not merge back")
		}
	}
	cycle() // first use may take a metadata batch from the kernel
	start := idlePages(k, f)
	const cycles = 24
	for i := 0; i < cycles; i++ {
		cycle()
	}
	if got := idlePages(k, f); got != start {
		t.Fatalf("%d chmod cycles moved idle pages from %d to %d (%+d per cycle)",
			cycles, start, got, (got-start)/cycles)
	}
	if err := verifyLive(f); err != nil {
		t.Fatal(err)
	}
}

// TestUnlinkConservesPages drives filePages' single pointer view through
// every shape of block map — no blocks, direct only, a hole, one block past
// the direct slots, one past the indirect page, and a large file truncated to
// nothing (which keeps its pointer pages until unlink) — and requires unlink
// to hand back exactly what the file took.
func TestUnlinkConservesPages(t *testing.T) {
	blk := make([]byte, pageSize)
	write := func(blocks ...int64) func(*testing.T, *FS, *proc.Thread, vfs.Handle) {
		return func(t *testing.T, f *FS, th *proc.Thread, h vfs.Handle) {
			for _, b := range blocks {
				if _, err := h.WriteAt(th, blk, b*pageSize); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	for _, c := range []struct {
		name string
		fill func(*testing.T, *FS, *proc.Thread, vfs.Handle)
		// pages the file holds besides its inode, just before the unlink
		held int
	}{
		{"empty", write(), 0},
		{"direct only", write(0, 1, 2), 3},
		{"sparse", write(5, inoDirectCnt-1), 2},
		{"past the direct slots", write(0, inoDirectCnt), 3},
		{"past the indirect page", write(0, inoDirectCnt, inoDirectCnt+ptrsPerPage), 6},
		{"grown, then truncated to 0", func(t *testing.T, f *FS, th *proc.Thread, h vfs.Handle) {
			write(0, inoDirectCnt, inoDirectCnt+ptrsPerPage)(t, f, th, h)
			if err := f.Truncate(th, "/f", 0); err != nil {
				t.Fatal(err)
			}
		}, 3},
	} {
		t.Run(c.name, func(t *testing.T) {
			withDebugPool(t)
			_, k, f, th := newTestFS(t, Options{})
			// Before the baseline, take both classes' first kernel batches and
			// the directory page the name hashes to (which outlives the name).
			warm, err := f.Create(th, "/f", 0o644)
			if err != nil {
				t.Fatal(err)
			}
			write(0)(t, f, th, warm)
			warm.Close(th)
			if err := f.Unlink(th, "/f"); err != nil {
				t.Fatal(err)
			}
			start := idlePages(k, f)

			h, err := f.Create(th, "/f", 0o644)
			if err != nil {
				t.Fatal(err)
			}
			c.fill(t, f, th, h)
			h.Close(th)
			pos, err := f.walk(th, "/f", true, false)
			if err != nil {
				t.Fatal(err)
			}
			held := f.filePages(th, pos.ino, nil)
			pos.close()
			if len(held) != c.held {
				t.Fatalf("filePages found %d pages, want %d", len(held), c.held)
			}
			if got := idlePages(k, f); got != start-int64(c.held)-1 {
				t.Fatalf("file holds %d pages + inode, idle pages went %d -> %d", c.held, start, got)
			}
			if err := f.Unlink(th, "/f"); err != nil {
				t.Fatal(err)
			}
			if got := idlePages(k, f); got != start {
				t.Fatalf("unlink left idle pages at %d, baseline %d", got, start)
			}
			if err := verifyLive(f); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestTruncatedFileFreesPointerPages: truncation leaves a file's pointer
// pages in place until unlink, past what its size covers. A file grown past
// the direct slots (an indirect page) or past the indirect page too (a
// double-indirect tree), then truncated to one page, still finds them with
// the one pointer read — 24 bytes: both indirect words and one direct slot
// — and its unlink hands back every page it took, leaving the kernel's
// zeroed-page flags and the space accounting consistent.
func TestTruncatedFileFreesPointerPages(t *testing.T) {
	for _, c := range []struct {
		name string
		last int64 // the highest block written
		held int   // pages after the truncate: block 0 and the pointer pages
	}{
		{"indirect", inoDirectCnt + 8, 2},
		{"double-indirect", inoDirectCnt + ptrsPerPage + 6, 3},
	} {
		t.Run(c.name, func(t *testing.T) {
			withDebugPool(t)
			dev, k, f, th := newTestFS(t, Options{})
			// Take both classes' first kernel batches and the name's
			// directory page before the baseline, as TestUnlinkConservesPages.
			warm := mustCreate(t, f, th, "/f")
			mustWrite(t, th, warm, make([]byte, pageSize), 0)
			warm.Close(th)
			if err := f.Unlink(th, "/f"); err != nil {
				t.Fatal(err)
			}
			start := idlePages(k, f)

			h := mustCreate(t, f, th, "/f")
			mustWrite(t, th, h, make([]byte, pageSize), 0)
			mustWrite(t, th, h, make([]byte, pageSize), c.last*pageSize)
			h.Close(th)
			if err := f.Truncate(th, "/f", pageSize); err != nil {
				t.Fatal(err)
			}
			pos, err := f.walk(th, "/f", true, false)
			if err != nil {
				t.Fatal(err)
			}
			ino := pos.ino
			r0 := dev.BytesRead()
			held := len(f.filePages(th, ino, nil))
			read := dev.BytesRead() - r0
			pos.close()
			if held != c.held {
				t.Fatalf("filePages found %d pages, want %d", held, c.held)
			}
			// Each pointer page is one further 4 KiB read.
			if want := int64(24 + (c.held-1)*pageSize); read != want {
				t.Fatalf("filePages read %d media bytes, want %d (24 from the inode)", read, want)
			}
			if err := f.Unlink(th, "/f"); err != nil {
				t.Fatal(err)
			}
			if got := idlePages(k, f); got != start {
				t.Fatalf("unlink left idle pages at %d, baseline %d", got, start)
			}
			if err := verifyLive(f); err != nil {
				t.Fatal(err)
			}
			// The freed inode page's scrub covered the indirect words.
			page := make([]byte, pageSize)
			dev.ReadNoCharge(ino*pageSize, page)
			if i := bytes.IndexFunc(page, func(r rune) bool { return r != 0 }); i >= 0 {
				t.Fatalf("freed inode page %d holds a byte at offset %d", ino, i)
			}
		})
	}
}

// TestFilePagesReadsOnce pins what the pointer read costs on the media: an
// empty file's unlink reads the two indirect words (16 bytes, one access), a
// file with blocks reads them and the direct slots its size covers in the
// same access (16 + 8 per block), and neither makes further uncached loads.
func TestFilePagesReadsOnce(t *testing.T) {
	for _, c := range []struct {
		blocks int
		bytes  int64
	}{
		{0, 16},
		{2, 16 + 2*8},
	} {
		t.Run(fmt.Sprintf("%d blocks", c.blocks), func(t *testing.T) {
			dev, _, f, th := newTestFS(t, Options{})
			h, err := f.Create(th, "/f", 0o644)
			if err != nil {
				t.Fatal(err)
			}
			if c.blocks > 0 {
				if _, err := h.WriteAt(th, make([]byte, c.blocks*pageSize), 0); err != nil {
					t.Fatal(err)
				}
			}
			h.Close(th)
			pos, err := f.walk(th, "/f", true, false)
			if err != nil {
				t.Fatal(err)
			}
			defer pos.close()
			r0, t0 := dev.BytesRead(), th.Clk.Now()
			if got := len(f.filePages(th, pos.ino, nil)); got != c.blocks {
				t.Fatalf("filePages = %d pages, want %d", got, c.blocks)
			}
			if got := dev.BytesRead() - r0; got != c.bytes {
				t.Fatalf("read %d media bytes, want %d", got, c.bytes)
			}
			// One cached size load and one media access; a second access
			// would add another 305 vns.
			if cost := th.Clk.Now() - t0; cost >= 2*305 {
				t.Fatalf("pointer read cost %d vns: more than one media access", cost)
			}
		})
	}
}
