package zofs

import (
	"bytes"
	"testing"
	"testing/quick"

	"zofs/internal/byteflow"
	"zofs/internal/kernfs"
	"zofs/internal/nvm"
	"zofs/internal/perfmodel"
	"zofs/internal/proc"
)

// What kernfs.ResolveLongest charges, in virtual ns. A miss is the backwards
// parse: one hash probe per prefix tried plus one component step per prefix
// that was not a coffer root. A hit on the thread's last resolution is one
// component compare.
const (
	resolveHit        = perfmodel.CPUPathComponent                               // 25
	resolveMissDepth2 = 2*perfmodel.CPUHashLookup + perfmodel.CPUPathComponent   // 85: "/d"  or "/p/f" under coffer /p
	resolveMissDepth3 = 3*perfmodel.CPUHashLookup + 2*perfmodel.CPUPathComponent // 140: "/d/f" under coffer /
)

// TestResolveOncePerOpCost pins the memo's effect on whole µFS calls. Two
// Stats of one path differ by exactly (miss − hit): everything after the
// resolve is the same walk. Create resolves its parent, so after a Stat of
// the file (what the dispatcher's routing amounts to) its walk is a hit, and
// with a cold memo a miss one component shallower.
func TestResolveOncePerOpCost(t *testing.T) {
	if resolveHit != 25 || resolveMissDepth2 != 85 || resolveMissDepth3 != 140 {
		t.Fatalf("cost model moved: hit %d, depth-2 miss %d, depth-3 miss %d",
			resolveHit, resolveMissDepth2, resolveMissDepth3)
	}
	_, k, f, th := newTestFS(t, Options{})
	if err := f.Mkdir(th, "/d", 0o755); err != nil {
		t.Fatal(err)
	}
	for _, n := range []string{"/d/f", "/d/g"} {
		h, err := f.Create(th, n, 0o644)
		if err != nil {
			t.Fatal(err)
		}
		h.Close(th)
	}
	stat := func(path string) int64 {
		t.Helper()
		t0 := th.Clk.Now()
		if _, err := f.Stat(th, path); err != nil {
			t.Fatal(err)
		}
		return th.Clk.Now() - t0
	}
	stat("/d/f") // warm the inode header and dentry index; memo = /d/f
	stat("/d/g") // likewise for g; memo = /d/g
	miss := stat("/d/f")
	hit := stat("/d/f")
	if miss-hit != resolveMissDepth3-resolveHit {
		t.Fatalf("Stat with a cold memo %d vns, repeated %d: differ by %d, want %d",
			miss, hit, miss-hit, resolveMissDepth3-resolveHit)
	}
	if sib := stat("/d/g"); sib != miss {
		t.Fatalf("Stat of a sibling cost %d vns, want the full parse (%d)", sib, miss)
	}

	// The dispatcher's resolve of the full path serves Create's parent walk.
	create := func(path string, routed bool) int64 {
		t.Helper()
		k.ResolveLongest(th.Clk, "/elsewhere") // displace the memo
		if routed {
			k.ResolveLongest(th.Clk, path)
		}
		t0 := th.Clk.Now()
		h, err := f.Create(th, path, 0o644)
		if err != nil {
			t.Fatal(err)
		}
		c := th.Clk.Now() - t0
		h.Close(th)
		return c
	}
	create("/d/warm", false) // first create takes the lease grants
	cold := create("/d/c1", false)
	routed := create("/d/c2", true)
	if cold-routed != resolveMissDepth2-resolveHit {
		t.Fatalf("Create with a cold memo %d vns, after routing %d: differ by %d, want %d",
			cold, routed, cold-routed, resolveMissDepth2-resolveHit)
	}
}

// TestAppendCostBudget pins ZoFS's steady-state 4KB append cost (Table 2's
// headline single-process number). The budget is dominated by the 4KB
// non-temporal store (~390 vns at Optane write bandwidth+latency); lease
// words, the block-map store, and the size commit add a few hundred more.
// A regression past 2,000 vns would put ZoFS behind NOVA and silently
// invert the paper's Table 2 ordering — that must fail loudly here instead.
func TestAppendCostBudget(t *testing.T) {
	dev := nvm.NewDevice(1 << 30)
	if err := kernfs.Mkfs(dev, kernfs.MkfsOptions{RootMode: 0o755}); err != nil {
		t.Fatal(err)
	}
	k, err := kernfs.Mount(dev)
	if err != nil {
		t.Fatal(err)
	}
	p := proc.NewProcess(dev, 0, 0)
	th := p.NewThread()
	if err := k.FSMount(th); err != nil {
		t.Fatal(err)
	}
	f := New(k, Options{})
	if err := f.EnsureRootDir(th); err != nil {
		t.Fatal(err)
	}
	h, err := f.Create(th, "/f", 0o644)
	if err != nil {
		t.Fatal(err)
	}
	blk := make([]byte, 4096)
	for i := 0; i < 64; i++ { // absorb one-time lease grants
		if _, err := h.Append(th, blk); err != nil {
			t.Fatal(err)
		}
	}
	start := th.Clk.Now()
	const ops = 512
	for i := 0; i < ops; i++ {
		if _, err := h.Append(th, blk); err != nil {
			t.Fatal(err)
		}
	}
	avg := (th.Clk.Now() - start) / ops
	// Lower bound: the data store alone costs ~390 vns; anything below
	// means the write stopped being charged at all.
	if avg < 390 || avg > 2000 {
		t.Fatalf("steady-state 4KB append = %d vns/op, want 390..2000", avg)
	}
}

// TestBlockSlotProperties drives blockSlot with testing/quick: every valid
// block index resolves to a distinct, 8-byte-aligned slot (the block map
// is injective — two blocks never share a pointer word), and out-of-range
// indices are rejected. Exercises all three regions (direct, indirect,
// double-indirect).
func TestBlockSlotProperties(t *testing.T) {
	dev := nvm.NewDevice(1 << 30)
	if err := kernfs.Mkfs(dev, kernfs.MkfsOptions{RootMode: 0o755}); err != nil {
		t.Fatal(err)
	}
	k, _ := kernfs.Mount(dev)
	p := proc.NewProcess(dev, 0, 0)
	th := p.NewThread()
	k.FSMount(th)
	f := New(k, Options{})
	f.EnsureRootDir(th)
	hv, err := f.Create(th, "/p", 0o644)
	if err != nil {
		t.Fatal(err)
	}
	h := hv.(*file)
	m, err := h.remap(th, true)
	if err != nil {
		t.Fatal(err)
	}
	cl := f.window(th, m, true)
	defer cl.close()

	seen := make(map[int64]int64)
	check := func(raw int64) bool {
		// Fold the random index into the valid range, hitting all regions.
		idx := raw % maxBlocks
		if idx < 0 {
			idx = -idx % maxBlocks
		}
		slot, err := f.blockSlot(th, m, h.ino, idx, true)
		if err != nil || slot == 0 {
			t.Logf("blockSlot(%d): slot=%d err=%v", idx, slot, err)
			return false
		}
		if slot%8 != 0 {
			t.Logf("blockSlot(%d) = %d: unaligned", idx, slot)
			return false
		}
		if prev, dup := seen[slot]; dup && prev != idx {
			t.Logf("blocks %d and %d share slot %d", prev, idx, slot)
			return false
		}
		seen[slot] = idx
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
	// Region boundaries, exactly.
	for _, idx := range []int64{0, inoDirectCnt - 1, inoDirectCnt,
		inoDirectCnt + ptrsPerPage - 1, inoDirectCnt + ptrsPerPage, maxBlocks - 1} {
		if !check(idx) {
			t.Fatalf("boundary index %d failed", idx)
		}
	}
	// Out of range is an error, not a wild slot.
	if _, err := f.blockSlot(th, m, h.ino, maxBlocks, false); err == nil {
		t.Fatal("index past maxBlocks accepted")
	}
	if _, err := f.blockSlot(th, m, h.ino, -1, false); err == nil {
		t.Fatal("negative index accepted")
	}
}

// TestReadCostPins pins the data-read path on a file written front to back.
// A 4 KiB read is one pointer load and one device access under the window
// and the read lock: 482 vns, what it cost a block at a time. A 64 KiB read
// is sixteen pointer loads and still one device access, paying the media
// latency once (305 + 1680 for the bytes): a block at a time it was 6857.
func TestReadCostPins(t *testing.T) {
	_, _, f, th := newTestFS(t, Options{})
	h, err := f.Create(th, "/f", 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.WriteAt(th, make([]byte, 1<<20), 0); err != nil {
		t.Fatal(err)
	}
	read := func(n int, off int64) int64 {
		t.Helper()
		buf := make([]byte, n)
		t0 := th.Clk.Now()
		if got, err := h.ReadAt(th, buf, off); err != nil || got != n {
			t.Fatalf("ReadAt(%d at %d) = %d, %v", n, off, got, err)
		}
		return th.Clk.Now() - t0
	}
	read(4096, 0) // settle the lease and the mapping
	if c := read(4096, 7*4096); c != 482 {
		t.Fatalf("4 KiB read = %d vns, want 482", c)
	}
	if c := read(64<<10, 33*4096); c < 305+1680 || c > 2400 {
		t.Fatalf("64 KiB read = %d vns, want one media access (>= 1985) and <= 2400", c)
	}
}

// TestUnlinkScrubBytes pins the allocator bytes an unlink writes: the scrub
// of the freed inode page over what it can hold (freeInode). An empty file
// scrubs its header, a 3-block file its header, its indirect words and three
// direct slots in one store, a symlink its header and target, an empty
// directory its header. A file whose
// lease epoch left 0 is scrubbed whole; a lease parked by another thread
// proves that thread's hold ended, so it does not.
func TestUnlinkScrubBytes(t *testing.T) {
	dev, _, f, th := newTestFS(t, Options{})
	dev.EnableAccounting()
	const target = "/some/target/path"
	newFile := func(path string, n int) *file {
		h := mustCreate(t, f, th, path)
		if n > 0 {
			mustWrite(t, th, h, make([]byte, n), 0)
		}
		h.Close(th)
		return h
	}
	scrubbed := func(rm func(string) error, path string) int64 {
		t.Helper()
		before := dev.FlowSnapshot().Issued[byteflow.ClassAlloc]
		if err := rm(path); err != nil {
			t.Fatal(err)
		}
		return dev.FlowSnapshot().Issued[byteflow.ClassAlloc] - before
	}
	unlink := func(p string) error { return f.Unlink(th, p) }

	newFile("/empty", 0)
	newFile("/three", 3*pageSize)
	newFile("/parked", 0)
	th2 := th.Proc.NewThread()
	if err := f.Truncate(th2, "/parked", 0); err != nil { // th2 locks, then parks
		t.Fatal(err)
	}
	stolen := newFile("/stolen", 0).ino
	PlantInodeLeaseEpoch(dev, stolen, th2.TID, 0, 1)
	if err := f.Truncate(th, "/stolen", 0); err != nil { // a steal: epoch 1
		t.Fatal(err)
	}
	if err := f.Symlink(th, target, "/link"); err != nil {
		t.Fatal(err)
	}
	if err := f.Mkdir(th, "/dir", 0o755); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		rm   func(string) error
		path string
		want int64
	}{
		{"empty file", unlink, "/empty", inoHeaderLen},
		{"3-block file", unlink, "/three", inoDirectOff + 3*8},
		{"lease parked by another thread", unlink, "/parked", inoHeaderLen},
		{"lease epoch 1", unlink, "/stolen", pageSize},
		{"symlink", unlink, "/link", inoHeaderLen + 2 + int64(len(target))},
		{"empty directory", func(p string) error { return f.Rmdir(th, p) }, "/dir", inoHeaderLen},
	} {
		if got := scrubbed(c.rm, c.path); got != c.want {
			t.Errorf("%s: unlink wrote %d allocator bytes, want %d", c.name, got, c.want)
		}
	}
}

// TestMergeScrubsPoolPageSlots pins what a merge-back writes to the split
// coffer's pool page as it goes back on the parent's metadata list: zeros
// over the magic word and the pool slots, all ZoFS ever writes there. The
// page must then read zero, as every metadata page handed out does.
func TestMergeScrubsPoolPageSlots(t *testing.T) {
	withDebugPool(t)
	dev, k, f, th := newTestFS(t, Options{})
	h := mustCreate(t, f, th, "/f")
	mustWrite(t, th, h, make([]byte, 3*pageSize), 0)
	h.Close(th)
	if err := f.Chmod(th, "/f", 0o600); err != nil {
		t.Fatal(err)
	}
	id, ok := k.LookupPath(nil, "/f")
	if !ok {
		t.Fatal("chmod 0600 did not split")
	}
	rp, _ := k.Info(id)
	dev.EnableAccounting()
	if err := f.Chmod(th, "/f", 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := k.LookupPath(nil, "/f"); ok {
		t.Fatal("chmod 0644 did not merge back")
	}
	var wrote int64
	for _, w := range dev.WearSnapshot() {
		if w.Page == rp.Custom {
			wrote = w.Bytes
		}
	}
	if want := int64(poolOff + poolSlots*slotSize); wrote != want {
		t.Fatalf("merge-back wrote %d B to the pool page, want %d", wrote, want)
	}
	v, _ := dev.ReadViewNoCharge(rp.Custom*pageSize, pageSize)
	if !bytes.Equal(v, make([]byte, pageSize)) {
		t.Fatal("the merged pool page does not read zero")
	}
}
