package zofs

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"

	"zofs/internal/coffer"
	"zofs/internal/kernfs"
	"zofs/internal/lockprof"
	"zofs/internal/nvm"
	"zofs/internal/pmemtrace"
	"zofs/internal/proc"
	"zofs/internal/series"
	"zofs/internal/spans"
	"zofs/internal/telemetry"
	"zofs/internal/vfs"
)

// Tests for the pieces the allocation-free hot path rewrote: the walk that
// slices the caller's path, the per-inode volatile state table, the device-
// attached shared state, and the allocation budget that is the reason for all
// three.

// TestAllocBudget pins the µFS's own heap allocations per op with every
// collector off, on a device without persistence tracking (what the end-to-end
// benchmark runs on): none. A handle comes off the instance's free list, a
// page list is built in the thread's scratch, and an inode's volatile state
// and dentry slot are found where the last file left them. Create, rename and
// unlink are measured on a stationary tree, after one lap of the same cycle;
// a listing is written into the thread's buffer. What outlives an op is
// carved from a slab — a first-seen inode page's or bucket's state entry, a
// fresh second-level page's free-slot block, a coffer's kernel record and
// path entry, its mount here — and a removed directory's index is reset in
// place: fewer than one object an op.
func TestAllocBudget(t *testing.T) {
	if telemetry.Active() != nil || spans.Active() != nil || series.Active() != nil ||
		lockprof.Active() != nil || pmemtrace.Active() != nil {
		t.Fatal("a collector is on: the budget is stated with all of them off")
	}
	dev := nvm.New(nvm.Config{Size: 256 << 20})
	_, f, th := mountTestFS(t, dev, Options{})
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(f.Mkdir(th, "/dir", 0o755))
	must(f.Mkdir(th, "/dir/sub", 0o755))
	h, err := f.Create(th, "/dir/sub/file", 0o644)
	must(err)
	block, journal := make([]byte, pageSize), make([]byte, 16*pageSize)
	for b := int64(0); b < 16; b++ {
		if _, err := h.WriteAt(th, block, b*pageSize); err != nil {
			t.Fatal(err)
		}
	}

	const runs = 200
	names := func(format string) []string {
		s := make([]string, runs+1) // AllocsPerRun calls f runs+1 times
		for i := range s {
			s[i] = fmt.Sprintf(format, i)
		}
		return s
	}
	created, renamed := names("/dir/sub/c%03d"), names("/dir/sub/r%03d")
	create := func(name string, mode coffer.Mode) {
		h, err := f.Create(th, name, mode)
		must(err)
		must(h.Close(th))
	}
	must(f.Mkdir(th, "/list", 0o755))
	for j := 0; j < 256; j++ {
		create(fmt.Sprintf("/list/e%03d", j), 0o644)
	}
	// /grow gets one name per first-level slot, each growing a second-level
	// page; /fresh's names were renamed away, so their slots are free and
	// their creates take inode pages never used before.
	must(f.Mkdir(th, "/grow", 0o755))
	must(f.Mkdir(th, "/fresh", 0o755))
	must(f.Mkdir(th, "/parked", 0o755))
	must(f.Mkdir(th, "/empty", 0o755))
	var grow []string
	taken := map[int64]bool{}
	for j := 0; len(grow) <= runs; j++ {
		if n := fmt.Sprintf("g%05d", j); !taken[l1Index(nameHash(n))] {
			taken[l1Index(nameHash(n))] = true
			grow = append(grow, "/grow/"+n)
		}
	}
	fresh := names("/fresh/n%03d")
	for _, n := range fresh {
		create(n, 0o644)
		must(f.Rename(th, n, "/parked/"+n[len("/fresh/"):]))
	}
	for _, d := range []string{"/grow", "/empty"} {
		if _, err := f.Stat(th, d+"/absent"); err != vfs.ErrNotExist {
			t.Fatal(err)
		}
	}
	empty, err := f.Stat(th, "/empty")
	must(err)
	for _, n := range created {
		create(n, 0o644)
	}
	for j, n := range created {
		must(f.Rename(th, n, renamed[j]))
	}
	for _, n := range renamed {
		must(f.Unlink(th, n))
	}

	i := 0
	next := func(s []string) string { i++; return s[(i-1)%len(s)] }
	cases := []struct {
		name string
		max  float64
		f    func()
	}{
		{"Stat hit", 0, func() {
			if _, err := f.Stat(th, "/dir/sub/file"); err != nil {
				t.Fatal(err)
			}
		}},
		{"Stat miss", 0, func() {
			if _, err := f.Stat(th, "/dir/sub/absent"); err != vfs.ErrNotExist {
				t.Fatal(err)
			}
		}},
		{"ReadAt 4 KiB", 0, func() {
			if _, err := h.ReadAt(th, block, 2*pageSize); err != nil {
				t.Fatal(err)
			}
		}},
		{"WriteAt 4 KiB in place", 0, func() {
			if _, err := h.WriteAt(th, block, 2*pageSize); err != nil {
				t.Fatal(err)
			}
		}},
		{"Append 4 KiB", 0, func() {
			if _, err := h.Append(th, block); err != nil {
				t.Fatal(err)
			}
		}},
		// The handle is the one the previous Close left.
		{"Open+Close", 0, func() {
			h, err := f.Open(th, "/dir/sub/file", vfs.O_RDONLY)
			must(err)
			must(h.Close(th))
		}},
		// The inode page is a recycled one, so its state entry, its dentry
		// slot and its place in the index are all there already.
		{"Create+Close", 0, func() { create(next(created), 0o644) }},
		// The recycled inode pages are all taken now: the creates below take
		// fresh ones, whose state entries they carve.
		{"Create+Close on a new inode page", 0, func() { create(next(fresh), 0o644) }},
		{"Create+Close growing a second-level page", 0, func() { create(next(grow), 0o644) }},
		// The inode page comes back, and with it the index rmdir reset.
		{"Mkdir+Rmdir of an empty directory", 0, func() {
			must(f.Mkdir(th, "/dir/empty", 0o755))
			must(f.Rmdir(th, "/dir/empty"))
		}},
		{"Stat miss rebuilding a reset index", 0, func() {
			f.sh.resetDir(empty.Inode)
			if _, err := f.Stat(th, "/empty/absent"); err != vfs.ErrNotExist {
				t.Fatal(err)
			}
		}},
		// A database journal's life: sixteen blocks taken from and returned
		// to the thread's cache, their list at unlink built in its scratch.
		{"Create + 64 KiB write + Close + Unlink", 0, func() {
			j, err := f.Create(th, "/dir/sub/journal", 0o644)
			must(err)
			if _, err := j.WriteAt(th, journal, 0); err != nil {
				t.Fatal(err)
			}
			must(j.Close(th))
			must(f.Unlink(th, "/dir/sub/journal"))
		}},
		{"Rename in the same directory", 0, func() {
			from := next(created)
			must(f.Rename(th, from, renamed[(i-1)%len(renamed)]))
		}},
		{"Unlink", 0, func() { must(f.Unlink(th, next(renamed))) }},
		{"Symlink+Unlink", 0, func() {
			must(f.Symlink(th, "/some/target", "/dir/sub/link"))
			must(f.Unlink(th, "/dir/sub/link"))
		}},
		// A coffer root: coffer_new, then coffer_delete. The delete is not
		// free: it moves the device's dcache epoch (ROADMAP item 20), so the
		// next walk rebuilds each directory index it passes, decoding every
		// name in it — the objects these two rows count.
		{"Create+Close+Unlink of a coffer root", 8, func() {
			create("/dir/sub/private", 0o600)
			must(f.Unlink(th, "/dir/sub/private"))
		}},
		{"Mkdir+Rmdir of a coffer root", 7, func() {
			must(f.Mkdir(th, "/dir/private", 0o700))
			must(f.Rmdir(th, "/dir/private"))
		}},
		// coffer_split, then coffer_merge.
		{"Chmod split+merge-back", 0, func() {
			must(f.Chmod(th, "/dir/sub/file", 0o600))
			must(f.Chmod(th, "/dir/sub/file", 0o644))
		}},
		// The listing fills the thread's buffer, which the first run sized.
		{"ReadDir of 256 entries", 0, func() {
			if ents, err := f.ReadDir(th, "/list"); err != nil || len(ents) != 256 {
				t.Fatalf("listed %d of 256: %v", len(ents), err)
			}
		}},
	}
	for _, c := range cases {
		i = 0
		got := testing.AllocsPerRun(runs, c.f)
		t.Logf("%s: %v allocs/op, budget %v", c.name, got, c.max)
		if got > c.max {
			t.Errorf("%s: over budget", c.name)
		}
	}
}

// makeCoffer creates a directory with a mode that differs from its parent's,
// which makes it the root of its own coffer, and returns the coffer's ID.
func makeCoffer(t *testing.T, k *kernfs.KernFS, f *FS, th *proc.Thread, path string) coffer.ID {
	t.Helper()
	if err := f.Mkdir(th, path, 0o700); err != nil {
		t.Fatalf("Mkdir %s: %v", path, err)
	}
	id, ok := k.LookupPath(nil, path)
	if !ok {
		t.Fatalf("%s did not become a coffer", path)
	}
	return id
}

// TestWalkSiblingCofferPrefix: coffer roots /a/b and /a/bc — one a string
// prefix of the other, but not a path prefix — each resolve to their own
// coffer, as do files below them and the plain directory between.
func TestWalkSiblingCofferPrefix(t *testing.T) {
	_, k, f, th := newTestFS(t, Options{})
	if err := f.Mkdir(th, "/a", 0o755); err != nil {
		t.Fatal(err)
	}
	b := makeCoffer(t, k, f, th, "/a/b")
	bc := makeCoffer(t, k, f, th, "/a/bc")
	for _, p := range []string{"/a/b/x", "/a/bc/x", "/a/b/c"} {
		if _, err := f.Create(th, p, 0o600); err != nil {
			t.Fatalf("Create %s: %v", p, err)
		}
	}
	for _, c := range []struct {
		path string
		want coffer.ID
	}{
		{"/a", k.RootCoffer()}, {"/a/b", b}, {"/a/bc", bc},
		{"/a/b/x", b}, {"/a/bc/x", bc}, {"/a/b/c", b},
	} {
		fi, err := f.Stat(th, c.path)
		if err != nil || fi.Coffer != c.want {
			t.Errorf("Stat(%s) = coffer %d, %v; want coffer %d", c.path, fi.Coffer, err, c.want)
		}
		pos, err := f.walk(th, c.path, true, false)
		if err != nil {
			t.Fatalf("walk(%s): %v", c.path, err)
		}
		if pos.path != c.path || pos.m.id != c.want {
			t.Errorf("walk(%s) ended at %q in coffer %d, want coffer %d", c.path, pos.path, pos.m.id, c.want)
		}
		pos.close()
	}
	if _, err := f.Stat(th, "/a/bcd"); err != vfs.ErrNotExist {
		t.Errorf("Stat(/a/bcd) = %v, want ErrNotExist", err)
	}
}

// TestWalkFromRootCoffer: the root coffer's path is the separator itself, so
// the first component starts right after it — at "/", one level down and
// through a nested coffer.
func TestWalkFromRootCoffer(t *testing.T) {
	_, k, f, th := newTestFS(t, Options{})
	if err := f.Mkdir(th, "/d", 0o755); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Create(th, "/d/f", 0o644); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		path string
		typ  vfs.FileType
	}{{"/", vfs.TypeDir}, {"/d", vfs.TypeDir}, {"/d/f", vfs.TypeRegular}} {
		pos, err := f.walk(th, c.path, true, false)
		if err != nil {
			t.Fatalf("walk(%s): %v", c.path, err)
		}
		if pos.path != c.path || pos.typ != c.typ || pos.m.id != k.RootCoffer() {
			t.Errorf("walk(%s) = %q type %v coffer %d", c.path, pos.path, pos.typ, pos.m.id)
		}
		if c.path == "/" && pos.ino != pos.m.root {
			t.Errorf("walk(/) ended at inode %d, root is %d", pos.ino, pos.m.root)
		}
		pos.close()
	}
}

// TestWalkMidSymlinkRemainder: a symlink met before the last component hands
// the dispatcher the target joined with everything not yet walked, cleaned.
func TestWalkMidSymlinkRemainder(t *testing.T) {
	_, _, f, th := newTestFS(t, Options{})
	if err := f.Mkdir(th, "/d", 0o755); err != nil {
		t.Fatal(err)
	}
	for link, target := range map[string]string{"/d/abs": "/real", "/d/rel": "../else/./where"} {
		if err := f.Symlink(th, target, link); err != nil {
			t.Fatal(err)
		}
	}
	for _, c := range []struct{ path, want string }{
		{"/d/abs/x/y/z", "/real/x/y/z"},
		{"/d/abs/x", "/real/x"},
		{"/d/rel/x/y", "/else/where/x/y"},
		{"/d/abs", "/real"}, // final component, followed
	} {
		_, err := f.walk(th, c.path, true, false)
		var se *vfs.SymlinkError
		if !errors.As(err, &se) || se.Path != c.want {
			t.Errorf("walk(%s) = %v, want a symlink expansion to %q", c.path, err, c.want)
		}
	}
	if pos, err := f.walk(th, "/d/abs", false, false); err != nil || pos.typ != vfs.TypeSymlink {
		t.Errorf("walk(/d/abs) without following: %+v, %v", pos, err)
	} else {
		pos.close()
	}
}

// TestWalkNameTooLongInTheMiddle: the length check is per component, wherever
// it sits.
func TestWalkNameTooLongInTheMiddle(t *testing.T) {
	_, _, f, th := newTestFS(t, Options{})
	if err := f.Mkdir(th, "/d", 0o755); err != nil {
		t.Fatal(err)
	}
	long := strings.Repeat("n", MaxNameLen+1)
	for _, p := range []string{"/d/" + long + "/f", "/" + long + "/d/f", "/d/" + long} {
		if _, err := f.Stat(th, p); err != vfs.ErrNameTooLong {
			t.Errorf("Stat with an over-long component at %d: %v, want ErrNameTooLong", strings.Index(p, long), err)
		}
	}
	if _, err := f.Stat(th, "/d/"+long[1:]); err != vfs.ErrNotExist {
		t.Errorf("a component of exactly MaxNameLen: %v, want ErrNotExist", err)
	}
}

// TestOpenUnlinkCloseReclaims: a file unlinked while two processes hold it
// open keeps its pages until the last of them closes, and is readable until
// then; the open count lives in the shared per-inode state both see.
func TestOpenUnlinkCloseReclaims(t *testing.T) {
	withDebugPool(t)
	dev, k, f, th := newTestFS(t, Options{})
	// Take the first kernel batches and the directory page before the baseline.
	warm, err := f.Create(th, "/f", 0o644)
	if err != nil {
		t.Fatal(err)
	}
	data := []byte(strings.Repeat("kept while open ", 3*pageSize/16))
	warm.WriteAt(th, data, 0)
	warm.Close(th)
	if err := f.Unlink(th, "/f"); err != nil {
		t.Fatal(err)
	}
	start := idlePages(k, f)

	h1, err := f.Create(th, "/f", 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h1.WriteAt(th, data, 0); err != nil {
		t.Fatal(err)
	}
	th2 := proc.NewProcess(dev, 0, 0).NewThread()
	if err := k.FSMount(th2); err != nil {
		t.Fatal(err)
	}
	f2 := New(k, Options{})
	h2, err := f2.Open(th2, "/f", vfs.O_RDONLY)
	if err != nil {
		t.Fatal(err)
	}
	held := idlePages(k, f)
	if held != start-4 {
		t.Fatalf("3 data pages + inode: idle pages %d -> %d", start, held)
	}
	if err := f.Unlink(th, "/f"); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Stat(th, "/f"); err != vfs.ErrNotExist {
		t.Fatalf("the name after unlink: %v", err)
	}
	if got := idlePages(k, f); got != held {
		t.Fatalf("unlink of an open file freed pages: idle %d -> %d", held, got)
	}
	buf := make([]byte, len(data))
	if n, err := h2.ReadAt(th2, buf, 0); err != nil || string(buf[:n]) != string(data) {
		t.Fatalf("read through the surviving handle: %d bytes, %v", n, err)
	}
	if err := h2.Close(th2); err != nil {
		t.Fatal(err)
	}
	if got := idlePages(k, f); got != held {
		t.Fatalf("first of two closes freed pages: idle %d -> %d", held, got)
	}
	if err := h1.Close(th); err != nil {
		t.Fatal(err)
	}
	if got := idlePages(k, f); got != start {
		t.Fatalf("last close left idle pages at %d, baseline %d", got, start)
	}
	if err := h1.Close(th); err != nil || idlePages(k, f) != start {
		t.Fatal("a second Close of the same handle did something")
	}
	if err := verifyLive(f); err != nil {
		t.Fatal(err)
	}
}

// TestInodeStateTableConcurrent hammers the state table from real goroutines
// (run under -race): many threads looking up overlapping keys must agree on
// one entry per key, and on one directory index per inode key however often
// it is reset, and the open counts must balance.
func TestInodeStateTableConcurrent(t *testing.T) {
	var s shared
	const workers, keys, laps = 8, 257, 50
	var wg sync.WaitGroup
	seen := make([][keys]*inoState, workers)
	dirs := make([][keys]*dirIndex, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for lap := 0; lap < laps; lap++ {
				for k := 0; k < keys; k++ {
					key := int64(k - keys/2) // bucket keys are negative
					seen[w][k] = s.state(key)
					s.retain(key)
					s.release(key)
					if key >= 0 {
						dirs[w][k] = s.dir(key)
						s.resetDir(key)
					}
				}
			}
		}(w)
	}
	wg.Wait()
	for k := 0; k < keys; k++ {
		st := s.state(int64(k - keys/2))
		for w := range seen {
			if seen[w][k] != st || dirs[w][k] != st.dir {
				t.Fatalf("key %d: worker %d saw a different entry", k-keys/2, w)
			}
		}
		if st.opens != 0 {
			t.Fatalf("key %d: %d opens left", k-keys/2, st.opens)
		}
	}
}

// TestSharedStateDiesWithDevice: the volatile state hangs off the device, so
// a discarded device takes its lock table and directory cache along. Before,
// a process-wide registry kept every device's state forever: ~20 MiB a pass of
// the metadata benchmark.
func TestSharedStateDiesWithDevice(t *testing.T) {
	pass := func() {
		dev := nvm.New(nvm.Config{Size: 64 << 20})
		_, f, th := mountTestFS(t, dev, Options{})
		for d := 0; d < 8; d++ {
			dir := fmt.Sprintf("/d%d", d)
			if err := f.Mkdir(th, dir, 0o755); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 256; i++ {
				h, err := f.Create(th, fmt.Sprintf("%s/file-%04d", dir, i), 0o644)
				if err != nil {
					t.Fatal(err)
				}
				h.Close(th)
			}
		}
		if DirCacheDirs(dev) == 0 {
			t.Fatal("the pass built no shared state")
		}
	}
	live := func() uint64 {
		runtime.GC()
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}
	pass() // whatever the first device leaves behind for good (lazy inits)
	base := live()
	const passes = 6
	for i := 0; i < passes; i++ {
		pass()
	}
	// One pass's shared state is over 1 MiB (2k inode states, 2k indexed
	// dentries); allow a fraction of that in total for heap noise.
	grown := int64(live()) - int64(base)
	t.Logf("%d fresh devices grew the live heap by %d KiB", passes, grown>>10)
	if grown > 256<<10 {
		t.Fatalf("live heap grew by %d KiB: a device's shared state outlives it", grown>>10)
	}
}

// TestResetSharedDropsState: dropping the device's attachments, as a crash
// or a reboot does, empties every table, and a mount after it starts from new
// state.
func TestResetSharedDropsState(t *testing.T) {
	dev, _, f, th := newTestFS(t, Options{})
	h, err := f.Create(th, "/f", 0o644)
	if err != nil {
		t.Fatal(err)
	}
	fi, _ := h.Stat(th)
	old := sharedFor(dev)
	if old != f.sh || old.state(fi.Inode).opens != 1 || DirCacheDirs(dev) == 0 {
		t.Fatal("the open handle is not in the device's shared state")
	}
	dev.DropVolatile()
	if dev.Volatile(sharedKey{}, nil) != nil {
		t.Fatal("DropVolatile left state on the device")
	}
	if fresh := sharedFor(dev); fresh == old || fresh.state(fi.Inode).opens != 0 || DirCacheDirs(dev) != 0 {
		t.Fatal("state after DropVolatile is not fresh")
	}
}
