package zofs

import (
	"errors"
	"fmt"
	"maps"
	"strings"
	"testing"

	"zofs/internal/coffer"
	"zofs/internal/nvm"
	"zofs/internal/proc"
	"zofs/internal/vfs"
)

// A creator that fails after taking its inode page must give the page back:
// each test counts the idle pages (kernel free pool plus batch caches) around
// the failed calls and then reconciles the space books.

// TestFailedCreatorsConservePages: a name one byte too long fails Create,
// Mkdir and Symlink alike, and none of them keeps a page. (Symlink used to
// find out from the dentry insert, after initialising an inode page it then
// dropped: one page per call, lost until fsck.)
func TestFailedCreatorsConservePages(t *testing.T) {
	withDebugPool(t)
	_, k, f, th := newTestFS(t, Options{})
	if err := f.Mkdir(th, "/d", 0o755); err != nil { // first use takes a metadata batch
		t.Fatal(err)
	}
	long := "/d/" + strings.Repeat("n", MaxNameLen+1)
	start := idlePages(k, f)
	for i := 0; i < 5; i++ {
		if _, err := f.Create(th, long, 0o644); !errors.Is(err, vfs.ErrNameTooLong) {
			t.Fatalf("create: %v", err)
		}
		if err := f.Mkdir(th, long, 0o755); !errors.Is(err, vfs.ErrNameTooLong) {
			t.Fatalf("mkdir: %v", err)
		}
		if err := f.Symlink(th, "/d", long); !errors.Is(err, vfs.ErrNameTooLong) {
			t.Fatalf("symlink: %v", err)
		}
		if err := f.Symlink(th, strings.Repeat("t", pageSize), fmt.Sprintf("/d/l%d", i)); !errors.Is(err, vfs.ErrNameTooLong) {
			t.Fatalf("symlink to an over-long target: %v", err)
		}
	}
	if got := idlePages(k, f); got != start {
		t.Fatalf("failed creators moved idle pages from %d to %d", start, got)
	}
	if err := verifyLive(f); err != nil {
		t.Fatal(err)
	}
}

// TestCreatorsOnAFullDeviceConservePages fills a small device, then hands
// the allocator one page at a time: the creator's inode takes it, and a name
// that needs the directory to grow finds nothing left for the dentry. The
// failed call must put the inode page back. (Mkdir and Symlink returned the
// insert's error with the page in hand.)
func TestCreatorsOnAFullDeviceConservePages(t *testing.T) {
	withDebugPool(t)
	k, f, th := mountTestFS(t, nvm.NewDevice(8<<20), Options{DataEnlargeBatch: 1, MetaEnlargeBatch: 1})
	// /d/first gives /d its first-level table, so that growing /d from here
	// on is one allocation: it happens or it does not.
	for _, d := range []string{"/d", "/d/first", "/spare"} {
		if err := f.Mkdir(th, d, 0o755); err != nil {
			t.Fatal(err)
		}
	}
	spare := 0
	for ; ; spare++ {
		h, err := f.Create(th, fmt.Sprintf("/spare/%d", spare), 0o755)
		if errors.Is(err, vfs.ErrNoSpace) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		h.Close(th)
	}
	creators := []struct {
		name string
		make func(path string) error
	}{
		{"create", func(p string) error {
			h, err := f.Create(th, p, 0o755)
			if err == nil {
				err = h.Close(th)
			}
			return err
		}},
		{"mkdir", func(p string) error { return f.Mkdir(th, p, 0o755) }},
		{"symlink", func(p string) error { return f.Symlink(th, "/", p) }},
	}
	failed := map[string]int{}
	for i := 0; failed["create"] == 0 || failed["mkdir"] == 0 || failed["symlink"] == 0; i++ {
		if i == spare {
			t.Fatalf("no creator of each kind failed growing /d: %v", failed)
		}
		if err := f.Unlink(th, fmt.Sprintf("/spare/%d", i)); err != nil { // one inode page comes back
			t.Fatal(err)
		}
		c := creators[i%len(creators)]
		before := idlePages(k, f)
		err := c.make(fmt.Sprintf("/d/%s-%d", c.name, i))
		if err == nil {
			continue
		}
		if !errors.Is(err, vfs.ErrNoSpace) {
			t.Fatalf("%s: %v", c.name, err)
		}
		failed[c.name]++
		if got := idlePages(k, f); got != before {
			t.Fatalf("a failed %s moved idle pages from %d to %d", c.name, before, got)
		}
	}
	if err := verifyLive(f); err != nil {
		t.Fatal(err)
	}
}

// TestRefusedSplitConservesPages: moving a file between coffers of different
// permission splits it into a coffer of its own, for which Rename takes a
// pool page first. When the kernel refuses the split — here the caller can
// write both coffers and owns neither — the page goes back.
func TestRefusedSplitConservesPages(t *testing.T) {
	withDebugPool(t)
	dev, k, f, th := newTestFS(t, Options{})
	for _, d := range []string{"/a", "/b"} {
		if err := f.Mkdir(th, d, 0o777); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.Chown(th, "/b", 0, 2); err != nil {
		t.Fatal(err)
	}
	h, err := f.Create(th, "/a/f", 0o777)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.WriteAt(th, make([]byte, 2*pageSize), 0); err != nil {
		t.Fatal(err)
	}
	h.Close(th)

	guest := proc.NewProcess(dev, 1000, 1000)
	gfs, err := f.SecondMount(guest)
	if err != nil {
		t.Fatal(err)
	}
	gth, g := guest.NewThread(), gfs.(*FS)
	if err := g.Rename(gth, "/a/f", "/b/warm"); err == nil { // takes the guest's metadata batch
		t.Fatal("a guest split a coffer it does not own")
	}
	idle := func() int64 { return idlePages(k, f) + idlePages(k, g) - k.FreePages() }
	start := idle()
	for i := 0; i < 5; i++ {
		if err := g.Rename(gth, "/a/f", fmt.Sprintf("/b/g%d", i)); !errors.Is(err, vfs.ErrPerm) {
			t.Fatalf("rename: %v", err)
		}
	}
	if got := idle(); got != start {
		t.Fatalf("refused splits moved idle pages from %d to %d", start, got)
	}
	if _, err := f.Stat(th, "/a/f"); err != nil {
		t.Fatalf("the file did not stay where it was: %v", err)
	}
	if err := verifyLive(f); err != nil {
		t.Fatal(err)
	}
}

// TestUnlinkingAMappedCofferKeepsOtherMounts: a file created by a uid other
// than its directory coffer's owner is a coffer of its own, mapped by the
// process that writes it. Unlinking it revokes that mapping — and only that
// one: the process's other mounts, and with them its threads' page batches,
// stay. (Every such unlink used to drop every mount and strand each thread's
// batches: 32–544 pages per unlink, owned by their coffers and used by
// nothing until the next recovery.)
func TestUnlinkingAMappedCofferKeepsOtherMounts(t *testing.T) {
	dev, k, f, th := newTestFS(t, Options{})
	if err := f.Mkdir(th, "/d", 0o777); err != nil {
		t.Fatal(err)
	}
	user := proc.NewProcess(dev, 1000, 1000)
	ufs, err := f.SecondMount(user)
	if err != nil {
		t.Fatal(err)
	}
	g, uth := ufs.(*FS), user.NewThread()
	log, err := g.Create(uth, "/d/log", 0o644)
	if err != nil {
		t.Fatal(err)
	}
	defer log.Close(uth)
	block := make([]byte, pageSize)
	var logged int64
	cycle := func() {
		t.Helper()
		h, err := g.Create(uth, "/d/f", 0o644)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := h.WriteAt(uth, block, 0); err != nil {
			t.Fatal(err)
		}
		h.Close(uth)
		if _, ok := k.LookupPath(nil, "/d/f"); !ok {
			t.Fatal("the file is not a coffer of its own")
		}
		if err := g.Unlink(uth, "/d/f"); err != nil {
			t.Fatal(err)
		}
		if _, err := log.WriteAt(uth, block, logged); err != nil {
			t.Fatal(err)
		}
		logged += pageSize
	}
	cycle() // the first takes the thread's batches
	mounts := func() map[coffer.ID]*mount {
		g.mu.Lock()
		defer g.mu.Unlock()
		return maps.Clone(g.mounts)
	}
	before := mounts()
	idle := func() int64 { return k.FreePages() + k.RetainedPathPages() }
	start := idle()
	for i := 0; i < 100; i++ {
		cycle()
	}
	for _, p := range []string{"/d", "/d/log"} {
		id, _ := k.LookupPath(nil, p)
		if m := mounts()[id]; m == nil || m != before[id] {
			t.Errorf("unlinking /d/f dropped the mount of %s", p)
		}
	}
	batch := g.opts.MetaEnlargeBatch + g.opts.DataEnlargeBatch
	if taken := start - idle(); taken > batch {
		t.Errorf("100 unlinks took %d pages from the kernel, more than one batch (%d)", taken, batch)
	}
	if err := verifyLive(g); err != nil {
		t.Fatal(err)
	}
}

// TestChmodOnAFullDeviceKeepsTheMode fills a small device with 60,000-byte
// files and then chmods each to 0600, which splits it into a coffer of its
// own. A split the device has no room for fails with ENOSPC, and a failed
// chmod must change nothing: the file keeps mode 0644 and the page taken for
// the new coffer's root comes back. (The new mode used to stay behind, with
// the page held until fsck.)
func TestChmodOnAFullDeviceKeepsTheMode(t *testing.T) {
	withDebugPool(t)
	k, f, th := mountTestFS(t, nvm.NewDevice(8<<20), Options{})
	data := make([]byte, 60000)
	var files []string
	for {
		path := fmt.Sprintf("/f%03d", len(files))
		h, err := f.Create(th, path, 0o644)
		if err != nil {
			break
		}
		_, err = h.WriteAt(th, data, 0)
		h.Close(th)
		if err != nil {
			break
		}
		files = append(files, path)
	}
	failed := 0
	for _, path := range files {
		before := idlePages(k, f)
		err := f.Chmod(th, path, 0o600)
		if err == nil {
			continue
		}
		if !errors.Is(err, vfs.ErrNoSpace) {
			t.Fatalf("chmod %s: %v", path, err)
		}
		failed++
		if fi, err := f.Stat(th, path); err != nil || fi.Mode != 0o644 {
			t.Fatalf("%s after a failed chmod: mode %o, %v; want 644", path, fi.Mode, err)
		}
		if got := idlePages(k, f); got != before {
			t.Fatalf("a failed chmod of %s moved idle pages from %d to %d", path, before, got)
		}
	}
	if failed == 0 {
		t.Fatalf("all %d chmods split their file: the device never filled", len(files))
	}
	if err := Check(k, th).Err(); err != nil {
		t.Fatal(err)
	}
}
