package zofs

import (
	"errors"
	"fmt"
	"strings"
	"testing"

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
	if err := f.VerifySpace(); err != nil {
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
	if err := f.VerifySpace(); err != nil {
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
	if err := f.VerifySpace(); err != nil {
		t.Fatal(err)
	}
}
