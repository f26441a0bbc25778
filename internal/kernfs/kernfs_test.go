package kernfs

import (
	"errors"
	"testing"

	"zofs/internal/coffer"
	"zofs/internal/nvm"
	"zofs/internal/proc"
)

func newFS(t *testing.T) (*nvm.Device, *KernFS) {
	t.Helper()
	dev := nvm.NewDevice(64 << 20)
	if err := Mkfs(dev, MkfsOptions{RootMode: 0o755}); err != nil {
		t.Fatalf("Mkfs: %v", err)
	}
	k, err := Mount(dev)
	if err != nil {
		t.Fatalf("Mount: %v", err)
	}
	return dev, k
}

func mountedThread(tb testing.TB, k *KernFS, uid, gid uint32) *proc.Thread {
	tb.Helper()
	p := proc.NewProcess(k.Device(), uid, gid)
	th := p.NewThread()
	if err := k.FSMount(th); err != nil {
		tb.Fatalf("FSMount: %v", err)
	}
	return th
}

// flatten lists a grant's pages one by one.
func flatten(exts []coffer.Extent) []int64 {
	var out []int64
	for _, e := range exts {
		for pg := e.Start; pg < e.End(); pg++ {
			out = append(out, pg)
		}
	}
	return out
}

func TestMkfsMountRoot(t *testing.T) {
	_, k := newFS(t)
	root := k.RootCoffer()
	rp, ok := k.Info(root)
	if !ok {
		t.Fatal("root coffer missing")
	}
	if rp.Path != "/" || rp.Type != coffer.TypeZoFS || rp.Mode != 0o755 {
		t.Fatalf("root coffer = %+v", rp)
	}
	if rp.RootInode == 0 || rp.Custom == 0 {
		t.Fatal("root coffer entry pages unset")
	}
	if id, ok := k.LookupPath(nil, "/"); !ok || id != root {
		t.Fatalf("LookupPath(/) = %d,%v", id, ok)
	}
}

func TestRemountPreservesState(t *testing.T) {
	dev, k := newFS(t)
	th := mountedThread(t, k, 0, 0)
	id, err := k.CofferNew(th, k.RootCoffer(), "/data", coffer.TypeZoFS, 0o640, 970, 970, 3)
	if err != nil {
		t.Fatalf("CofferNew: %v", err)
	}
	free := k.FreePages()

	k2, err := Mount(dev)
	if err != nil {
		t.Fatalf("remount: %v", err)
	}
	if got, ok := k2.LookupPath(nil, "/data"); !ok || got != id {
		t.Fatalf("remounted LookupPath = %d,%v", got, ok)
	}
	rp, _ := k2.Info(id)
	if rp.Mode != 0o640 || rp.UID != 970 {
		t.Fatalf("remounted coffer meta = %+v", rp)
	}
	if k2.FreePages() != free {
		t.Fatalf("free pages drifted across remount: %d vs %d", k2.FreePages(), free)
	}
}

func TestCofferNewPermissionChecks(t *testing.T) {
	_, k := newFS(t)
	// Root dir is 0755 root-owned; an unprivileged user cannot create there.
	th := mountedThread(t, k, 1000, 1000)
	_, err := k.CofferNew(th, k.RootCoffer(), "/nope", coffer.TypeZoFS, 0o644, 1000, 1000, 3)
	if !errors.Is(err, ErrPerm) {
		t.Fatalf("expected ErrPerm, got %v", err)
	}
	rootTh := mountedThread(t, k, 0, 0)
	id, err := k.CofferNew(rootTh, k.RootCoffer(), "/home", coffer.TypeZoFS, 0o777, 0, 0, 3)
	if err != nil {
		t.Fatalf("CofferNew as root: %v", err)
	}
	// Now the user can create under /home (0777).
	if _, err := k.CofferNew(th, id, "/home/u", coffer.TypeZoFS, 0o700, 1000, 1000, 3); err != nil {
		t.Fatalf("CofferNew under writable parent: %v", err)
	}
	// Duplicate path rejected.
	if _, err := k.CofferNew(th, id, "/home/u", coffer.TypeZoFS, 0o700, 1000, 1000, 3); !errors.Is(err, ErrExists) {
		t.Fatalf("expected ErrExists, got %v", err)
	}
	// Relative path rejected.
	if _, err := k.CofferNew(th, id, "rel", coffer.TypeZoFS, 0o700, 1000, 1000, 3); !errors.Is(err, ErrInvalid) {
		t.Fatalf("expected ErrInvalid, got %v", err)
	}
}

func TestCofferMapPermissionAndMPK(t *testing.T) {
	_, k := newFS(t)
	rootTh := mountedThread(t, k, 0, 0)
	id, err := k.CofferNew(rootTh, k.RootCoffer(), "/secret", coffer.TypeZoFS, 0o600, 500, 500, 3)
	if err != nil {
		t.Fatal(err)
	}

	other := mountedThread(t, k, 1000, 1000)
	if _, err := k.CofferMap(other, id, false); !errors.Is(err, ErrPerm) {
		t.Fatalf("foreign read map: %v, want ErrPerm", err)
	}

	owner := mountedThread(t, k, 500, 500)
	mi, err := k.CofferMap(owner, id, true)
	if err != nil {
		t.Fatalf("owner map: %v", err)
	}
	if mi.Key == 0 {
		t.Fatal("coffer must get a non-zero MPK key")
	}
	// Root page mapped read-only, data pages writable.
	if kk, ok := owner.Proc.Mem.KeyOf(int64(id)); !ok || kk != mi.Key {
		t.Fatalf("root page key = %d,%v", kk, ok)
	}
	// Accessing data through an open window works.
	owner.OpenWindow(mi.Key, true)
	owner.WriteNT(mi.Root.RootInode*nvm.PageSize, []byte("inode"))
	owner.CloseWindow()

	// Re-map returns the same key.
	mi2, err := k.CofferMap(owner, id, true)
	if err != nil || mi2.Key != mi.Key {
		t.Fatalf("remap: %v key=%d want %d", err, mi2.Key, mi.Key)
	}
}

func TestMPKRegionExhaustion(t *testing.T) {
	_, k := newFS(t)
	rootTh := mountedThread(t, k, 0, 0)
	var ids []coffer.ID
	for i := 0; i < 16; i++ {
		id, err := k.CofferNew(rootTh, k.RootCoffer(), "/c"+string(rune('a'+i)), coffer.TypeZoFS, 0o777, 0, 0, 3)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	var lastErr error
	mapped := 0
	for _, id := range ids {
		if _, err := k.CofferMap(rootTh, id, true); err != nil {
			lastErr = err
			break
		}
		mapped++
	}
	if mapped != 15 {
		t.Fatalf("mapped %d coffers, want 15 (15 MPK regions)", mapped)
	}
	if !errors.Is(lastErr, ErrNoMPKRegions) {
		t.Fatalf("16th map error = %v", lastErr)
	}
	// Unmapping one frees a region.
	if err := k.CofferUnmap(rootTh, ids[0]); err != nil {
		t.Fatal(err)
	}
	if _, err := k.CofferMap(rootTh, ids[15], true); err != nil {
		t.Fatalf("map after unmap: %v", err)
	}
}

func TestEnlargeShrink(t *testing.T) {
	_, k := newFS(t)
	th := mountedThread(t, k, 0, 0)
	id, _ := k.CofferNew(th, k.RootCoffer(), "/d", coffer.TypeZoFS, 0o755, 0, 0, 3)

	// Enlarge requires a writable mapping.
	if _, err := k.CofferEnlarge(th, id, 8, false); !errors.Is(err, ErrNotMapped) {
		t.Fatalf("enlarge unmapped: %v", err)
	}
	mi, _ := k.CofferMap(th, id, true)
	exts, err := k.CofferEnlarge(th, id, 8, false)
	if err != nil {
		t.Fatalf("enlarge: %v", err)
	}
	var got int64
	for _, e := range exts {
		got += e.Count
		// New pages must be mapped and writable under the coffer key.
		if kk, ok := th.Proc.Mem.KeyOf(e.Start); !ok || kk != mi.Key {
			t.Fatalf("new page not mapped with coffer key")
		}
	}
	if got != 8 {
		t.Fatalf("enlarged by %d pages, want 8", got)
	}
	if pages := k.space.pagesOf(id); pages != 11 {
		t.Fatalf("coffer owns %d pages, want 11", pages)
	}
	if err := k.CofferShrink(th, id, exts[:1]); err != nil {
		t.Fatalf("shrink: %v", err)
	}
	if k.space.pagesOf(id) != 11-exts[0].Count {
		t.Fatal("shrink did not return pages")
	}
	// Shrinking the root page is rejected.
	if err := k.CofferShrink(th, id, []coffer.Extent{{Start: int64(id), Count: 1}}); !errors.Is(err, ErrInvalid) {
		t.Fatalf("shrink root page: %v", err)
	}
}

func TestCofferDelete(t *testing.T) {
	_, k := newFS(t)
	th := mountedThread(t, k, 0, 0)
	id, _ := k.CofferNew(th, k.RootCoffer(), "/gone", coffer.TypeZoFS, 0o755, 0, 0, 3)
	free := k.FreePages()
	other := mountedThread(t, k, 0, 0)
	if _, err := k.CofferMap(other, id, false); err != nil {
		t.Fatal(err)
	}
	// Delete revokes every process's mapping (the same eviction discipline
	// recovery uses) rather than failing EBUSY: a reader must not be able to
	// pin a name its owner wants gone.
	if err := k.CofferDelete(th, id); err != nil {
		t.Fatalf("delete while mapped elsewhere: %v", err)
	}
	for _, m := range k.MappedCoffers(other.Proc.PID) {
		if m == id {
			t.Fatal("other still maps deleted coffer")
		}
	}
	// 3 coffer pages plus the path-table entry page /gone's bucket chain no
	// longer needs (remove reclaims all-dead entry pages).
	if k.FreePages() != free+4 {
		t.Fatalf("pages not reclaimed: %d vs %d+4", k.FreePages(), free)
	}
	if _, ok := k.LookupPath(nil, "/gone"); ok {
		t.Fatal("path entry survived delete")
	}
	if err := k.CofferDelete(th, k.RootCoffer()); !errors.Is(err, ErrInvalid) {
		t.Fatalf("deleting root coffer: %v", err)
	}
}

func TestResolveLongest(t *testing.T) {
	_, k := newFS(t)
	th := mountedThread(t, k, 0, 0)
	a, _ := k.CofferNew(th, k.RootCoffer(), "/a", coffer.TypeZoFS, 0o755, 0, 0, 3)
	ab, _ := k.CofferNew(th, a, "/a/b", coffer.TypeZoFS, 0o755, 0, 0, 3)

	id, p, ok := k.ResolveLongest(th.Clk, "/a/b/c/d.txt")
	if !ok || id != ab || p != "/a/b" {
		t.Fatalf("ResolveLongest = %d,%q,%v", id, p, ok)
	}
	id, p, ok = k.ResolveLongest(th.Clk, "/a/x")
	if !ok || id != a || p != "/a" {
		t.Fatalf("ResolveLongest(/a/x) = %d,%q,%v", id, p, ok)
	}
	id, p, ok = k.ResolveLongest(th.Clk, "/zzz")
	if !ok || id != k.RootCoffer() || p != "/" {
		t.Fatalf("ResolveLongest(/zzz) = %d,%q,%v", id, p, ok)
	}
	// Deeper paths cost more virtual time (the backwards parse).
	c1 := th.Proc.NewThread()
	k.ResolveLongest(c1.Clk, "/zzz")
	shallow := c1.Clk.Now()
	c2 := th.Proc.NewThread()
	k.ResolveLongest(c2.Clk, "/zzz/1/2/3/4/5/6/7/8/9")
	if c2.Clk.Now() <= shallow {
		t.Fatalf("deep resolve (%d) should cost more than shallow (%d)", c2.Clk.Now(), shallow)
	}
}

func TestSplitAndMerge(t *testing.T) {
	_, k := newFS(t)
	th := mountedThread(t, k, 500, 500)
	rootTh := mountedThread(t, k, 0, 0)
	home, _ := k.CofferNew(rootTh, k.RootCoffer(), "/home", coffer.TypeZoFS, 0o777, 0, 0, 3)
	id, err := k.CofferNew(th, home, "/home/u", coffer.TypeZoFS, 0o755, 500, 500, 3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := k.CofferMap(th, id, true); err != nil {
		t.Fatal(err)
	}
	exts, err := k.CofferEnlarge(th, id, 6, false)
	if err != nil {
		t.Fatal(err)
	}
	pages := flatten(exts)

	// Split three pages into a new 0700 coffer.
	newID, err := k.CofferSplit(th, id, "/home/u/priv", 0o700, 500, 500, pages[:3], pages[0], pages[1])
	if err != nil {
		t.Fatalf("split: %v", err)
	}
	if k.space.pagesOf(newID) != 4 { // 3 moved + new root page
		t.Fatalf("new coffer owns %d pages", k.space.pagesOf(newID))
	}
	if k.space.pagesOf(id) != 3+6-3 {
		t.Fatalf("old coffer owns %d pages", k.space.pagesOf(id))
	}
	// Moved pages are no longer accessible under the old mapping.
	if _, ok := th.Proc.Mem.KeyOf(pages[0]); ok {
		t.Fatal("moved page still mapped under old coffer")
	}
	rp, _ := k.Info(newID)
	if rp.Mode != 0o700 || rp.Path != "/home/u/priv" {
		t.Fatalf("split coffer meta = %+v", rp)
	}

	// Merge it back after aligning permissions.
	if err := k.CofferMerge(th, id, newID); !errors.Is(err, ErrInvalid) {
		t.Fatalf("merge with differing perms: %v", err)
	}
	if err := k.SetCofferMeta(th, newID, 0o755, 500, 500); err != nil {
		t.Fatal(err)
	}
	if err := k.CofferMerge(th, id, newID); err != nil {
		t.Fatalf("merge: %v", err)
	}
	if k.space.pagesOf(id) != 9 { // 6 + 3 moved back (new root page freed)
		t.Fatalf("merged coffer owns %d pages", k.space.pagesOf(id))
	}
	if _, ok := k.LookupPath(nil, "/home/u/priv"); ok {
		t.Fatal("merged coffer path survived")
	}
}

func TestRenameCofferPrefix(t *testing.T) {
	_, k := newFS(t)
	th := mountedThread(t, k, 0, 0)
	a, _ := k.CofferNew(th, k.RootCoffer(), "/a", coffer.TypeZoFS, 0o755, 0, 0, 3)
	ab, _ := k.CofferNew(th, a, "/a/b", coffer.TypeZoFS, 0o755, 0, 0, 3)
	if err := k.RenameCoffer(th, "/a", "/z"); err != nil {
		t.Fatalf("rename: %v", err)
	}
	if id, ok := k.LookupPath(nil, "/z"); !ok || id != a {
		t.Fatalf("LookupPath(/z) = %d,%v", id, ok)
	}
	if id, ok := k.LookupPath(nil, "/z/b"); !ok || id != ab {
		t.Fatalf("descendant path not rewritten")
	}
	if _, ok := k.LookupPath(nil, "/a"); ok {
		t.Fatal("old path survived")
	}
	rp, _ := k.Info(ab)
	if rp.Path != "/z/b" {
		t.Fatalf("root page path = %q", rp.Path)
	}
}

func TestRecoverReclaimsPages(t *testing.T) {
	_, k := newFS(t)
	th := mountedThread(t, k, 0, 0)
	id, _ := k.CofferNew(th, k.RootCoffer(), "/r", coffer.TypeZoFS, 0o755, 0, 0, 3)
	if _, err := k.CofferMap(th, id, true); err != nil {
		t.Fatal(err)
	}
	exts, _ := k.CofferEnlarge(th, id, 5, false)
	pages := flatten(exts)
	rp, _ := k.Info(id)

	other := mountedThread(t, k, 0, 0)
	if _, err := k.CofferMap(other, id, false); err != nil {
		t.Fatal(err)
	}

	got, err := k.BeginRecover(th, id, 1e9)
	if err != nil {
		t.Fatalf("BeginRecover: %v", err)
	}
	if len(got) == 0 {
		t.Fatal("no extents returned")
	}
	// Other process must have been unmapped; mapping during recovery fails.
	if _, err := k.CofferMap(other, id, false); !errors.Is(err, ErrInRecovery) {
		t.Fatalf("map during recovery: %v", err)
	}

	// Keep the inode, custom page and two data pages; leak three.
	inUse := []int64{rp.RootInode, rp.Custom, pages[0], pages[1]}
	free := k.FreePages()
	if err := k.EndRecover(th, id, inUse); err != nil {
		t.Fatalf("EndRecover: %v", err)
	}
	if k.FreePages() != free+3 {
		t.Fatalf("reclaimed %d pages, want 3", k.FreePages()-free)
	}
	if _, err := k.CofferMap(other, id, false); err != nil {
		t.Fatalf("map after recovery: %v", err)
	}
}

func TestSetIdentityUnmapsAll(t *testing.T) {
	_, k := newFS(t)
	th := mountedThread(t, k, 0, 0)
	id, _ := k.CofferNew(th, k.RootCoffer(), "/s", coffer.TypeZoFS, 0o755, 0, 0, 3)
	if _, err := k.CofferMap(th, id, true); err != nil {
		t.Fatal(err)
	}
	if err := k.SetIdentity(th, 1000, 1000); err != nil {
		t.Fatal(err)
	}
	if n := len(k.MappedCoffers(th.Proc.PID)); n != 0 {
		t.Fatalf("%d coffers still mapped after setuid", n)
	}
	if th.Proc.UID() != 1000 {
		t.Fatal("uid not changed")
	}
}

func TestFileMmap(t *testing.T) {
	_, k := newFS(t)
	th := mountedThread(t, k, 0, 0)
	id, _ := k.CofferNew(th, k.RootCoffer(), "/m", coffer.TypeZoFS, 0o755, 0, 0, 3)
	mi, _ := k.CofferMap(th, id, true)
	exts, _ := k.CofferEnlarge(th, id, 2, false)
	pages := flatten(exts)
	if err := k.FileMmap(th, id, pages, true); err != nil {
		t.Fatalf("FileMmap: %v", err)
	}
	// Pages are now key-0 application memory: accessible with windows closed.
	th.CloseWindow()
	th.WriteNT(pages[0]*nvm.PageSize, []byte("mmap"))
	// A page outside the coffer is rejected.
	if err := k.FileMmap(th, id, []int64{1}, false); !errors.Is(err, ErrInvalid) {
		t.Fatalf("mmap foreign page: %v", err)
	}
	_ = mi
}

func TestEnlargeSerializesInVirtualTime(t *testing.T) {
	// Two threads hammering CofferEnlarge must serialize on the kernel
	// mutex — this is the Fig. 7(g) contention.
	_, k := newFS(t)
	th := mountedThread(t, k, 0, 0)
	id, _ := k.CofferNew(th, k.RootCoffer(), "/e", coffer.TypeZoFS, 0o755, 0, 0, 3)
	k.CofferMap(th, id, true)
	t1 := th.Proc.NewThread()
	start := t1.Clk.Now()
	for i := 0; i < 10; i++ {
		if _, err := k.CofferEnlarge(t1, id, 1, true); err != nil {
			t.Fatal(err)
		}
	}
	if t1.Clk.Now() == start {
		t.Fatal("enlarge must consume virtual time")
	}
}

// TestMergeIgnoresExecBits verifies coffer_merge compares the coffer
// permission class (exec bits masked, as in §4.1's grouping) rather than
// exact mode equality: a 0644 file coffer folds into a 0755 directory
// coffer — the everyday chmod-back case — while a uid mismatch still
// rejects the merge.
func TestMergeIgnoresExecBits(t *testing.T) {
	_, k := newFS(t)
	th := mountedThread(t, k, 500, 500)
	rootTh := mountedThread(t, k, 0, 0)
	parent, err := k.CofferNew(rootTh, k.RootCoffer(), "/p", coffer.TypeZoFS, 0o755, 500, 500, 3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := k.CofferMap(th, parent, true); err != nil {
		t.Fatal(err)
	}
	child, err := k.CofferNew(th, parent, "/p/f", coffer.TypeZoFS, 0o644, 500, 500, 3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := k.CofferMap(th, child, true); err != nil {
		t.Fatal(err)
	}
	if err := k.CofferMerge(th, parent, child); err != nil {
		t.Fatalf("merge 0644 into 0755 (same class): %v", err)
	}

	// Different owner: same masked mode is not enough. (Root creates the
	// foreign-owned coffer; only root may assign other uids.)
	other, err := k.CofferNew(rootTh, parent, "/p/g", coffer.TypeZoFS, 0o644, 501, 500, 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := k.CofferMerge(th, parent, other); err == nil {
		t.Fatal("merge across owners should fail")
	}
}
