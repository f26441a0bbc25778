package kernfs

import (
	"bytes"
	"testing"

	"zofs/internal/coffer"
	"zofs/internal/nvm"
)

// Coffer metadata is written where it changes: an in-place root-page update
// writes the header and the path, a rename or a split/merge cycle reuses the
// path-table page its bucket already has, and only a fresh root page is
// written whole.

// written returns the bytes f pushes through the device's write channel.
func written(dev *nvm.Device, f func()) int64 {
	before := dev.BytesWritten()
	f()
	return dev.BytesWritten() - before
}

// checkRootPage decodes a coffer's root page off the media: it must name the
// coffer and path, and be zero past the path.
func checkRootPage(t *testing.T, k *KernFS, id coffer.ID, path string) {
	t.Helper()
	page := make([]byte, nvm.PageSize)
	k.Device().ReadNoCharge(int64(id)*nvm.PageSize, page)
	rp, err := coffer.DecodeRootPage(page)
	if err != nil {
		t.Fatalf("coffer %d: %v", id, err)
	}
	if rp.ID != id || rp.Path != path {
		t.Fatalf("coffer %d's root page names coffer %d at %q, want %q", id, rp.ID, rp.Path, path)
	}
	if tail := page[64+len(path):]; !bytes.Equal(tail, make([]byte, len(tail))) {
		t.Fatalf("coffer %d's root page is not zero past its path %q", id, path)
	}
}

func TestInPlaceRootPageUpdatesWriteHeaderAndPath(t *testing.T) {
	dev, k := newFS(t)
	th := mountedThread(t, k, 0, 0)
	const path = "/a/somewhat/deeper/coffer"
	id, err := k.CofferNew(th, k.RootCoffer(), path, coffer.TypeZoFS, 0o755, 0, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := k.CofferMap(th, id, true); err != nil {
		t.Fatal(err)
	}
	want := int64(64+len(path)+7) &^ 7 // the whole page is 4,096
	for _, c := range []struct {
		name string
		f    func() error
	}{
		{"SetCofferMeta", func() error { return k.SetCofferMeta(th, id, 0o700, 0, 0) }},
		{"SetCofferType", func() error { return k.SetCofferType(th, id, coffer.TypeZoFS, 0o755) }},
		{"BeginRecover", func() error { _, err := k.BeginRecover(th, id, 1e9); return err }},
		{"EndRecover", func() error {
			rp, _ := k.Info(id)
			return k.EndRecover(th, id, []int64{rp.RootInode, rp.Custom})
		}},
		{"QuarantineCoffer", func() error { return k.QuarantineCoffer(th, id, false) }},
	} {
		var err error
		if n := written(dev, func() { err = c.f() }); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		} else if n > want {
			t.Errorf("%s wrote %d bytes, want at most %d (header and path)", c.name, n, want)
		}
		checkRootPage(t, k, id, path)
	}
	rp, _ := k.Info(id)
	if rp.Mode != 0o755 || rp.Flags != coffer.FlagReadOnly {
		t.Fatalf("coffer after the updates: %+v", rp)
	}
}

func TestRenameLeafCofferWritesLittle(t *testing.T) {
	dev, k := newFS(t)
	th := mountedThread(t, k, 0, 0)
	id, err := k.CofferNew(th, k.RootCoffer(), "/a", coffer.TypeZoFS, 0o755, 0, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	// Each path's bucket has had its entry page since the first round trip.
	for _, mv := range [][2]string{{"/a", "/b"}, {"/b", "/a"}} {
		if err := k.RenameCoffer(th, mv[0], mv[1]); err != nil {
			t.Fatal(err)
		}
	}
	if n := written(dev, func() {
		if err := k.RenameCoffer(th, "/a", "/b"); err != nil {
			t.Fatal(err)
		}
	}); n > 256 {
		t.Fatalf("renaming a leaf coffer wrote %d bytes, want at most 256", n)
	}
	checkRootPage(t, k, id, "/b")
	if got, ok := k.LookupPath(nil, "/b"); !ok || got != id {
		t.Fatalf("LookupPath(/b) = %d, %v", got, ok)
	}
}

// bytesRead returns the bytes f pulls through the device's read channel.
func bytesRead(dev *nvm.Device, f func()) int64 {
	before := dev.BytesRead()
	f()
	return dev.BytesRead() - before
}

// TestPathTableUpdatesReadEntries: a rename, a split and a merge read the
// path-table entries they change and the chain words that lead to them, not
// the 4 KiB pages around them.
func TestPathTableUpdatesReadEntries(t *testing.T) {
	dev, k := newFS(t)
	th := mountedThread(t, k, 0, 0)
	id, pages := cofferWithPages(t, k, th, k.RootCoffer(), "/a", 4)
	for _, mv := range [][2]string{{"/a", "/b"}, {"/b", "/a"}} {
		if err := k.RenameCoffer(th, mv[0], mv[1]); err != nil {
			t.Fatal(err)
		}
	}
	if n := bytesRead(dev, func() {
		if err := k.RenameCoffer(th, "/a", "/b"); err != nil {
			t.Fatal(err)
		}
	}); n > 128 {
		t.Fatalf("renaming a leaf coffer read %d bytes, want at most 128", n)
	}
	for i := 0; i < 2; i++ {
		var sid coffer.ID
		split := bytesRead(dev, func() {
			var err error
			if sid, err = k.CofferSplit(th, id, "/b/split", 0o755, 0, 0, pages[:3], pages[0], pages[1]); err != nil {
				t.Fatal(err)
			}
		})
		merge := bytesRead(dev, func() {
			if err := k.CofferMerge(th, id, sid); err != nil {
				t.Fatal(err)
			}
		})
		if split > 64 || merge > 64 {
			t.Fatalf("cycle %d: coffer_split read %d bytes and coffer_merge %d, want at most 64 each", i, split, merge)
		}
	}
}

func TestRenameToShorterPathClearsTail(t *testing.T) {
	_, k := newFS(t)
	th := mountedThread(t, k, 0, 0)
	id, err := k.CofferNew(th, k.RootCoffer(), "/a-rather-long-coffer-name", coffer.TypeZoFS, 0o755, 0, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := k.RenameCoffer(th, "/a-rather-long-coffer-name", "/s"); err != nil {
		t.Fatal(err)
	}
	checkRootPage(t, k, id, "/s")
}

func TestSplitMergeCyclesReuseOnePathPage(t *testing.T) {
	_, k := newFS(t)
	th := mountedThread(t, k, 0, 0)
	id, err := k.CofferNew(th, k.RootCoffer(), "/k", coffer.TypeZoFS, 0o755, 0, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := k.CofferMap(th, id, true); err != nil {
		t.Fatal(err)
	}
	grant, err := k.CofferEnlarge(th, id, 4, false)
	if err != nil {
		t.Fatal(err)
	}
	pages := flatten(grant)
	idle := func() int64 { return k.FreePages() + k.RetainedPathPages() }
	start := idle()
	var fresh int64 // path-table pages allocated by the splits
	for i := 0; i < 100; i++ {
		before := k.space.pagesOf(coffer.KernelID)
		sid, err := k.CofferSplit(th, id, "/k/split", 0o755, 0, 0, pages[:3], pages[0], pages[1])
		if err != nil {
			t.Fatal(err)
		}
		fresh += k.space.pagesOf(coffer.KernelID) - before
		if err := k.CofferMerge(th, id, sid); err != nil {
			t.Fatal(err)
		}
	}
	if fresh > 1 {
		t.Fatalf("100 split/merge cycles allocated %d path-table pages, want at most 1", fresh)
	}
	if got := idle(); got != start {
		t.Fatalf("idle pages moved from %d to %d", start, got)
	}
	if err := k.VerifySpace(); err != nil {
		t.Fatal(err)
	}
}

// patternedFS formats an 8 MiB device that holds a pattern in every page
// before mkfs, so that mkfs flags no page zeroed, and mounts it.
func patternedFS(t *testing.T) *KernFS {
	t.Helper()
	dev := nvm.NewDevice(8 << 20)
	pattern := bytes.Repeat([]byte{0xa5}, nvm.PageSize)
	for pg := int64(0); pg < dev.Pages(); pg++ {
		dev.WriteNT(nil, pg*nvm.PageSize, pattern)
	}
	if err := Mkfs(dev, MkfsOptions{RootMode: 0o755}); err != nil {
		t.Fatal(err)
	}
	k, err := Mount(dev)
	if err != nil {
		t.Fatal(err)
	}
	return k
}

// TestFreshRootPagesAreWrittenWhole: a new coffer's root page, from
// coffer_new or coffer_split, reads zero past its path whatever the page
// held before. The device holds a pattern before mkfs, so mkfs flags no page
// zeroed and every grant may hold old bytes.
func TestFreshRootPagesAreWrittenWhole(t *testing.T) {
	k := patternedFS(t)
	if n := zeroedSlots(k); n != 0 {
		t.Fatalf("%d slots flagged zeroed on a used device", n)
	}
	th := mountedThread(t, k, 0, 0)
	id, pages := cofferWithPages(t, k, th, k.RootCoffer(), "/k", 4)
	nid, err := k.CofferNew(th, k.RootCoffer(), "/n", coffer.TypeZoFS, 0o755, 0, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	checkRootPage(t, k, nid, "/n")
	sid, err := k.CofferSplit(th, id, "/k/split", 0o700, 0, 0, pages[:3], pages[0], pages[1])
	if err != nil {
		t.Fatal(err)
	}
	checkRootPage(t, k, sid, "/k/split")
}

// rootPageBytes returns the bytes f writes to coffer id's root page, where
// id is what f returns.
func rootPageBytes(t *testing.T, dev *nvm.Device, f func() (coffer.ID, error)) (coffer.ID, int64) {
	t.Helper()
	dev.EnableAccounting()
	id, err := f()
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range dev.WearSnapshot() {
		if w.Page == int64(id) {
			return id, w.Bytes
		}
	}
	return id, 0
}

// TestZeroedRootPagesAreWrittenOverThePath: a new root page taken from pages
// flagged zeroed is written over its header and path alone, and reads zero
// past the path.
func TestZeroedRootPagesAreWrittenOverThePath(t *testing.T) {
	dev, k := newFS(t)
	th := mountedThread(t, k, 0, 0)
	id, pages := cofferWithPages(t, k, th, k.RootCoffer(), "/k", 4)
	nid, n := rootPageBytes(t, dev, func() (coffer.ID, error) {
		return k.CofferNew(th, k.RootCoffer(), "/n", coffer.TypeZoFS, 0o755, 0, 0, 3)
	})
	if want := int64(coffer.RootPageLen(len("/n"))); n != want {
		t.Fatalf("coffer_new wrote %d B of its zeroed root page, want %d", n, want)
	}
	checkRootPage(t, k, nid, "/n")
	sid, n := rootPageBytes(t, dev, func() (coffer.ID, error) {
		return k.CofferSplit(th, id, "/k/split", 0o755, 0, 0, pages[:3], pages[0], pages[1])
	})
	if want := int64(coffer.RootPageLen(len("/k/split"))); n != want {
		t.Fatalf("coffer_split wrote %d B of its zeroed root page, want %d", n, want)
	}
	checkRootPage(t, k, sid, "/k/split")
}

// TestRevokedCoffersAreLogged: the µFS learns which coffers a revocation
// touched, and that a setuid or more revocations than the log holds touched
// them all.
func TestRevokedCoffersAreLogged(t *testing.T) {
	_, k := newFS(t)
	th := mountedThread(t, k, 0, 0)
	pid := th.Proc.PID
	mapped := func(path string) coffer.ID {
		t.Helper()
		id, err := k.CofferNew(th, k.RootCoffer(), path, coffer.TypeZoFS, 0o755, 0, 0, 3)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := k.CofferMap(th, id, true); err != nil {
			t.Fatal(err)
		}
		return id
	}
	revoked := func(since uint64) (uint64, []coffer.ID, bool) {
		var ids []coffer.ID
		gen, whole := k.Revoked(pid, since, func(id coffer.ID) { ids = append(ids, id) })
		return gen, ids, whole
	}
	a, b := mapped("/a"), mapped("/b")
	if err := k.CofferDelete(th, a); err != nil {
		t.Fatal(err)
	}
	if err := k.QuarantineCoffer(th, b, false); err != nil {
		t.Fatal(err)
	}
	gen, ids, whole := revoked(0)
	if gen != k.RevocationGen(pid) || !whole || len(ids) != 2 || ids[0] != a || ids[1] != b {
		t.Fatalf("Revoked(0) = %d, %v, %v; want %d, [%d %d], true", gen, ids, whole, k.RevocationGen(pid), a, b)
	}
	if _, ids, whole := revoked(gen); !whole || len(ids) != 0 {
		t.Fatalf("nothing revoked since %d, got %v, %v", gen, ids, whole)
	}
	recoverer := mountedThread(t, k, 0, 0)
	for i := 0; i <= revLogLen; i++ {
		if _, err := k.BeginRecover(recoverer, b, 1e9); err != nil {
			t.Fatal(err)
		}
		rp, _ := k.Info(b)
		if err := k.EndRecover(recoverer, b, []int64{rp.RootInode, rp.Custom}); err != nil {
			t.Fatal(err)
		}
		if _, err := k.CofferMap(th, b, false); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, whole := revoked(gen); whole {
		t.Fatal("more revocations than the log holds, yet it claimed to name them all")
	}
	gen = k.RevocationGen(pid)
	if err := k.SetIdentity(th, 0, 0); err != nil {
		t.Fatal(err)
	}
	if _, _, whole := revoked(gen); whole {
		t.Fatal("a setuid revoked every mapping, yet the log claimed to name them")
	}
}
