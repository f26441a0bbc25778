package kernfs

import (
	"fmt"
	"slices"
	"testing"

	"zofs/internal/coffer"
	"zofs/internal/nvm"
	"zofs/internal/proc"
)

// crashScene is one coffer-metadata call to crash at every persisting store:
// setup builds the state before it and returns the call, the paths each
// existing coffer may have after a crash, and the paths a coffer the call
// creates may have. verify, when set, checks the remounted kernel further.
type crashScene struct {
	name   string
	setup  func(t *testing.T, k *KernFS, th *proc.Thread) (call func() error, paths map[coffer.ID][]string, fresh []string)
	verify func(k *KernFS) error
}

// mergeScene folds a coffer split from /s back into it; with collide, the
// split coffer's path entry sits alone in a page that is not its bucket's
// head. After every cut the split coffer's pages are whole: either it is
// still published and owns all of them, or it is gone and /s owns them all.
func mergeScene(name string, collide bool) crashScene {
	var src, dst coffer.ID
	var moved []int64
	return crashScene{name: name,
		setup: func(t *testing.T, k *KernFS, th *proc.Thread) (func() error, map[coffer.ID][]string, []string) {
			c := []string{"/s/x"}
			if collide {
				c = collidingPaths(2, 2100)
			}
			id, pages := cofferWithPages(t, k, th, k.RootCoffer(), "/s", 4)
			sid, err := k.CofferSplit(th, id, c[0], 0o755, 0, 0, pages[:3], pages[0], pages[1])
			if err != nil {
				t.Fatal(err)
			}
			src, dst, moved = sid, id, pages[:3]
			paths := map[coffer.ID][]string{id: {"/s"}, sid: {c[0]}}
			if collide {
				z, _ := cofferWithPages(t, k, th, k.RootCoffer(), c[1], 0)
				paths[z] = c[1:]
			}
			return func() error { return k.CofferMerge(th, id, sid) }, paths, nil
		},
		verify: func(k *KernFS) error {
			owner := dst
			if _, published := k.Info(src); published {
				owner = src
			}
			for _, pg := range moved {
				if got, _ := k.OwnerOf(pg); got != owner {
					return fmt.Errorf("page %d of the merged coffer %d is coffer %d's, want all of them %d's", pg, src, got, owner)
				}
			}
			return nil
		},
	}
}

// cofferWithPages creates a coffer at path, write-mapped by th, with n pages
// granted beyond its three.
func cofferWithPages(t *testing.T, k *KernFS, th *proc.Thread, parent coffer.ID, path string, n int64) (coffer.ID, []int64) {
	t.Helper()
	id, err := k.CofferNew(th, parent, path, coffer.TypeZoFS, 0o755, 0, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := k.CofferMap(th, id, true); err != nil {
		t.Fatal(err)
	}
	var pages []int64
	if n > 0 {
		grant, err := k.CofferEnlarge(th, id, n, false)
		if err != nil {
			t.Fatal(err)
		}
		pages = flatten(grant)
	}
	return id, pages
}

var crashScenes = []crashScene{
	{name: "SetCofferMeta", setup: func(t *testing.T, k *KernFS, th *proc.Thread) (func() error, map[coffer.ID][]string, []string) {
		id, _ := cofferWithPages(t, k, th, k.RootCoffer(), "/m", 0)
		return func() error { return k.SetCofferMeta(th, id, 0o700, 7, 7) },
			map[coffer.ID][]string{id: {"/m"}}, nil
	}},
	{name: "RenameCoffer leaf", setup: func(t *testing.T, k *KernFS, th *proc.Thread) (func() error, map[coffer.ID][]string, []string) {
		id, _ := cofferWithPages(t, k, th, k.RootCoffer(), "/a-longer-name", 0)
		return func() error { return k.RenameCoffer(th, "/a-longer-name", "/z") },
			map[coffer.ID][]string{id: {"/a-longer-name", "/z"}}, nil
	}},
	{name: "RenameCoffer tree", setup: func(t *testing.T, k *KernFS, th *proc.Thread) (func() error, map[coffer.ID][]string, []string) {
		p, _ := cofferWithPages(t, k, th, k.RootCoffer(), "/p", 0)
		c, _ := cofferWithPages(t, k, th, p, "/p/c", 0)
		return func() error { return k.RenameCoffer(th, "/p", "/q") },
			map[coffer.ID][]string{p: {"/p", "/q"}, c: {"/p/c", "/q/c"}}, nil
	}},
	{name: "CofferSplit", setup: func(t *testing.T, k *KernFS, th *proc.Thread) (func() error, map[coffer.ID][]string, []string) {
		id, pages := cofferWithPages(t, k, th, k.RootCoffer(), "/s", 4)
		return func() error {
				_, err := k.CofferSplit(th, id, "/s/x", 0o700, 0, 0, pages[:3], pages[0], pages[1])
				return err
			},
			map[coffer.ID][]string{id: {"/s"}}, []string{"/s/x"}
	}},
	mergeScene("CofferMerge", false),
	{name: "CofferDelete", setup: func(t *testing.T, k *KernFS, th *proc.Thread) (func() error, map[coffer.ID][]string, []string) {
		id, _ := cofferWithPages(t, k, th, k.RootCoffer(), "/d", 4)
		return func() error { return k.CofferDelete(th, id) },
			map[coffer.ID][]string{id: {"/d"}}, nil
	}},
	// The mid-chain scenes put the coffer's path entry alone in a page that
	// is not its bucket's head, so that removing it unlinks the page.
	mergeScene("CofferMerge mid-chain", true),
	{name: "CofferDelete mid-chain", setup: func(t *testing.T, k *KernFS, th *proc.Thread) (func() error, map[coffer.ID][]string, []string) {
		c := collidingPaths(2, 2100)
		id, _ := cofferWithPages(t, k, th, k.RootCoffer(), c[0], 4)
		z, _ := cofferWithPages(t, k, th, k.RootCoffer(), c[1], 0)
		return func() error { return k.CofferDelete(th, id) },
			map[coffer.ID][]string{id: {c[0]}, z: {c[1]}}, nil
	}},
	{name: "RenameCoffer mid-chain", setup: func(t *testing.T, k *KernFS, th *proc.Thread) (func() error, map[coffer.ID][]string, []string) {
		c := collidingPaths(2, 2100)
		id, _ := cofferWithPages(t, k, th, k.RootCoffer(), c[0], 0)
		z, _ := cofferWithPages(t, k, th, k.RootCoffer(), c[1], 0)
		return func() error { return k.RenameCoffer(th, c[0], "/r") },
			map[coffer.ID][]string{id: {c[0], "/r"}, z: {c[1]}}, nil
	}},
}

// TestCofferMetadataCrashPoints crashes each scene's call before and after
// every persisting store it makes. After each remount every root page
// decodes, the path table loads and its mirror matches the media, the
// allocation table and the extent sets agree, every page flagged zeroed reads
// zero, every owned page belongs to the kernel or a published coffer, and
// every coffer is at its old path or its new one — in its root page and in
// the path table alike. (It fails if unpublish flags a dead
// root page before zeroing it, and, in the mid-chain scenes, if Mount keeps
// the entry page a crash between its unlink and its release strands.)
func TestCofferMetadataCrashPoints(t *testing.T) {
	for _, sc := range crashScenes {
		t.Run(sc.name, func(t *testing.T) {
			states := 0
			for _, before := range []bool{true, false} {
				for n := int64(1); ; n++ {
					done := crashAt(t, sc, n, before)
					states++
					if done {
						break
					}
				}
			}
			if states < 4 {
				t.Fatalf("only %d crash states", states)
			}
		})
	}
}

// crashAt runs a scene with a crash armed at its n-th persisting store, on
// the given edge, then remounts and checks the image. It reports whether the
// call ran to the end without reaching that store.
func crashAt(t *testing.T, sc crashScene, n int64, before bool) (done bool) {
	t.Helper()
	dev := nvm.NewDevice(8 << 20)
	if err := Mkfs(dev, MkfsOptions{RootMode: 0o755}); err != nil {
		t.Fatal(err)
	}
	k, err := Mount(dev)
	if err != nil {
		t.Fatal(err)
	}
	call, paths, fresh := sc.setup(t, k, mountedThread(t, k, 0, 0))
	if before {
		dev.FailAtStart(n)
	} else {
		dev.FailAfter(n)
	}
	func() {
		defer func() {
			if r := recover(); r != nil && !nvm.IsInjectedCrash(r) {
				panic(r)
			} else if r == nil {
				done = true
			}
		}()
		if err := call(); err != nil {
			t.Fatalf("%s: %v", sc.name, err)
		}
	}()
	dev.FailAfter(0)
	dev.Crash()

	edge := "after"
	if before {
		edge = "before"
	}
	where := fmt.Sprintf("crash %s store %d", edge, n)
	k2, err := Mount(dev) // decodes every published root page, loads the path table
	if err != nil {
		t.Fatalf("%s: remount: %v", where, err)
	}
	for _, verify := range []func() error{k2.VerifySpace, k2.VerifyZeroed, k2.VerifyPaths, k2.VerifyOwners} {
		if err := verify(); err != nil {
			t.Fatalf("%s: %v", where, err)
		}
	}
	if sc.verify != nil {
		if err := sc.verify(k2); err != nil {
			t.Fatalf("%s: %v", where, err)
		}
	}
	for _, id := range k2.Coffers() {
		rp, _ := k2.Info(id)
		allowed, known := paths[id]
		switch {
		case id == k2.RootCoffer():
			allowed = []string{"/"}
		case !known:
			allowed = fresh
		}
		if !slices.Contains(allowed, rp.Path) {
			t.Fatalf("%s: coffer %d at %q, want one of %q", where, id, rp.Path, allowed)
		}
		if got, ok := k2.LookupPath(nil, rp.Path); !ok || got != id {
			t.Fatalf("%s: coffer %d's root page says %q, the path table resolves it to %d, %v", where, id, rp.Path, got, ok)
		}
		checkRootPage(t, k2, id, rp.Path)
	}
	return done
}
