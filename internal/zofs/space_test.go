package zofs

import (
	"bytes"
	"fmt"
	"slices"
	"testing"

	"zofs/internal/coffer"
	"zofs/internal/kernfs"
	"zofs/internal/nvm"
	"zofs/internal/proc"
	"zofs/internal/vfs"
)

// verifyLive runs every invariant Check registers over a live instance, its
// batch caches included, without the recovery traversal Check runs first.
func verifyLive(f *FS) error {
	for _, inv := range invariants {
		if err := inv.check(f, nil); err != nil {
			return fmt.Errorf("%s: %w", inv.name, err)
		}
	}
	return nil
}

// TestSpaceReportReconciles cross-checks the space accounting three ways on
// a live file system: the report's own row arithmetic (used + free-listed +
// cached = granted pages), the kernel's grant (sum of the coffer's extents),
// and every invariant Check registers (persistent allocation table vs
// volatile trees vs page census, plus the µFS free inventory). Deleting the
// files must return pages to the allocator without breaking any of it.
func TestSpaceReportReconciles(t *testing.T) {
	_, k, f, th := newTestFS(t, Options{})
	if err := f.Mkdir(th, "/d", 0o755); err != nil {
		t.Fatal(err)
	}
	const files = 32
	buf := make([]byte, 3*pageSize)
	for i := 0; i < files; i++ {
		h, err := f.Create(th, fmt.Sprintf("/d/f%d", i), 0o644)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := h.WriteAt(th, buf, 0); err != nil {
			t.Fatal(err)
		}
		h.Close(th)
	}

	check := func(when string) map[uint64]int64 {
		t.Helper()
		used := map[uint64]int64{}
		rows := f.SpaceReport()
		if len(rows) == 0 {
			t.Fatalf("%s: empty space report", when)
		}
		for _, cs := range rows {
			if cs.Used+cs.FreeListed+cs.Cached != cs.Pages {
				t.Fatalf("%s: coffer %d rows don't sum: %+v", when, cs.ID, cs)
			}
			if cs.Used < 0 {
				t.Fatalf("%s: coffer %d negative used count: %+v", when, cs.ID, cs)
			}
			var granted int64
			for _, e := range k.ExtentsOf(coffer.ID(cs.ID)) {
				granted += e.Count
			}
			if granted != cs.Pages {
				t.Fatalf("%s: coffer %d report says %d pages, kernel granted %d", when, cs.ID, cs.Pages, granted)
			}
			used[cs.ID] = cs.Used
		}
		if err := verifyLive(f); err != nil {
			t.Fatalf("%s: %v", when, err)
		}
		return used
	}

	before := check("with files")
	root := uint64(k.RootCoffer())
	for i := 0; i < files; i++ {
		if err := f.Unlink(th, fmt.Sprintf("/d/f%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	after := check("after unlink")
	if after[root] >= before[root] {
		t.Fatalf("unlinking %d files did not shrink used pages: %d -> %d", files, before[root], after[root])
	}
}

// TestCrashInsideChmodSplitKeepsTheFile cuts a chmod that splits a file of
// the root coffer into a coffer of its own after each persisting store it
// makes, then remounts and runs Check. Wherever the cut falls, the file is
// still listed in its directory with its bytes and the old or the new mode,
// and a second Check finds nothing. A cut inside coffer_split leaves the file's
// pages with an unpublished coffer, which Mount must give back; a cut between
// the split's publish and the parent dentry's update leaves an in-coffer
// dentry naming the new coffer's root inode, which recovery must not free.
func TestCrashInsideChmodSplitKeepsTheFile(t *testing.T) {
	data := patterned(8*pageSize, 1)
	for n := int64(1); ; n++ {
		dev := nvm.NewDevice(16 << 20)
		k, f, th := mountTestFS(t, dev, Options{})
		h := mustCreate(t, f, th, "/f")
		mustWrite(t, th, h, data, 0)
		h.Close(th)
		dev.FailAfter(n)
		crashed := func() (crashed bool) {
			defer func() {
				if r := recover(); r != nil {
					if !nvm.IsInjectedCrash(r) {
						panic(r)
					}
					crashed = true
				}
			}()
			if err := f.Chmod(th, "/f", 0o600); err != nil {
				t.Fatal(err)
			}
			return false
		}()
		dev.FailAfter(0)
		if !crashed {
			if _, split := k.LookupPath(nil, "/f"); !split {
				t.Fatal("premise: the chmod did not split /f")
			}
			break
		}
		dev.Crash()
		dev.DropVolatile()

		where := fmt.Sprintf("crash after store %d", n)
		f2, th2 := remountAfterCrash(t, dev, Options{})
		fi, err := f2.Stat(th2, "/f")
		if err != nil {
			t.Fatalf("%s: %v", where, err)
		}
		if fi.Size != int64(len(data)) || (fi.Mode != 0o644 && fi.Mode != 0o600) {
			t.Fatalf("%s: size %d mode %o, want %d bytes, mode 644 or 600", where, fi.Size, fi.Mode, len(data))
		}
		h2, err := f2.Open(th2, "/f", vfs.O_RDONLY)
		if err != nil {
			t.Fatalf("%s: %v", where, err)
		}
		if !bytes.Equal(readAll(t, th2, h2, int64(len(data))), data) {
			t.Fatalf("%s: the file's bytes changed", where)
		}
		h2.Close(th2)
		if ents, err := f2.ReadDir(th2, "/"); err != nil || len(ents) != 1 || ents[0].Name != "f" {
			t.Fatalf("%s: / lists %v (%v), want f", where, ents, err)
		}
		if rep := Check(f2.kern, th2); len(rep.Findings) != 0 {
			t.Fatalf("%s: a second Check found %v", where, rep.Findings)
		}
	}
}

// TestCrashInsideRenameSplit cuts the rename of a file between two coffers of
// different permissions, which splits the file into a coffer of its own at
// the new path, after each persisting store it makes, then remounts and runs
// Check. Wherever the cut falls, none of the source coffer's pages turns up
// in the destination coffer (a split's pages carry the source's permission),
// a file that is listed has its bytes, and a second Check finds nothing. A
// cut before the split publishes keeps the file at its old path: Mount gives
// its pages back to the source coffer. A cut after the publish and before
// the destination's dentry lands still loses it (ROADMAP item 23).
func TestCrashInsideRenameSplit(t *testing.T) {
	data := patterned(8*pageSize, 2)
	for n := int64(1); ; n++ {
		dev := nvm.NewDevice(16 << 20)
		k, f, th := mountTestFS(t, dev, Options{})
		if err := f.Mkdir(th, "/ca", 0o750); err != nil {
			t.Fatal(err)
		}
		if err := f.Mkdir(th, "/cb", 0o700); err != nil {
			t.Fatal(err)
		}
		h, err := f.Create(th, "/ca/f", 0o750)
		if err != nil {
			t.Fatal(err)
		}
		mustWrite(t, th, h, data, 0)
		h.Close(th)
		src, _ := k.LookupPath(nil, "/ca")
		dst, _ := k.LookupPath(nil, "/cb")
		srcPages := k.ExtentsOf(src)
		dev.FailAfter(n)
		crashed := func() (crashed bool) {
			defer func() {
				if r := recover(); r != nil {
					if !nvm.IsInjectedCrash(r) {
						panic(r)
					}
					crashed = true
				}
			}()
			if err := f.Rename(th, "/ca/f", "/cb/m"); err != nil {
				t.Fatal(err)
			}
			return false
		}()
		dev.FailAfter(0)
		if !crashed {
			if _, split := k.LookupPath(nil, "/cb/m"); !split {
				t.Fatal("premise: the rename did not split /ca/f")
			}
			break
		}
		dev.Crash()
		dev.DropVolatile()

		where := fmt.Sprintf("crash after store %d", n)
		k2, err := kernfs.Mount(dev)
		if err != nil {
			t.Fatalf("%s: remount: %v", where, err)
		}
		for _, e := range srcPages {
			for pg := e.Start; pg < e.End(); pg++ {
				if owner, _ := k2.OwnerOf(pg); owner == dst {
					t.Fatalf("%s: page %d of /ca went to /cb's coffer", where, pg)
				}
			}
		}
		th2 := proc.NewProcess(dev, 0, 0).NewThread()
		if err := k2.FSMount(th2); err != nil {
			t.Fatal(err)
		}
		if err := Check(k2, th2).Err(); err != nil {
			t.Fatalf("%s: fsck: %v", where, err)
		}
		f2 := New(k2, Options{})
		var found []string
		for _, dir := range []string{"/ca", "/cb"} {
			ents, err := f2.ReadDir(th2, dir)
			if err != nil {
				t.Fatalf("%s: ReadDir(%s): %v", where, dir, err)
			}
			for _, e := range ents {
				found = append(found, dir+"/"+e.Name)
			}
		}
		if _, published := k2.LookupPath(nil, "/cb/m"); !published && !slices.Equal(found, []string{"/ca/f"}) {
			t.Fatalf("%s: the split did not publish, and the directories list %v, want /ca/f", where, found)
		}
		if len(found) > 1 {
			t.Fatalf("%s: the directories list %v, want one of /ca/f and /cb/m", where, found)
		}
		for _, p := range found {
			h2, err := f2.Open(th2, p, vfs.O_RDONLY)
			if err != nil {
				t.Fatalf("%s: %v", where, err)
			}
			if !bytes.Equal(readAll(t, th2, h2, int64(len(data))), data) {
				t.Fatalf("%s: %s's bytes changed", where, p)
			}
			h2.Close(th2)
		}
		if rep := Check(k2, th2); len(rep.Findings) != 0 {
			t.Fatalf("%s: a second Check found %v", where, rep.Findings)
		}
	}
}

// TestCrashInsideCofferDeleteFreesItsPages cuts the unlink of a file that is
// its own coffer after each persisting store it makes, then remounts and
// runs Check. A cut inside coffer_delete between the path entry's removal and
// the page release leaves the allocation table giving pages to an ID nothing
// publishes: Mount must free them, so no page stays with that ID and Check
// finds nothing left to repair. (Without Mount's release, Check reports such
// an image under owners_live.) The file is made its own coffer two ways: by
// its create (coffer_new) and by a chmod (coffer_split). Mount gives an
// unfinished split's pages back to the coffer they came from; a deleted
// coffer's must not go there, so none of the file's pages may turn up in the
// root coffer.
func TestCrashInsideCofferDeleteFreesItsPages(t *testing.T) {
	for _, split := range []bool{false, true} {
		cut := 0
		for n := int64(1); ; n++ {
			dev := nvm.NewDevice(16 << 20)
			k, f, th := mountTestFS(t, dev, Options{})
			mode := coffer.Mode(0o600)
			if split {
				mode = 0o644
			}
			h, err := f.Create(th, "/priv", mode)
			if err != nil {
				t.Fatal(err)
			}
			mustWrite(t, th, h, make([]byte, 8*pageSize), 0)
			h.Close(th)
			if split {
				if err := f.Chmod(th, "/priv", 0o600); err != nil {
					t.Fatal(err)
				}
			}
			id, ok := k.LookupPath(nil, "/priv")
			if !ok {
				t.Fatal("premise: /priv is not its own coffer")
			}
			filePages := k.ExtentsOf(id)
			dev.FailAfter(n)
			crashed := func() (crashed bool) {
				defer func() {
					if r := recover(); r != nil {
						if !nvm.IsInjectedCrash(r) {
							panic(r)
						}
						crashed = true
					}
				}()
				if err := f.Unlink(th, "/priv"); err != nil {
					t.Fatal(err)
				}
				return false
			}()
			dev.FailAfter(0)
			if !crashed {
				break
			}
			dev.Crash()
			dev.DropVolatile()
			if _, published := k.LookupPath(nil, "/priv"); !published {
				if owner, _ := k.OwnerOf(int64(id)); owner == id {
					cut++
				}
			}

			where := fmt.Sprintf("split %v, crash after store %d", split, n)
			k2, err := kernfs.Mount(dev)
			if err != nil {
				t.Fatalf("%s: remount: %v", where, err)
			}
			for _, e := range filePages {
				for pg := e.Start; pg < e.End(); pg++ {
					if owner, _ := k2.OwnerOf(pg); owner == k2.RootCoffer() {
						t.Fatalf("%s: page %d of the deleted file went to the root coffer", where, pg)
					}
				}
			}
			th2 := proc.NewProcess(dev, 0, 0).NewThread()
			if err := k2.FSMount(th2); err != nil {
				t.Fatal(err)
			}
			if err := Check(k2, th2).Err(); err != nil {
				t.Fatalf("%s: %v", where, err)
			}
			if _, published := k2.Info(id); !published && len(k2.ExtentsOf(id)) > 0 {
				t.Fatalf("%s: coffer %d is gone, and still owns %v", where, id, k2.ExtentsOf(id))
			}
		}
		if cut == 0 {
			t.Fatalf("split %v: no crash point fell between the path entry's removal and the page release", split)
		}
	}
}
