package zofs

import (
	"bytes"
	"errors"
	"slices"
	"testing"

	"zofs/internal/coffer"
	"zofs/internal/kernfs"
	"zofs/internal/proc"
	"zofs/internal/vfs"
)

// Tests of the naming rule (G3): a dentry names coffer C only if C is
// published at the dentry's full path with the dentry's inode as its root
// inode (names). Every use of a cross-coffer dentry goes through it.

// TestWalkRejectsMisplacedCofferDentry: guideline G3 — a cross-coffer dentry
// is followed only if the kernel says the coffer it names lives at exactly
// the path being walked. A dentry that points /alias at the coffer rooted at
// /real (what a malicious writer to the shared parent could plant) is refused.
func TestWalkRejectsMisplacedCofferDentry(t *testing.T) {
	_, k, f, th := newTestFS(t, Options{})
	real := makeCoffer(t, k, f, th, "/real")
	info, _ := k.Info(real)
	pos, err := f.walk(th, "/", true, true)
	if err != nil {
		t.Fatal(err)
	}
	bk := f.lockDirBucket(th, pos.ino, "alias")
	err = f.dirInsert(th, pos.m, pos.ino, "alias", uint8(vfs.TypeDir), uint32(real), info.RootInode)
	f.unlockDirBucket(th, bk)
	pos.close()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Stat(th, "/alias"); !errors.Is(err, vfs.ErrCorrupted) {
		t.Fatalf("Stat through a dentry naming a coffer at another path: %v, want ErrCorrupted", err)
	}
	if _, err := f.Stat(th, "/alias/below"); !errors.Is(err, vfs.ErrCorrupted) {
		t.Fatalf("walk through it: %v, want ErrCorrupted", err)
	}
	if _, err := f.Stat(th, "/real"); err != nil {
		t.Fatalf("the coffer at its own path: %v", err)
	}
}

// forgedName builds §6.5's malicious-metadata attack on a name: /shared
// (0777, root's) holds the in-coffer file x and uid 1000's file coffer w;
// uid 1000 owns the file coffer /home/secret (0600, five bytes); and uid
// 2000, who may write /shared, points x's dentry at that coffer's ID and
// root inode. It returns uid 1000's instance and thread, and the coffer.
func forgedName(t *testing.T, k *kernfs.KernFS, f *FS, th *proc.Thread) (*FS, *proc.Thread, coffer.ID) {
	t.Helper()
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	shared := makeCofferMode(t, k, f, th, "/shared", 0o777)
	h, err := f.Create(th, "/shared/x", 0o666) // the parent's class: in-coffer
	must(err)
	must(h.Close(th))
	makeCofferMode(t, k, f, th, "/home", 0o777)
	f1, th1 := mountAs(t, f, 1000)
	h, err = f1.Create(th1, "/home/secret", 0o600)
	must(err)
	mustWrite(t, th1, h, []byte("hello"), 0)
	must(h.Close(th1))
	h, err = f1.Create(th1, "/shared/w", 0o666)
	must(err)
	must(h.Close(th1))
	secret, ok := k.LookupPath(nil, "/home/secret")
	if !ok {
		t.Fatal("premise: /home/secret is not a coffer")
	}

	_, th2 := mountAs(t, f, 2000)
	rp, _ := k.Info(secret)
	mi, err := k.CofferMap(th2, shared, true)
	must(err)
	th2.OpenWindow(mi.Key, true)
	redirected := RedirectDentry(th2, k, shared, "x", secret, rp.RootInode)
	th2.CloseWindow()
	if !redirected {
		t.Fatal("premise: RedirectDentry did not find x")
	}
	return f1, th1, secret
}

// makeCofferMode is makeCoffer with the directory's mode.
func makeCofferMode(t *testing.T, k *kernfs.KernFS, f *FS, th *proc.Thread, path string, mode coffer.Mode) coffer.ID {
	t.Helper()
	if err := f.Mkdir(th, path, mode); err != nil {
		t.Fatalf("Mkdir %s: %v", path, err)
	}
	id, ok := k.LookupPath(nil, path)
	if !ok {
		t.Fatalf("%s did not become a coffer", path)
	}
	return id
}

// TestEveryOpChecksTheNamingRule runs every op kind that takes a path, as the
// owner of the victim coffer, through the forged name /shared/x (forgedName).
// Making a name there finds it taken (ErrExist); every other op is refused
// (ErrCorrupted) and changes nothing: the victim coffer keeps its path,
// permission, size and bytes, /shared still lists x, and Check then drops the
// forged dentry as cross_ref and finds nothing else. A new op kind without a
// row fails the test.
func TestEveryOpChecksTheNamingRule(t *testing.T) {
	rows := []struct {
		name string
		op   vfs.Op
		want error
	}{
		{"create", vfs.Op{Kind: vfs.OpCreate, Path: "/shared/x", Mode: 0o644}, vfs.ErrCorrupted},
		{"mkdir", vfs.Op{Kind: vfs.OpMkdir, Path: "/shared/x", Mode: 0o755}, vfs.ErrExist},
		{"write", vfs.Op{Kind: vfs.OpWrite, Path: "/shared/x", Data: []byte("evil")}, vfs.ErrCorrupted},
		{"append", vfs.Op{Kind: vfs.OpAppend, Path: "/shared/x", Off: 5, Data: []byte("evil")}, vfs.ErrCorrupted},
		{"fsync", vfs.Op{Kind: vfs.OpFsync, Path: "/shared/x"}, vfs.ErrCorrupted},
		{"truncate", vfs.Op{Kind: vfs.OpTruncate, Path: "/shared/x"}, vfs.ErrCorrupted},
		{"open", vfs.Op{Kind: vfs.OpOpen, Path: "/shared/x", Flags: vfs.O_RDWR | vfs.O_TRUNC}, vfs.ErrCorrupted},
		{"read", vfs.Op{Kind: vfs.OpRead, Path: "/shared/x", Data: []byte("hello")}, vfs.ErrCorrupted},
		{"stat", vfs.Op{Kind: vfs.OpStat, Path: "/shared/x", Size: 5}, vfs.ErrCorrupted},
		{"readlink", vfs.Op{Kind: vfs.OpReadlink, Path: "/shared/x"}, vfs.ErrCorrupted},
		{"rename source", vfs.Op{Kind: vfs.OpRename, Path: "/shared/x", Dst: "/shared/z"}, vfs.ErrCorrupted},
		{"rename destination", vfs.Op{Kind: vfs.OpRename, Path: "/shared/w", Dst: "/shared/x"}, vfs.ErrCorrupted},
		{"unlink", vfs.Op{Kind: vfs.OpUnlink, Path: "/shared/x"}, vfs.ErrCorrupted},
		{"rmdir", vfs.Op{Kind: vfs.OpRmdir, Path: "/shared/x"}, vfs.ErrCorrupted},
		{"chmod", vfs.Op{Kind: vfs.OpChmod, Path: "/shared/x", Mode: 0o666}, vfs.ErrCorrupted},
		{"chown", vfs.Op{Kind: vfs.OpChown, Path: "/shared/x", UID: 1000, GID: 0}, vfs.ErrCorrupted},
		{"symlink", vfs.Op{Kind: vfs.OpSymlink, Path: "/shared/x", Dst: "/home/secret"}, vfs.ErrExist},
	}
	covered := map[vfs.OpKind]bool{}
	for _, r := range rows {
		covered[r.op.Kind] = true
	}
	for k := vfs.OpKind(0); k.String() != "?"; k++ {
		if !covered[k] {
			t.Errorf("op kind %v has no row", k)
		}
	}
	for _, r := range rows {
		t.Run(r.name, func(t *testing.T) {
			_, k, f, th := newTestFS(t, Options{})
			f1, th1, secret := forgedName(t, k, f, th)
			before, _ := k.Info(secret)
			if err := r.op.Do(f1, th1); !errors.Is(err, r.want) {
				t.Fatalf("%v: %v, want %v", r.op, err, r.want)
			}
			if rp, ok := k.Info(secret); !ok || rp != before {
				t.Errorf("the victim coffer went from %+v to %+v (published %v)", before, rp, ok)
			}
			if fi, err := f1.Stat(th1, "/home/secret"); err != nil || fi.Size != 5 {
				t.Errorf("the victim file: %d bytes (%v), want 5", fi.Size, err)
			}
			h, err := f1.Open(th1, "/home/secret", vfs.O_RDONLY)
			if err != nil {
				t.Fatalf("open the victim file: %v", err)
			}
			got := make([]byte, 5)
			n, _ := h.ReadAt(th1, got, 0)
			h.Close(th1)
			if !bytes.Equal(got[:n], []byte("hello")) {
				t.Errorf("the victim file holds %q, want %q", got[:n], "hello")
			}
			ents, err := f.ReadDir(th, "/shared")
			if err != nil || !slices.ContainsFunc(ents, func(e vfs.DirEntry) bool { return e.Name == "x" }) {
				t.Errorf("/shared lists %v (%v), want x among them", ents, err)
			}
			rep := Check(k, th)
			if len(rep.Findings) != 1 || rep.Findings[0].Detail != "cross_ref" || !rep.Findings[0].Repaired {
				t.Errorf("Check found %v, want the forged dentry dropped as cross_ref alone", rep.Findings)
			}
		})
	}
}

// TestRefusedCofferCallsChangeNothing is the table of ROADMAP item 33: each
// row is an op that makes a coffer call its caller is refused. The op returns
// ErrPerm and changes nothing: /shared (0777, root's) lists what it did, its
// file coffers s (uid 1000's) and t (uid 2000's, four bytes) keep their root
// pages and t its bytes, and Check finds nothing to repair.
func TestRefusedCofferCallsChangeNothing(t *testing.T) {
	rows := []struct {
		name string
		uid  uint32
		op   vfs.Op
	}{
		// uid 2000 may delete t but not move s: the refusal must come
		// before t goes.
		{"rename a coffer root over another", 2000, vfs.Op{Kind: vfs.OpRename, Path: "/shared/s", Dst: "/shared/t"}},
	}
	for _, r := range rows {
		t.Run(r.name, func(t *testing.T) {
			_, k, f, th := newTestFS(t, Options{})
			makeCofferMode(t, k, f, th, "/shared", 0o777)
			owners := map[string]uint32{"/shared/s": 1000, "/shared/t": 2000}
			before := map[string]coffer.RootPage{}
			for _, p := range []string{"/shared/s", "/shared/t"} {
				fo, tho := mountAs(t, f, owners[p])
				h, err := fo.Create(tho, p, 0o644)
				if err != nil {
					t.Fatal(err)
				}
				if p == "/shared/t" {
					mustWrite(t, tho, h, []byte("data"), 0)
				}
				h.Close(tho)
				id, ok := k.LookupPath(nil, p)
				if !ok {
					t.Fatalf("premise: %s is not a coffer", p)
				}
				before[p], _ = k.Info(id)
			}
			listed := func() []string {
				ents, err := f.ReadDir(th, "/shared")
				if err != nil {
					t.Fatal(err)
				}
				var names []string
				for _, e := range ents {
					names = append(names, e.Name)
				}
				slices.Sort(names)
				return names
			}
			was := listed()

			fr, thr := mountAs(t, f, r.uid)
			if err := r.op.Do(fr, thr); !errors.Is(err, vfs.ErrPerm) {
				t.Fatalf("%v as uid %d: %v, want ErrPerm", r.op, r.uid, err)
			}
			if now := listed(); !slices.Equal(now, was) {
				t.Errorf("/shared lists %v, want %v", now, was)
			}
			for p, rp := range before {
				if id, ok := k.LookupPath(nil, p); !ok {
					t.Errorf("%s is no longer published", p)
				} else if got, _ := k.Info(id); got != rp {
					t.Errorf("%s's root page went from %+v to %+v", p, rp, got)
				}
			}
			h, err := f.Open(th, "/shared/t", vfs.O_RDONLY)
			if err != nil {
				t.Fatalf("open /shared/t: %v", err)
			}
			got := make([]byte, 8)
			n, _ := h.ReadAt(th, got, 0)
			h.Close(th)
			if string(got[:n]) != "data" {
				t.Errorf("/shared/t holds %q, want %q", got[:n], "data")
			}
			if rep := Check(k, th); len(rep.Findings) != 0 {
				t.Errorf("Check found %v", rep.Findings)
			}
		})
	}
}
