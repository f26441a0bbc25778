package zofs

import (
	"bytes"
	"errors"
	"maps"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"slices"
	"strings"
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
// row is an op that makes a coffer call its caller is refused, in a tree that
// refusedTree builds. The op returns ErrPerm and changes nothing: every
// listing and file's bytes (snapshot), every coffer's root page, and Check
// finds nothing to repair. Each row names the call it makes; a kernel call
// the µFS makes without a row, or a reason in noRow, fails the test.
func TestRefusedCofferCallsChangeNothing(t *testing.T) {
	rows := []struct {
		name, call string
		uid        uint32
		op         vfs.Op
	}{
		{"unlink another user's coffer root", "CofferDelete", 1000, vfs.Op{Kind: vfs.OpUnlink, Path: "/shared/t"}},
		{"rmdir another user's coffer root", "CofferDelete", 1000, vfs.Op{Kind: vfs.OpRmdir, Path: "/shared/d"}},
		{"chmod another user's coffer root", "SetCofferMeta", 1000, vfs.Op{Kind: vfs.OpChmod, Path: "/shared/t", Mode: 0o666}},
		{"chown another user's coffer root", "SetCofferMeta", 1000, vfs.Op{Kind: vfs.OpChown, Path: "/shared/t", UID: 1000, GID: 1000}},
		// Both would re-permission a root-owned file or coffer in /shared.
		{"split by a non-owner", "CofferSplit", 2000, vfs.Op{Kind: vfs.OpChmod, Path: "/shared/x", Mode: 0o600}},
		{"merge-back by a non-owner", "CofferMerge", 2000, vfs.Op{Kind: vfs.OpChmod, Path: "/shared/r", Mode: 0o666}},
		// uid 2000 may delete t but not move s: the refusal must come
		// before t goes.
		{"rename a coffer root over another", "RenameCoffer", 2000, vfs.Op{Kind: vfs.OpRename, Path: "/shared/s", Dst: "/shared/t"}},
		// x leaves root's coffer for uid 2000's by a split, which only root
		// may make: the refusal must come before y goes.
		{"rename by a split over the caller's file", "CofferSplit", 2000, vfs.Op{Kind: vfs.OpRename, Path: "/shared/x", Dst: "/shared/u/y"}},
		{"move between coffers of one class", "MovePages", 1000, vfs.Op{Kind: vfs.OpRename, Path: "/shared/a/f", Dst: "/shared/b/g"}},
		{"coffer-making create where the caller may not write", "CofferNew", 1000, vfs.Op{Kind: vfs.OpCreate, Path: "/shared/d/n", Mode: 0o600}},
	}
	// The kernel calls no rule here governs: each is either the walk's own
	// (coffer_map checks coffer.Access before any row's op writes) or asks
	// no rule of its caller.
	noRow := map[string]string{
		"CofferMap":        "the walk's access check, where the create and move rows are refused",
		"CofferUnmap":      "drops the caller's own mapping",
		"CofferEnlarge":    "grows a coffer the caller has write-mapped",
		"RenamePrefix":     "re-paths the coffers under a plain directory; it asks no rule",
		"BeginRecover":     "recovery, by a writer of the coffer",
		"EndRecover":       "recovery, by the coffer's recoverer",
		"QuarantineCoffer": "recovery's fence, by the coffer's recoverer",
	}
	covered := map[string]bool{}
	for _, r := range rows {
		covered[r.call] = true
	}
	for call := range kernelCalls(t) {
		if !covered[call] && noRow[call] == "" {
			t.Errorf("the µFS calls kernfs.%s, which has no row", call)
		}
	}
	for _, r := range rows {
		t.Run(r.name, func(t *testing.T) {
			_, k, f, th := newTestFS(t, Options{})
			refusedTree(t, k, f, th)
			was, wasCoffers := snapshot(t, f, th, "/shared"), rootPages(k)

			fr, thr := mountAs(t, f, r.uid)
			if err := r.op.Do(fr, thr); !errors.Is(err, vfs.ErrPerm) {
				t.Fatalf("%v as uid %d: %v, want ErrPerm", r.op, r.uid, err)
			}
			if now := snapshot(t, f, th, "/shared"); !maps.Equal(now, was) {
				t.Errorf("the tree went from %v to %v", was, now)
			}
			if now := rootPages(k); !maps.Equal(now, wasCoffers) {
				t.Errorf("the coffers went from %+v to %+v", wasCoffers, now)
			}
			if rep := Check(k, th); len(rep.Findings) != 0 {
				t.Errorf("Check found %v", rep.Findings)
			}
		})
	}
}

// refusedTree builds /shared (0777, root's) holding root's in-coffer file x,
// root's 0600 file coffer r, uid 1000's file coffer s, uid 2000's file coffer
// t, uid 2000's empty directory coffer d and 0700 directory coffer u with its
// in-coffer file y, and root's coffers a (0711, with the in-coffer file f)
// and b (0700): one permission class.
func refusedTree(t *testing.T, k *kernfs.KernFS, f *FS, th *proc.Thread) {
	t.Helper()
	makeCofferMode(t, k, f, th, "/shared", 0o777)
	as := map[uint32]*FS{0: f}
	ths := map[uint32]*proc.Thread{0: th}
	for _, uid := range []uint32{1000, 2000} {
		as[uid], ths[uid] = mountAs(t, f, uid)
	}
	for _, step := range []struct {
		uid  uint32
		path string
		mode coffer.Mode
		data string // a file's, or "/" for a directory
	}{
		{0, "/shared/x", 0o666, "x's bytes"},
		{0, "/shared/r", 0o600, "r's bytes"},
		{1000, "/shared/s", 0o644, ""},
		{2000, "/shared/t", 0o644, "data"},
		{2000, "/shared/d", 0o755, "/"},
		{2000, "/shared/u", 0o700, "/"},
		{2000, "/shared/u/y", 0o600, "y's bytes"},
		{0, "/shared/a", 0o711, "/"},
		{0, "/shared/a/f", 0o600, "f's bytes"},
		{0, "/shared/b", 0o700, "/"},
	} {
		fu, thu := as[step.uid], ths[step.uid]
		if step.data == "/" {
			if err := fu.Mkdir(thu, step.path, step.mode); err != nil {
				t.Fatal(err)
			}
			continue
		}
		h, err := fu.Create(thu, step.path, step.mode)
		if err != nil {
			t.Fatal(err)
		}
		mustWrite(t, thu, h, []byte(step.data), 0)
		h.Close(thu)
	}
	for _, p := range []string{"/shared/r", "/shared/s", "/shared/t", "/shared/d", "/shared/u", "/shared/a", "/shared/b"} {
		if _, ok := k.LookupPath(nil, p); !ok {
			t.Fatalf("premise: %s is not a coffer", p)
		}
	}
	for _, p := range []string{"/shared/x", "/shared/u/y", "/shared/a/f"} {
		if _, ok := k.LookupPath(nil, p); ok {
			t.Fatalf("premise: %s is a coffer", p)
		}
	}
}

// snapshot maps every path under dir to what it holds: a file's bytes, or
// "/" for a directory.
func snapshot(t *testing.T, f *FS, th *proc.Thread, dir string) map[string]string {
	t.Helper()
	out := map[string]string{}
	ents, err := f.ReadDir(th, dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		p := dir + "/" + e.Name
		if e.Type == vfs.TypeDir {
			out[p] = "/"
			maps.Copy(out, snapshot(t, f, th, p))
			continue
		}
		h, err := f.Open(th, p, vfs.O_RDONLY)
		if err != nil {
			t.Fatalf("open %s: %v", p, err)
		}
		buf := make([]byte, 64)
		n, _ := h.ReadAt(th, buf, 0)
		h.Close(th)
		out[p] = string(buf[:n])
	}
	return out
}

// rootPages maps every published coffer to its root page.
func rootPages(k *kernfs.KernFS) map[coffer.ID]coffer.RootPage {
	out := map[coffer.ID]coffer.RootPage{}
	for _, id := range k.Coffers() {
		out[id], _ = k.Info(id)
	}
	return out
}

// kernelCalls is the set of KernFS system calls (methods taking the calling
// thread) that the package's non-test code makes.
func kernelCalls(t *testing.T) map[string]bool {
	t.Helper()
	kt, thread := reflect.TypeOf((*kernfs.KernFS)(nil)), reflect.TypeOf((*proc.Thread)(nil))
	srcs, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	calls := map[string]bool{}
	call := regexp.MustCompile(`\bkern\.([A-Z]\w*)\(`)
	for _, src := range srcs {
		if strings.HasSuffix(src, "_test.go") {
			continue
		}
		b, err := os.ReadFile(src)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range call.FindAllSubmatch(b, -1) {
			if meth, ok := kt.MethodByName(string(m[1])); ok && meth.Type.NumIn() > 1 && meth.Type.In(1) == thread {
				calls[string(m[1])] = true
			}
		}
	}
	return calls
}
