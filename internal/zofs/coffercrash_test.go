package zofs

import (
	"fmt"
	"slices"
	"testing"

	"zofs/internal/coffer"
	"zofs/internal/kernfs"
	"zofs/internal/nvm"
	"zofs/internal/proc"
	"zofs/internal/vfs"
)

// cofferCrashRow is one µFS operation that calls a coffer operation (paper
// Table 5), with the set-up before it. Its two legal outcomes are the models
// of the set-up without and with the op. coffer says whether the op, run to
// its end, leaves its target path a coffer of its own; to is the class the
// op moves its target's pages into (zero when it moves none across classes).
type cofferCrashRow struct {
	name   string
	setup  []vfs.Op
	op     vfs.Op
	coffer bool
	to     coffer.Class
}

func cofferCrashRows() []cofferCrashRow {
	data := patterned(8*pageSize, 1)
	file := func(path string, mode coffer.Mode, more ...vfs.Op) []vfs.Op {
		return append([]vfs.Op{{Kind: vfs.OpCreate, Path: path, Mode: mode}, {Kind: vfs.OpWrite, Path: path, Data: data}}, more...)
	}
	chmod := func(path string, mode coffer.Mode) vfs.Op { return vfs.Op{Kind: vfs.OpChmod, Path: path, Mode: mode} }
	mkdir := func(path string, mode coffer.Mode) vfs.Op { return vfs.Op{Kind: vfs.OpMkdir, Path: path, Mode: mode} }
	split := file("/f", 0o644, chmod("/f", 0o600))
	return []cofferCrashRow{
		{"chmod split", file("/f", 0o644), chmod("/f", 0o600), true, coffer.ClassOf(0o600, 0, 0)},
		{"chown split", file("/f", 0o644), vfs.Op{Kind: vfs.OpChown, Path: "/f", UID: 7, GID: 7}, true, coffer.ClassOf(0o644, 7, 7)},
		{"chmod merge-back", split, chmod("/f", 0o644), false, coffer.ClassOf(0o644, 0, 0)},
		{"rename split", append([]vfs.Op{mkdir("/ca", 0o750), mkdir("/cb", 0o700)}, file("/ca/f", 0o750)...),
			vfs.Op{Kind: vfs.OpRename, Path: "/ca/f", Dst: "/cb/m"}, true, coffer.Class{}},
		{"unlink coffer_new file", file("/f", 0o600), vfs.Op{Kind: vfs.OpUnlink, Path: "/f"}, false, coffer.Class{}},
		{"unlink split file", split, vfs.Op{Kind: vfs.OpUnlink, Path: "/f"}, false, coffer.Class{}},
		{"rmdir coffer dir", []vfs.Op{mkdir("/d", 0o700)}, vfs.Op{Kind: vfs.OpRmdir, Path: "/d"}, false, coffer.Class{}},
		{"coffer create", nil, vfs.Op{Kind: vfs.OpCreate, Path: "/f", Mode: 0o600}, true, coffer.Class{}},
		{"coffer mkdir", nil, mkdir("/d", 0o700), true, coffer.Class{}},
	}
}

// TestCrashInsideCofferOps is the one crash driver over the coffer protocol.
// It cuts each row's op after each persisting store it makes, remounts and
// runs Check. Wherever the cut falls, Check leaves nothing unrepaired,
// nothing panics, the tree is one of the row's two models, no page has moved
// into a coffer of another permission unless the op moves it there, and a
// second Check finds nothing. Some cut of every row leaves pages with a
// coffer that is not published, for Mount to finish: a cut inside
// coffer_new, coffer_split, coffer_merge or coffer_delete.
func TestCrashInsideCofferOps(t *testing.T) {
	for _, r := range cofferCrashRows() {
		t.Run(r.name, func(t *testing.T) {
			unfinished := 0
			for n := int64(1); ; n++ {
				done, mid := cutCofferOp(t, r, n)
				if mid {
					unfinished++
				}
				if done {
					break
				}
			}
			if unfinished == 0 {
				t.Fatal("no cut left pages with an unpublished coffer")
			}
		})
	}
}

// panicOf runs fn and returns what it panicked with, nil when it returned.
func panicOf(fn func()) (p any) {
	defer func() { p = recover() }()
	fn()
	return nil
}

// cutCofferOp runs row r's set-up on a fresh instance, then its op with the
// device armed to crash after store n, and checks the image the crash leaves.
// It reports whether the op ran to its end, and whether the crash left pages
// with an unpublished coffer.
func cutCofferOp(t *testing.T, r cofferCrashRow, n int64) (done, unfinished bool) {
	dev := nvm.NewDevice(16 << 20)
	k, f, th := mountTestFS(t, dev, Options{})
	before, after := vfs.NewModel(), vfs.NewModel()
	for _, op := range r.setup {
		if err := op.Do(f, th); err != nil {
			t.Fatalf("set-up %v: %v", op, err)
		}
		before.Apply(op)
		after.Apply(op)
	}
	after.Apply(r.op)
	was := permClasses(k)
	dev.FailAfter(n)
	p := panicOf(func() {
		if err := r.op.Do(f, th); err != nil {
			t.Fatalf("%v: %v", r.op, err)
		}
	})
	dev.FailAfter(0)
	if p == nil {
		target := r.op.Path
		if r.op.Kind == vfs.OpRename {
			target = r.op.Dst
		}
		if _, own := k.LookupPath(nil, target); own != r.coffer {
			t.Fatalf("premise: after %v, %s is a coffer: %v, want %v", r.op, target, own, r.coffer)
		}
		if err := after.Check(f, th, nil); err != nil {
			t.Fatalf("after %v: %v", r.op, err)
		}
		return true, false
	}
	if !nvm.IsInjectedCrash(p) {
		panic(p)
	}
	dev.Crash()
	for pg := range dev.Pages() {
		if id, ok := k.OwnerOf(pg); ok {
			if _, published := k.Info(id); !published {
				unfinished = true
				break
			}
		}
	}
	where := fmt.Sprintf("crash after store %d", n)
	if p := panicOf(func() { checkCut(t, where, r, dev, was, before, after) }); p != nil {
		t.Errorf("%s: %v", where, p)
	}
	return false, unfinished
}

// checkCut remounts a crashed image and holds it to the row's outcomes.
func checkCut(t *testing.T, where string, r cofferCrashRow, dev *nvm.Device, was []coffer.Class, before, after *vfs.Model) {
	k, err := kernfs.Mount(dev)
	if err != nil {
		t.Errorf("%s: remount: %v", where, err)
		return
	}
	th := proc.NewProcess(dev, 0, 0).NewThread()
	if err := k.FSMount(th); err != nil {
		t.Fatal(err)
	}
	for pg, c := range permClasses(k) {
		if c != (coffer.Class{}) && was[pg] != (coffer.Class{}) && c != was[pg] && c != r.to {
			t.Errorf("%s: page %d went from a coffer of %+v to one of %+v", where, pg, was[pg], c)
			return
		}
	}
	if err := Check(k, th).Err(); err != nil {
		t.Errorf("%s: Check: %v", where, err)
		return
	}
	if rep := Check(k, th); len(rep.Findings) != 0 {
		t.Errorf("%s: a second Check found %v", where, rep.Findings)
		return
	}
	f := New(k, Options{})
	for _, id := range k.Coffers() {
		if rp, _ := k.Info(id); id != k.RootCoffer() {
			dir, base := vfs.SplitPath(rp.Path)
			ents, _ := f.ReadDir(th, dir)
			if !slices.ContainsFunc(ents, func(e vfs.DirEntry) bool { return e.Name == base }) {
				t.Errorf("%s: %s does not list coffer %d at %s", where, dir, id, rp.Path)
			}
		}
	}
	if errBefore := before.Check(f, th, nil); errBefore != nil {
		if errAfter := after.Check(f, th, nil); errAfter != nil {
			t.Errorf("%s: the tree is neither the op's before (%v) nor its after (%v)", where, errBefore, errAfter)
		}
	}
}

// permClasses gives each device page the permission class of the published
// coffer that owns it, zero for a page no published coffer owns.
func permClasses(k *kernfs.KernFS) []coffer.Class {
	classes := make([]coffer.Class, k.Device().Pages())
	for pg := range classes {
		if id, ok := k.OwnerOf(int64(pg)); ok {
			if rp, ok := k.Info(id); ok {
				classes[pg] = rp.Class()
			}
		}
	}
	return classes
}
