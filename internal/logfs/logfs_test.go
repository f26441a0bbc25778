package logfs_test

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"

	"zofs/internal/coffer"
	"zofs/internal/kernfs"
	"zofs/internal/logfs"
	"zofs/internal/nvm"
	"zofs/internal/proc"
	"zofs/internal/sysfactory"
	"zofs/internal/vfs"
	"zofs/internal/vfs/vfstest"
	"zofs/internal/zofs"
)

// newLogFS builds sysfactory's LogFS on a persistence-tracked device and a
// thread of its root process to drive it.
func newLogFS(t *testing.T) (*sysfactory.Instance, *logfs.FS, *proc.Thread) {
	t.Helper()
	in, err := sysfactory.LogFS.New(512<<20, true)
	if err != nil {
		t.Fatal(err)
	}
	return in, in.FS.(*logfs.FS), in.Proc.NewThread()
}

func TestLogFSConformance(t *testing.T) { vfstest.Run(t, vfstest.On(sysfactory.LogFS)) }

func TestLogReplayAfterCrash(t *testing.T) {
	in, f, th := newLogFS(t)
	dev := in.Dev
	h, err := f.Create(th, "/persist", 0o644)
	if err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte{0x5a}, 10000)
	if _, err := h.WriteAt(th, payload, 0); err != nil {
		t.Fatal(err)
	}
	f.Mkdir(th, "/d", 0o755)
	f.Symlink(th, "/persist", "/d/link")
	f.Unlink(th, "/persist2") // no-op

	// Crash: volatile index gone; remount and replay the log.
	dev.Crash()
	k2, err := kernfs.Mount(dev)
	if err != nil {
		t.Fatal(err)
	}
	th2 := proc.NewProcess(dev, 0, 0).NewThread()
	if err := k2.FSMount(th2); err != nil {
		t.Fatal(err)
	}
	f2 := logfs.New(k2)
	h2, err := f2.Open(th2, "/persist", vfs.O_RDONLY)
	if err != nil {
		t.Fatalf("replayed open: %v", err)
	}
	got := make([]byte, len(payload))
	if n, err := h2.ReadAt(th2, got, 0); err != nil || n != len(payload) || !bytes.Equal(got, payload) {
		t.Fatalf("replayed content: n=%d err=%v", n, err)
	}
	if tgt, err := f2.Readlink(th2, "/d/link"); err != nil || tgt != "/persist" {
		t.Fatalf("replayed symlink = %q, %v", tgt, err)
	}
	// Torn-tail tolerance: a crash mid-append must not break replay.
	dev.FailAfter(3)
	func() {
		defer func() { recover() }()
		h3, _ := f2.Create(th2, "/torn", 0o644)
		h3.WriteAt(th2, payload, 0)
	}()
	dev.FailAfter(0)
	dev.Crash()
	k3, err := kernfs.Mount(dev)
	if err != nil {
		t.Fatal(err)
	}
	th3 := proc.NewProcess(dev, 0, 0).NewThread()
	k3.FSMount(th3)
	f3 := logfs.New(k3)
	if _, err := f3.Open(th3, "/persist", vfs.O_RDONLY); err != nil {
		t.Fatalf("post-torn replay: %v", err)
	}
}

// spawnFS spawns a process of in's machine and returns its LogFS and thread.
func spawnFS(t *testing.T, in *sysfactory.Instance, uid, gid uint32) (*logfs.FS, *proc.Thread) {
	t.Helper()
	sp, err := in.Spawn(uid, gid)
	if err != nil {
		t.Fatal(err)
	}
	return sp.FS.(*logfs.FS), sp.Thread
}

// boot crashes in's device and boots it again, returning the new root
// process's LogFS and thread.
func boot(t *testing.T, in *sysfactory.Instance) (*logfs.FS, *proc.Thread) {
	t.Helper()
	in.Dev.Crash()
	b, err := sysfactory.Boot(in.Dev, zofs.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return b.FS.(*logfs.FS), b.Thread
}

func create(t *testing.T, f *logfs.FS, th *proc.Thread, path string, data []byte) {
	t.Helper()
	h, err := f.Create(th, path, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.WriteAt(th, data, 0); err != nil {
		t.Fatal(err)
	}
	h.Close(th)
}

// TestProcessesShareOneLog: processes of one machine append to one log, so
// none appends over another's record — A creates /f, B creates /g, then A
// creates /h, and a third process sees all three. A process of another uid
// maps the root's coffer read-only: it reads them too, and may not write.
func TestProcessesShareOneLog(t *testing.T) {
	in, a, ath := newLogFS(t)
	create(t, a, ath, "/f", []byte("a"))
	b, bth := spawnFS(t, in, 0, 0)
	create(t, b, bth, "/g", []byte("b"))
	create(t, a, ath, "/h", []byte("a"))
	c, cth := spawnFS(t, in, 0, 0)
	u, uth := spawnFS(t, in, 1000, 1000)
	for _, p := range []string{"/f", "/g", "/h"} {
		if fi, err := c.Stat(cth, p); err != nil || fi.Size != 1 {
			t.Errorf("third process Stat(%s) = %+v, %v", p, fi, err)
		}
		if fi, err := u.Stat(uth, p); err != nil || fi.Size != 1 {
			t.Errorf("uid 1000 Stat(%s) = %+v, %v", p, fi, err)
		}
	}
	if _, err := u.Create(uth, "/u", 0o644); !errors.Is(err, vfs.ErrPerm) {
		t.Fatalf("uid 1000 Create in the root's coffer: %v, want ErrPerm", err)
	}
}

// TestConcurrentProcessesShareOneLog: processes creating files in one coffer
// at once, each from its own goroutine, lose none of them.
func TestConcurrentProcessesShareOneLog(t *testing.T) {
	in, _, _ := newLogFS(t)
	const procs, files = 4, 20
	var wg sync.WaitGroup
	for p := range procs {
		sp, err := in.Spawn(0, 0)
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range files {
				h, err := sp.FS.Create(sp.Thread, fmt.Sprintf("/p%d-%d", p, i), 0o644)
				if err != nil {
					t.Error(err)
					return
				}
				h.WriteAt(sp.Thread, []byte{byte(i)}, 0)
			}
		}()
	}
	wg.Wait()
	c, cth := spawnFS(t, in, 0, 0)
	if ents, err := c.ReadDir(cth, "/"); err != nil || len(ents) != procs*files {
		t.Fatalf("ReadDir = %d entries, %v; want %d", len(ents), err, procs*files)
	}
}

// TestReplayHoldsEveryProcessRecords: two processes append to one coffer's
// log; after a crash and a boot, replay holds both processes' records.
func TestReplayHoldsEveryProcessRecords(t *testing.T) {
	in, a, ath := newLogFS(t)
	b, bth := spawnFS(t, in, 0, 0)
	want := map[string][]byte{}
	for i := range 6 {
		f, th := a, ath
		if i%2 == 1 {
			f, th = b, bth
		}
		p := fmt.Sprintf("/p%d", i)
		want[p] = bytes.Repeat([]byte{byte('a' + i)}, 3000+i)
		create(t, f, th, p, want[p])
	}
	f2, th2 := boot(t, in)
	for p, data := range want {
		h, err := f2.Open(th2, p, vfs.O_RDONLY)
		if err != nil {
			t.Errorf("replayed Open(%s): %v", p, err)
			continue
		}
		got := make([]byte, len(data))
		if n, err := h.ReadAt(th2, got, 0); n != len(data) || !bytes.Equal(got, data) {
			t.Errorf("replayed %s: read %d, %v; content equal: %v", p, n, err, bytes.Equal(got, data))
		}
	}
}

// TestOwnerSurvivesReplay: records carry the owner, so a chown survives a
// crash, a creator's identity is stamped on what it creates, and a truncating
// create keeps the old owner.
func TestOwnerSurvivesReplay(t *testing.T) {
	in, f, th := newLogFS(t)
	create(t, f, th, "/o", []byte("owned"))
	if err := f.Chown(th, "/o", 1000, 1001); err != nil {
		t.Fatal(err)
	}
	if err := f.Mkdir(th, "/pub", 0o777); err != nil {
		t.Fatal(err)
	}
	u, uth := spawnFS(t, in, 0, 7)
	create(t, u, uth, "/pub/mine", nil)
	if _, err := f.Create(th, "/o", 0o644); err != nil { // truncates
		t.Fatal(err)
	}
	f2, th2 := boot(t, in)
	for p, want := range map[string][2]uint32{"/o": {1000, 1001}, "/pub/mine": {0, 7}} {
		if fi, err := f2.Stat(th2, p); err != nil || fi.UID != want[0] || fi.GID != want[1] {
			t.Errorf("replayed Stat(%s) = %+v, %v; want owner %d:%d", p, fi, err, want[0], want[1])
		}
	}
}

func TestCompactionReclaimsSpace(t *testing.T) {
	in, f, th := newLogFS(t)
	k := in.Kern
	h, _ := f.Create(th, "/churn", 0o644)
	buf := make([]byte, 64<<10)
	// Overwrite repeatedly: CoW burns pages.
	for i := 0; i < 60; i++ {
		if _, err := h.WriteAt(th, buf, 0); err != nil {
			t.Fatal(err)
		}
	}
	before := k.FreePages()
	if err := f.Compact(th, k.RootCoffer()); err != nil {
		t.Fatal(err)
	}
	after := k.FreePages()
	if after <= before {
		t.Fatalf("cleaner reclaimed nothing: %d -> %d", before, after)
	}
	// Content survives cleaning.
	got := make([]byte, len(buf))
	if n, err := h.ReadAt(th, got, 0); err != nil || n != len(buf) {
		t.Fatalf("post-compact read: %d, %v", n, err)
	}
}

func TestMixedMicroFSDispatch(t *testing.T) {
	// The Treasury claim: two µFS types coexist, dispatched by coffer type.
	dev := nvm.NewDevice(512 << 20)
	kernfs.Mkfs(dev, kernfs.MkfsOptions{RootMode: 0o755})
	k, _ := kernfs.Mount(dev)
	p := proc.NewProcess(dev, 0, 0)
	th := p.NewThread()
	k.FSMount(th)

	// ZoFS root + a LogFS coffer at /logarea.
	id, err := k.CofferNew(th, k.RootCoffer(), "/logarea", logfs.TypeLogFS, 0o755, 0, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	lf := logfs.New(k)
	if err := lf.Format(th, id); err != nil {
		t.Fatal(err)
	}
	// LogFS file under /logarea.
	h, err := lf.Create(th, "/logarea/note", 0o644)
	if err != nil {
		t.Fatal(err)
	}
	h.WriteAt(th, []byte("log-structured"), 0)
	fi, err := lf.Stat(th, "/logarea/note")
	if err != nil || fi.Size != 14 {
		t.Fatalf("LogFS stat = %+v, %v", fi, err)
	}
	if fi.Coffer != id {
		t.Fatalf("note lives in coffer %d, want %d", fi.Coffer, id)
	}
	ents, err := lf.ReadDir(th, "/logarea")
	if err != nil || len(ents) != 1 || ents[0].Name != "note" {
		t.Fatalf("LogFS readdir = %v, %v", ents, err)
	}
}

func TestManyFilesFlatNamespace(t *testing.T) {
	_, f, th := newLogFS(t)
	f.Mkdir(th, "/flat", 0o755)
	for i := 0; i < 500; i++ {
		h, err := f.Create(th, fmt.Sprintf("/flat/f%04d", i), 0o644)
		if err != nil {
			t.Fatalf("create %d: %v", i, err)
		}
		h.WriteAt(th, []byte{byte(i)}, 0)
		h.Close(th)
	}
	ents, err := f.ReadDir(th, "/flat")
	if err != nil || len(ents) != 500 {
		t.Fatalf("ReadDir = %d, %v", len(ents), err)
	}
	if err := f.Rename(th, "/flat", "/moved"); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Stat(th, "/moved/f0123"); err != nil {
		t.Fatalf("child lost in prefix rename: %v", err)
	}
	if _, err := f.Stat(th, "/flat/f0123"); !errors.Is(err, vfs.ErrNotExist) {
		t.Fatal("old prefix survived")
	}
}

var _ = coffer.Mode(0)
