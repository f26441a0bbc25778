package sysfactory_test

import (
	"bytes"
	"errors"
	"testing"

	"zofs/internal/baselines"
	"zofs/internal/sysfactory"
	"zofs/internal/vfs"
	"zofs/internal/zofs"
)

// TestEverySystemBuildsAndRoundTrips: each System in All builds on a fresh
// device under a name no other uses — the harnesses key tables, cell labels and
// BENCH cells by it, and crashmc resolves it — exposes its kernel if it runs
// on one, and carries a file through mkdir, create, write, read, stat and
// unlink.
func TestEverySystemBuildsAndRoundTrips(t *testing.T) {
	seen := map[string]bool{}
	for _, sys := range sysfactory.All {
		if sys.Name == "" || seen[sys.Name] {
			t.Errorf("system name %q is empty or used twice", sys.Name)
		}
		seen[sys.Name] = true
		t.Run(sys.Name, func(t *testing.T) {
			in, err := sys.New(64<<20, false)
			if err != nil {
				t.Fatal(err)
			}
			if in.Name != sys.Name || in.FS == nil || in.Proc == nil || in.Dev == nil {
				t.Fatalf("instance %+v of system %q", in, sys.Name)
			}
			if _, baseline := in.FS.(*baselines.Engine); baseline != (in.Kern == nil) {
				t.Fatalf("%s: kernel %v on a baseline: %v", sys.Name, in.Kern, baseline)
			}
			fs, th := in.FS, in.Proc.NewThread()
			if err := fs.Mkdir(th, "/d", 0o755); err != nil {
				t.Fatal(err)
			}
			h, err := fs.Create(th, "/d/f", 0o644)
			if err != nil {
				t.Fatal(err)
			}
			// Past one block, and past ZoFS-inline's in-inode capacity.
			want := bytes.Repeat([]byte("zofs"), 1500)
			if n, err := h.WriteAt(th, want, 0); err != nil || n != len(want) {
				t.Fatalf("WriteAt = %d, %v", n, err)
			}
			got := make([]byte, len(want))
			if n, err := h.ReadAt(th, got, 0); err != nil || n != len(want) || !bytes.Equal(got, want) {
				t.Fatalf("ReadAt = %d, %v; content equal: %v", n, err, bytes.Equal(got, want))
			}
			if err := h.Close(th); err != nil {
				t.Fatal(err)
			}
			if fi, err := fs.Stat(th, "/d/f"); err != nil || fi.Size != int64(len(want)) || fi.Type != vfs.TypeRegular {
				t.Fatalf("Stat = %+v, %v", fi, err)
			}
			if err := fs.Unlink(th, "/d/f"); err != nil {
				t.Fatal(err)
			}
			if _, err := fs.Stat(th, "/d/f"); !errors.Is(err, vfs.ErrNotExist) {
				t.Fatalf("Stat after unlink: %v", err)
			}
		})
	}
	for _, sys := range sysfactory.Comparison {
		if !seen[sys.Name] {
			t.Errorf("Comparison holds %q, which is not in All", sys.Name)
		}
	}
}

// TestSpawn: a spawned process carries the identity it was given and shares
// its machine's file system both ways — a process of another uid reads back
// byte-equal what the root process wrote and closed, and the root process
// stats what a spawned root process creates (a non-root creator is refused
// by ZoFS-1coffer, whose one coffer is root's).
func TestSpawn(t *testing.T) {
	for _, sys := range sysfactory.All {
		t.Run(sys.Name, func(t *testing.T) {
			in, err := sys.New(64<<20, false)
			if err != nil {
				t.Fatal(err)
			}
			th := in.Proc.NewThread()
			if err := in.FS.Mkdir(th, "/d", 0o777); err != nil {
				t.Fatal(err)
			}
			want := bytes.Repeat([]byte("root"), 1500)
			h, err := in.FS.Create(th, "/d/f", 0o644)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := h.WriteAt(th, want, 0); err != nil {
				t.Fatal(err)
			}
			if err := h.Close(th); err != nil {
				t.Fatal(err)
			}

			user := spawn(t, in, 1000, 1001)
			uth := user.Proc.NewThread()
			h, err = user.FS.Open(uth, "/d/f", vfs.O_RDONLY)
			if err != nil {
				t.Fatal(err)
			}
			got := make([]byte, len(want))
			if n, err := h.ReadAt(uth, got, 0); n != len(want) || !bytes.Equal(got, want) {
				t.Fatalf("spawned ReadAt = %d, %v; content equal: %v", n, err, bytes.Equal(got, want))
			}
			h.Close(uth)

			root := spawn(t, in, 0, 0)
			rth := root.Proc.NewThread()
			h, err = root.FS.Create(rth, "/d/g", 0o644)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := h.WriteAt(rth, []byte("spawned"), 0); err != nil {
				t.Fatal(err)
			}
			if err := h.Close(rth); err != nil {
				t.Fatal(err)
			}
			if fi, err := in.FS.Stat(th, "/d/g"); err != nil || fi.Size != 7 {
				t.Fatalf("root Stat of the spawned file = %+v, %v", fi, err)
			}
		})
	}
}

// TestBoot: Boot brings every µFS machine's device back after a crash with
// what the crash left, a root process running the µFS the root coffer's type
// routes to, and no volatile state from before — even with no crash, ZoFS's
// directory cache comes up cold.
func TestBoot(t *testing.T) {
	for _, sys := range sysfactory.All {
		in, err := sys.New(64<<20, true)
		if err != nil {
			t.Fatal(err)
		}
		if in.Lib == nil {
			continue // the baselines' namespaces are volatile
		}
		t.Run(sys.Name, func(t *testing.T) {
			th := in.Proc.NewThread()
			if err := in.FS.Mkdir(th, "/d", 0o755); err != nil {
				t.Fatal(err)
			}
			if _, err := in.FS.Stat(th, "/d"); err != nil {
				t.Fatal(err)
			}
			if _, err := sysfactory.Boot(in.Dev, in.Lib.ZoFS().Options()); err != nil {
				t.Fatal(err)
			}
			if n := zofs.DirCacheDirs(in.Dev); n != 0 {
				t.Fatalf("directory cache holds %d indexes after Boot", n)
			}
			in.Dev.Crash()
			b, err := sysfactory.Boot(in.Dev, in.Lib.ZoFS().Options())
			if err != nil {
				t.Fatal(err)
			}
			if b.Kern == in.Kern || b.Proc.UID() != 0 || b.Thread == nil || b.FS.Name() != in.FS.Name() {
				t.Fatalf("booted %+v from %+v", b, in)
			}
			if fi, err := b.FS.Stat(b.Thread, "/d"); err != nil || fi.Type != vfs.TypeDir {
				t.Fatalf("Stat after Boot = %+v, %v", fi, err)
			}
		})
	}
}

// spawn spawns a process of in's machine and checks what it shares with in.
func spawn(t *testing.T, in *sysfactory.Instance, uid, gid uint32) *sysfactory.Instance {
	t.Helper()
	sp, err := in.Spawn(uid, gid)
	if err != nil {
		t.Fatal(err)
	}
	if sp.Proc == in.Proc || sp.Proc.UID() != uid || sp.Proc.GID() != gid ||
		sp.Name != in.Name || sp.Dev != in.Dev || sp.Kern != in.Kern || (sp.Lib == nil) != (in.Lib == nil) {
		t.Fatalf("spawned %+v from %+v", sp, in)
	}
	return sp
}
