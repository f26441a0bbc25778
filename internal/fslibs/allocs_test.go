package fslibs

import (
	"fmt"
	"testing"

	"zofs/internal/kernfs"
	"zofs/internal/lockprof"
	"zofs/internal/nvm"
	"zofs/internal/pmemtrace"
	"zofs/internal/proc"
	"zofs/internal/series"
	"zofs/internal/spans"
	"zofs/internal/telemetry"
	"zofs/internal/vfs"
)

// TestAllocBudget pins the heap allocations of the hot FSLibs → ZoFS ops with
// every collector off, on a device without persistence tracking (the set-up
// the end-to-end benchmark measures): none. The open-file description and the
// µFS handle are ones an earlier close left behind; paths, dispatch, MPK
// windows, inode locks, page lists, symlink targets and listings live in the
// thread's scratch; what a coffer call keeps — the kernel's record and path
// entry, the µFS's mount — is carved from slabs, fewer than one object an op.
func TestAllocBudget(t *testing.T) {
	if telemetry.Active() != nil || spans.Active() != nil || series.Active() != nil ||
		lockprof.Active() != nil || pmemtrace.Active() != nil {
		t.Fatal("a collector is on: the budget is stated with all of them off")
	}
	dev := nvm.New(nvm.Config{Size: 256 << 20})
	if err := kernfs.Mkfs(dev, kernfs.MkfsOptions{RootMode: 0o755}); err != nil {
		t.Fatal(err)
	}
	k, err := kernfs.Mount(dev)
	if err != nil {
		t.Fatal(err)
	}
	th := proc.NewProcess(dev, 0, 0).NewThread()
	l, err := Mount(k, th, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.ZoFS().EnsureRootDir(th); err != nil {
		t.Fatal(err)
	}
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(l.Mkdir(th, "/dir", 0o755))
	must(l.Mkdir(th, "/dir/sub", 0o755))
	fd, err := l.Open(th, "/dir/sub/file", vfs.O_CREATE|vfs.O_RDWR, 0o644)
	must(err)
	block := make([]byte, 4096)
	for off := int64(0); off < 16*4096; off += 4096 {
		if _, err := l.Pwrite(th, fd, block, off); err != nil {
			t.Fatal(err)
		}
	}

	const runs = 200
	// Names are built before measuring: AllocsPerRun calls f runs+1 times.
	names := func(format string) []string {
		s := make([]string, runs+1)
		for i := range s {
			s[i] = fmt.Sprintf(format, i)
		}
		return s
	}
	created, renamed := names("/dir/sub/c%03d"), names("/dir/sub/r%03d")
	// A second coffer (its mode differs from the root coffer's) holding a
	// file a symlink in the first one names; a file in the first coffer for
	// chmod to split off and merge back; and a file that is a coffer of its
	// own (its mode differs from its directory's) to move between the two.
	must(l.Mkdir(th, "/priv", 0o700))
	for _, p := range []string{"/priv/target", "/dir/sub/chm", "/priv/moved"} {
		pfd, err := l.Open(th, p, vfs.O_CREATE|vfs.O_RDWR, 0o644)
		must(err)
		_, err = l.Pwrite(th, pfd, block, 0)
		must(err)
		must(l.Close(th, pfd))
	}
	must(l.Symlink(th, "/priv/target", "/dir/sub/ln"))
	must(l.Mkdir(th, "/list", 0o755))
	for j := 0; j < 256; j++ {
		lfd, err := l.Open(th, fmt.Sprintf("/list/e%03d", j), vfs.O_CREATE|vfs.O_RDWR, 0o644)
		must(err)
		must(l.Close(th, lfd))
	}
	moveFrom, moveTo := "/priv/moved", "/dir/sub/moved"
	i := 0
	next := func(s []string) string { i++; return s[(i-1)%len(s)] }
	// One lap of the create → rename → unlink cycle first, so the measured
	// laps run on a stationary tree: directory pages, free lists, page caches
	// and index maps have reached the size the name set needs.
	for _, n := range created {
		fd, err := l.Open(th, n, vfs.O_CREATE|vfs.O_EXCL|vfs.O_RDWR, 0o644)
		must(err)
		must(l.Close(th, fd))
	}
	for j, n := range created {
		must(l.Rename(th, n, renamed[j]))
	}
	for _, n := range renamed {
		must(l.Unlink(th, n))
	}

	cases := []struct {
		name string
		max  float64
		f    func()
	}{
		{"Clean of a clean absolute path", 0, func() { _ = vfs.Clean("/dir/sub/file") }},
		{"Stat hit", 0, func() {
			if _, err := l.Stat(th, "/dir/sub/file"); err != nil {
				t.Fatal(err)
			}
		}},
		{"Stat miss", 0, func() {
			if _, err := l.Stat(th, "/dir/sub/absent"); err != vfs.ErrNotExist {
				t.Fatal(err)
			}
		}},
		{"Pread 4 KiB", 0, func() {
			if _, err := l.Pread(th, fd, block, 8192); err != nil {
				t.Fatal(err)
			}
		}},
		{"Pwrite 4 KiB in place", 0, func() {
			if _, err := l.Pwrite(th, fd, block, 8192); err != nil {
				t.Fatal(err)
			}
		}},
		// Nothing: the description and the µFS handle are recycled ones.
		{"Open+Close", 0, func() {
			fd, err := l.Open(th, "/dir/sub/file", vfs.O_RDONLY, 0)
			if err != nil {
				t.Fatal(err)
			}
			must(l.Close(th, fd))
		}},
		// The path the link expands to, which the description keeps, is the
		// one the thread's memo holds from the first run.
		{"Open through a symlink into another coffer + Close", 0, func() {
			fd, err := l.Open(th, "/dir/sub/ln", vfs.O_RDONLY, 0)
			if err != nil {
				t.Fatal(err)
			}
			must(l.Close(th, fd))
		}},
		// Nothing, as Open+Close; the inode page is a recycled one, so its
		// volatile state entry and its dentry slot are there already.
		{"O_CREAT|O_EXCL create + Close", 0, func() {
			fd, err := l.Open(th, next(created), vfs.O_CREATE|vfs.O_EXCL|vfs.O_RDWR, 0o644)
			if err != nil {
				t.Fatal(err)
			}
			must(l.Close(th, fd))
		}},
		// Nothing: the dentry index entry moves within the slice it is in.
		{"Rename in the same directory", 0, func() {
			from := next(created)
			must(l.Rename(th, from, renamed[(i-1)%len(renamed)]))
		}},
		// Nothing: the freed slot and page go onto lists that have room.
		{"Unlink", 0, func() { must(l.Unlink(th, next(renamed))) }},
		// Nothing: the µFS lists into the thread's buffer and the dispatcher
		// passes it through.
		{"ReadDir of 256 entries", 0, func() {
			if ents, err := l.ReadDir(th, "/list"); err != nil || len(ents) != 256 {
				t.Fatalf("listed %d of 256: %v", len(ents), err)
			}
		}},
		// Nothing: the target is staged in the thread's scratch.
		{"Symlink + Unlink", 0, func() {
			must(l.Symlink(th, "/dir/sub/file", "/dir/sub/tmpln"))
			must(l.Unlink(th, "/dir/sub/tmpln"))
		}},
		{"Chmod 0600 + Chmod back (split + merge)", 0, func() {
			must(l.Chmod(th, "/dir/sub/chm", 0o600))
			must(l.Chmod(th, "/dir/sub/chm", 0o644))
		}},
		{"Rename between two coffers", 0, func() {
			must(l.Rename(th, moveFrom, moveTo))
			moveFrom, moveTo = moveTo, moveFrom
		}},
	}
	for _, c := range cases {
		i = 0
		got := testing.AllocsPerRun(runs, c.f)
		t.Logf("%s: %v allocs/op, budget %v", c.name, got, c.max)
		if got > c.max {
			t.Errorf("%s: over budget", c.name)
		}
	}
}
