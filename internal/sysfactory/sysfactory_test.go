package sysfactory_test

import (
	"bytes"
	"errors"
	"testing"

	"zofs/internal/baselines"
	"zofs/internal/sysfactory"
	"zofs/internal/vfs"
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
