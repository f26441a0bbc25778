// Package vfstest provides a conformance test suite that every file system
// in this repository (ZoFS and the four baselines) must pass. Benchmarks
// compare these systems, so they must agree on semantics first.
package vfstest

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"zofs/internal/proc"
	"zofs/internal/vfs"
)

// Factory builds a fresh file system and a root thread for one subtest.
type Factory func(t *testing.T) (vfs.FileSystem, *proc.Thread)

// resolve re-dispatches on symlink expansion like the FSLibs dispatcher.
func resolve(fn func(p string) error, p string) error {
	for hop := 0; hop < 40; hop++ {
		err := fn(p)
		var se *vfs.SymlinkError
		if errors.As(err, &se) {
			p = se.Path
			continue
		}
		return err
	}
	return errors.New("vfstest: symlink loop")
}

func statR(fs vfs.FileSystem, th *proc.Thread, p string) (vfs.FileInfo, error) {
	var fi vfs.FileInfo
	err := resolve(func(q string) error {
		var e error
		fi, e = fs.Stat(th, q)
		return e
	}, p)
	return fi, err
}

func openR(fs vfs.FileSystem, th *proc.Thread, p string, flags int) (vfs.Handle, error) {
	var h vfs.Handle
	err := resolve(func(q string) error {
		var e error
		h, e = fs.Open(th, q, flags)
		return e
	}, p)
	return h, err
}

// Run executes the conformance suite against the factory.
func Run(t *testing.T, factory Factory) {
	t.Run("CreateReadWrite", func(t *testing.T) {
		fs, th := factory(t)
		h, err := fs.Create(th, "/f", 0o644)
		if err != nil {
			t.Fatal(err)
		}
		data := []byte("conformance payload")
		if n, err := h.WriteAt(th, data, 0); err != nil || n != len(data) {
			t.Fatalf("WriteAt = %d,%v", n, err)
		}
		out := make([]byte, len(data))
		if n, err := h.ReadAt(th, out, 0); err != nil || n != len(data) || !bytes.Equal(out, data) {
			t.Fatalf("ReadAt = %d %q %v", n, out, err)
		}
		fi, err := h.Stat(th)
		if err != nil || fi.Size != int64(len(data)) {
			t.Fatalf("Stat = %+v %v", fi, err)
		}
		if err := h.Sync(th); err != nil {
			t.Fatal(err)
		}
		if err := h.Close(th); err != nil {
			t.Fatal(err)
		}
	})

	t.Run("OpenMissing", func(t *testing.T) {
		fs, th := factory(t)
		if _, err := openR(fs, th, "/missing", vfs.O_RDONLY); !errors.Is(err, vfs.ErrNotExist) {
			t.Fatalf("err = %v", err)
		}
		if _, err := statR(fs, th, "/missing"); !errors.Is(err, vfs.ErrNotExist) {
			t.Fatalf("stat err = %v", err)
		}
	})

	t.Run("OpenCreateTrunc", func(t *testing.T) {
		fs, th := factory(t)
		h, _ := fs.Create(th, "/t", 0o644)
		h.WriteAt(th, []byte("0123456789"), 0)
		h2, err := openR(fs, th, "/t", vfs.O_RDWR|vfs.O_TRUNC)
		if err != nil {
			t.Fatal(err)
		}
		fi, _ := h2.Stat(th)
		if fi.Size != 0 {
			t.Fatalf("O_TRUNC left size %d", fi.Size)
		}
	})

	t.Run("AppendReturnsOffset", func(t *testing.T) {
		fs, th := factory(t)
		h, _ := fs.Create(th, "/a", 0o644)
		for i := 0; i < 5; i++ {
			off, err := h.Append(th, []byte("xxxx"))
			if err != nil || off != int64(i*4) {
				t.Fatalf("append %d: off=%d err=%v", i, off, err)
			}
		}
	})

	t.Run("ReadPastEOF", func(t *testing.T) {
		fs, th := factory(t)
		h, _ := fs.Create(th, "/e", 0o644)
		h.WriteAt(th, []byte("abc"), 0)
		buf := make([]byte, 10)
		n, err := h.ReadAt(th, buf, 0)
		if err != nil || n != 3 {
			t.Fatalf("short read = %d,%v", n, err)
		}
		if n, _ := h.ReadAt(th, buf, 100); n != 0 {
			t.Fatalf("read past EOF = %d", n)
		}
	})

	t.Run("SparseHolesReadZero", func(t *testing.T) {
		fs, th := factory(t)
		h, _ := fs.Create(th, "/s", 0o644)
		h.WriteAt(th, []byte("end"), 10000)
		buf := make([]byte, 100)
		n, err := h.ReadAt(th, buf, 4096)
		if err != nil || n != 100 {
			t.Fatalf("hole read = %d,%v", n, err)
		}
		for _, b := range buf {
			if b != 0 {
				t.Fatal("hole not zero")
			}
		}
	})

	t.Run("MultiPageFile", func(t *testing.T) {
		fs, th := factory(t)
		h, _ := fs.Create(th, "/big", 0o644)
		pat := make([]byte, 3*4096+123)
		for i := range pat {
			pat[i] = byte(i * 7)
		}
		if n, err := h.WriteAt(th, pat, 0); err != nil || n != len(pat) {
			t.Fatalf("big write = %d,%v", n, err)
		}
		out := make([]byte, len(pat))
		if n, err := h.ReadAt(th, out, 0); err != nil || n != len(pat) {
			t.Fatalf("big read = %d,%v", n, err)
		}
		if !bytes.Equal(pat, out) {
			t.Fatal("multi-page content mismatch")
		}
		// Unaligned overwrite in the middle.
		h.WriteAt(th, []byte("OVERWRITE"), 5000)
		h.ReadAt(th, out[:9], 5000)
		if string(out[:9]) != "OVERWRITE" {
			t.Fatalf("overwrite readback = %q", out[:9])
		}
	})

	t.Run("MkdirTree", func(t *testing.T) {
		fs, th := factory(t)
		for _, p := range []string{"/d1", "/d1/d2", "/d1/d2/d3"} {
			if err := fs.Mkdir(th, p, 0o755); err != nil {
				t.Fatalf("mkdir %s: %v", p, err)
			}
		}
		if err := fs.Mkdir(th, "/d1", 0o755); !errors.Is(err, vfs.ErrExist) {
			t.Fatalf("dup mkdir = %v", err)
		}
		if err := fs.Mkdir(th, "/nope/x", 0o755); !errors.Is(err, vfs.ErrNotExist) {
			t.Fatalf("mkdir under missing = %v", err)
		}
		if _, err := fs.Create(th, "/d1/d2/d3/leaf", 0o644); err != nil {
			t.Fatal(err)
		}
		fi, err := statR(fs, th, "/d1/d2")
		if err != nil || fi.Type != vfs.TypeDir {
			t.Fatalf("dir stat = %+v %v", fi, err)
		}
	})

	t.Run("ReadDir", func(t *testing.T) {
		fs, th := factory(t)
		fs.Mkdir(th, "/ls", 0o755)
		names := map[string]bool{}
		for i := 0; i < 25; i++ {
			n := fmt.Sprintf("f%02d", i)
			names[n] = true
			if _, err := fs.Create(th, "/ls/"+n, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		fs.Mkdir(th, "/ls/sub", 0o755)
		names["sub"] = true
		// listed fails unless ReadDir returns exactly the current names.
		listed := func(when string) []vfs.DirEntry {
			t.Helper()
			ents, err := fs.ReadDir(th, "/ls")
			if err != nil {
				t.Fatal(err)
			}
			seen := map[string]bool{}
			for _, e := range ents {
				if !names[e.Name] || seen[e.Name] {
					t.Fatalf("%s: unexpected or repeated entry %q", when, e.Name)
				}
				seen[e.Name] = true
			}
			if len(seen) != len(names) {
				t.Fatalf("%s: ReadDir = %d entries, want %d", when, len(seen), len(names))
			}
			return ents
		}
		for _, e := range listed("after create") {
			if e.Name == "sub" && e.Type != vfs.TypeDir {
				t.Fatal("sub must be a dir")
			}
		}
		// The listing follows unlink, rename and rmdir name for name.
		for _, n := range []string{"f03", "f17"} {
			if err := fs.Unlink(th, "/ls/"+n); err != nil {
				t.Fatal(err)
			}
			delete(names, n)
		}
		if err := fs.Rename(th, "/ls/f05", "/ls/moved"); err != nil {
			t.Fatal(err)
		}
		delete(names, "f05")
		names["moved"] = true
		if err := fs.Rmdir(th, "/ls/sub"); err != nil {
			t.Fatal(err)
		}
		delete(names, "sub")
		listed("after unlink, rename and rmdir")
	})

	t.Run("UnlinkRmdir", func(t *testing.T) {
		fs, th := factory(t)
		fs.Mkdir(th, "/u", 0o755)
		fs.Create(th, "/u/f", 0o644)
		if err := fs.Rmdir(th, "/u"); !errors.Is(err, vfs.ErrNotEmpty) {
			t.Fatalf("rmdir nonempty = %v", err)
		}
		if err := fs.Unlink(th, "/u"); !errors.Is(err, vfs.ErrIsDir) {
			t.Fatalf("unlink dir = %v", err)
		}
		if err := fs.Rmdir(th, "/u/f"); !errors.Is(err, vfs.ErrNotDir) {
			t.Fatalf("rmdir file = %v", err)
		}
		if err := fs.Unlink(th, "/u/f"); err != nil {
			t.Fatal(err)
		}
		if err := fs.Rmdir(th, "/u"); err != nil {
			t.Fatal(err)
		}
		if _, err := statR(fs, th, "/u"); !errors.Is(err, vfs.ErrNotExist) {
			t.Fatal("rmdir'd dir still stats")
		}
	})

	t.Run("Rename", func(t *testing.T) {
		fs, th := factory(t)
		fs.Mkdir(th, "/r1", 0o755)
		fs.Mkdir(th, "/r2", 0o755)
		h, _ := fs.Create(th, "/r1/x", 0o644)
		h.WriteAt(th, []byte("move"), 0)
		if err := fs.Rename(th, "/r1/x", "/r2/y"); err != nil {
			t.Fatal(err)
		}
		if _, err := statR(fs, th, "/r1/x"); !errors.Is(err, vfs.ErrNotExist) {
			t.Fatal("source survived rename")
		}
		h2, err := openR(fs, th, "/r2/y", vfs.O_RDONLY)
		if err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, 4)
		h2.ReadAt(th, buf, 0)
		if string(buf) != "move" {
			t.Fatalf("renamed content = %q", buf)
		}
		// Overwriting rename.
		fs.Create(th, "/r2/z", 0o644)
		if err := fs.Rename(th, "/r2/y", "/r2/z"); err != nil {
			t.Fatal(err)
		}
		// Renaming onto a directory fails.
		fs.Create(th, "/r2/w", 0o644)
		if err := fs.Rename(th, "/r2/w", "/r1"); !errors.Is(err, vfs.ErrExist) {
			t.Fatalf("rename onto dir = %v", err)
		}
	})

	t.Run("RenameDir", func(t *testing.T) {
		fs, th := factory(t)
		fs.Mkdir(th, "/old", 0o755)
		fs.Create(th, "/old/kid", 0o644)
		if err := fs.Rename(th, "/old", "/new"); err != nil {
			t.Fatal(err)
		}
		if _, err := statR(fs, th, "/new/kid"); err != nil {
			t.Fatalf("child lost in dir rename: %v", err)
		}
	})

	t.Run("Symlink", func(t *testing.T) {
		fs, th := factory(t)
		fs.Mkdir(th, "/tgt", 0o755)
		h, _ := fs.Create(th, "/tgt/file", 0o644)
		h.WriteAt(th, []byte("linked"), 0)
		if err := fs.Symlink(th, "/tgt/file", "/ln"); err != nil {
			t.Fatal(err)
		}
		if tgt, err := fs.Readlink(th, "/ln"); err != nil || tgt != "/tgt/file" {
			t.Fatalf("Readlink = %q,%v", tgt, err)
		}
		fi, err := statR(fs, th, "/ln")
		if err != nil || fi.Type != vfs.TypeRegular {
			t.Fatalf("stat through link = %+v %v", fi, err)
		}
		// Dir symlink mid-path.
		if err := fs.Symlink(th, "/tgt", "/dl"); err != nil {
			t.Fatal(err)
		}
		h2, err := openR(fs, th, "/dl/file", vfs.O_RDONLY)
		if err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, 6)
		h2.ReadAt(th, buf, 0)
		if string(buf) != "linked" {
			t.Fatalf("through-link read = %q", buf)
		}
		if _, err := fs.Readlink(th, "/tgt/file"); !errors.Is(err, vfs.ErrInvalid) {
			t.Fatalf("readlink on regular = %v", err)
		}
	})

	t.Run("Truncate", func(t *testing.T) {
		fs, th := factory(t)
		h, _ := fs.Create(th, "/tr", 0o644)
		h.WriteAt(th, bytes.Repeat([]byte{9}, 10000), 0)
		if err := fs.Truncate(th, "/tr", 100); err != nil {
			t.Fatal(err)
		}
		fi, _ := statR(fs, th, "/tr")
		if fi.Size != 100 {
			t.Fatalf("size = %d", fi.Size)
		}
		if err := fs.Truncate(th, "/tr", 20000); err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, 50)
		h.ReadAt(th, buf, 15000)
		for _, b := range buf {
			if b != 0 {
				t.Fatal("extended area must read zero")
			}
		}
	})

	// Bytes cut off by a shrink stay gone whichever way the file grows back
	// over them: truncate up, or a write past EOF (here a zero byte, so the
	// whole of [100, 20000) must read zeros).
	for _, grow := range []struct {
		name string
		fn   func(fs vfs.FileSystem, th *proc.Thread, h vfs.Handle) error
	}{
		{"Truncate", func(fs vfs.FileSystem, th *proc.Thread, _ vfs.Handle) error {
			return fs.Truncate(th, "/tr", 20000)
		}},
		{"WriteAt", func(_ vfs.FileSystem, th *proc.Thread, h vfs.Handle) error {
			_, err := h.WriteAt(th, []byte{0}, 19999)
			return err
		}},
	} {
		t.Run("ShrinkThenExtendBy"+grow.name, func(t *testing.T) {
			fs, th := factory(t)
			h, err := fs.Create(th, "/tr", 0o644)
			if err != nil {
				t.Fatal(err)
			}
			want := make([]byte, 20000)
			copy(want, bytes.Repeat([]byte{9}, 100))
			if _, err := h.WriteAt(th, bytes.Repeat([]byte{9}, 10000), 0); err != nil {
				t.Fatal(err)
			}
			if err := fs.Truncate(th, "/tr", 100); err != nil {
				t.Fatal(err)
			}
			if err := grow.fn(fs, th, h); err != nil {
				t.Fatal(err)
			}
			got := make([]byte, len(want)+1)
			if n, err := h.ReadAt(th, got, 0); err != nil || n != len(want) {
				t.Fatalf("read back %d, %v; want %d bytes", n, err, len(want))
			}
			for i := 100; i < len(want); i++ {
				if got[i] != 0 {
					t.Fatalf("byte %d reads %d after the extension, want 0", i, got[i])
				}
			}
			if !bytes.Equal(got[:100], want[:100]) {
				t.Fatal("the kept 100 bytes changed")
			}
		})
	}

	t.Run("ChmodChown", func(t *testing.T) {
		fs, th := factory(t)
		fs.Create(th, "/perm", 0o644)
		if err := fs.Chmod(th, "/perm", 0o600); err != nil {
			t.Fatal(err)
		}
		fi, _ := statR(fs, th, "/perm")
		if fi.Mode != 0o600 {
			t.Fatalf("mode = %o", fi.Mode)
		}
		if err := fs.Chown(th, "/perm", 7, 8); err != nil {
			t.Fatal(err)
		}
		fi, _ = statR(fs, th, "/perm")
		if fi.UID != 7 || fi.GID != 8 {
			t.Fatalf("owner = %d/%d", fi.UID, fi.GID)
		}
	})

	t.Run("ConcurrentWritersDistinctFiles", func(t *testing.T) {
		fs, th := factory(t)
		const workers = 4
		done := make(chan error, workers)
		for w := 0; w < workers; w++ {
			go func(w int) {
				wt := th.Proc.NewThread()
				p := fmt.Sprintf("/w%d", w)
				h, err := fs.Create(wt, p, 0o644)
				if err != nil {
					done <- err
					return
				}
				pat := bytes.Repeat([]byte{byte(w + 1)}, 4096)
				for i := 0; i < 20; i++ {
					if _, err := h.Append(wt, pat); err != nil {
						done <- err
						return
					}
				}
				done <- nil
			}(w)
		}
		for w := 0; w < workers; w++ {
			if err := <-done; err != nil {
				t.Fatal(err)
			}
		}
		for w := 0; w < workers; w++ {
			fi, err := statR(fs, th, fmt.Sprintf("/w%d", w))
			if err != nil || fi.Size != 20*4096 {
				t.Fatalf("worker %d: %+v %v", w, fi, err)
			}
		}
	})

	t.Run("ConcurrentAppendSharedFile", func(t *testing.T) {
		fs, th := factory(t)
		h, err := fs.Create(th, "/shared", 0o644)
		if err != nil {
			t.Fatal(err)
		}
		const workers, per = 4, 25
		done := make(chan error, workers)
		for w := 0; w < workers; w++ {
			go func() {
				wt := th.Proc.NewThread()
				for i := 0; i < per; i++ {
					if _, err := h.Append(wt, make([]byte, 64)); err != nil {
						done <- err
						return
					}
				}
				done <- nil
			}()
		}
		for w := 0; w < workers; w++ {
			if err := <-done; err != nil {
				t.Fatal(err)
			}
		}
		fi, _ := statR(fs, th, "/shared")
		if fi.Size != workers*per*64 {
			t.Fatalf("interleaved appends lost data: size=%d want %d", fi.Size, workers*per*64)
		}
	})
}
