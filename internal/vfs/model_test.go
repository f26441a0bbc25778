package vfs_test

import (
	"bytes"
	"slices"
	"strings"
	"testing"

	"zofs/internal/baselines"
	"zofs/internal/coffer"
	"zofs/internal/nvm"
	"zofs/internal/proc"
	"zofs/internal/vfs"
)

// paths lists the model's files in creation order.
func paths(m *vfs.Model) []string {
	out := make([]string, m.Len())
	for i := range out {
		out[i] = m.Path(i)
	}
	return out
}

func TestModelRenameKeepsPlace(t *testing.T) {
	m := vfs.NewModel()
	for _, p := range []string{"/a", "/b", "/c"} {
		m.Create(p, 0o644)
	}
	m.Write("/a", []byte("aa"), 0)
	m.Rename("/a", "/z")
	if got, want := paths(m), []string{"/z", "/b", "/c"}; !slices.Equal(got, want) {
		t.Fatalf("after rename: %v, want %v", got, want)
	}
	if data, ok := m.Data("/z"); !ok || string(data) != "aa" {
		t.Fatalf("renamed file holds %q (%v), want its bytes", data, ok)
	}
	if _, ok := m.Data("/a"); ok {
		t.Fatal("the old name is still in the model")
	}
	// Over an existing name: the moved file keeps its place, the one it
	// replaced is gone.
	m.Rename("/c", "/b")
	if got, want := paths(m), []string{"/z", "/b"}; !slices.Equal(got, want) {
		t.Fatalf("after rename over /b: %v, want %v", got, want)
	}
}

func TestModelUnlinkKeepsOrder(t *testing.T) {
	m := vfs.NewModel()
	for _, p := range []string{"/a", "/b", "/c", "/d"} {
		m.Create(p, 0o644)
	}
	m.Unlink("/b")
	m.Unlink("/missing")
	if got, want := paths(m), []string{"/a", "/c", "/d"}; !slices.Equal(got, want) {
		t.Fatalf("after unlink: %v, want %v", got, want)
	}
}

func TestModelWriteZeroExtends(t *testing.T) {
	m := vfs.NewModel()
	m.Create("/f", 0o644)
	m.Write("/f", []byte("ab"), 0)
	m.Write("/f", []byte("xy"), 5)
	m.Write("/f", []byte("B"), 1)
	if data, _ := m.Data("/f"); !bytes.Equal(data, []byte("aB\x00\x00\x00xy")) {
		t.Fatalf("data %q, want the gap zero-filled", data)
	}
}

func TestModelTruncateBothWays(t *testing.T) {
	m := vfs.NewModel()
	m.Create("/f", 0o644)
	m.Write("/f", []byte("abcdef"), 0)
	m.Truncate("/f", 2)
	if data, _ := m.Data("/f"); string(data) != "ab" {
		t.Fatalf("shrunk to %q, want %q", data, "ab")
	}
	m.Truncate("/f", 4)
	if data, _ := m.Data("/f"); !bytes.Equal(data, []byte("ab\x00\x00")) {
		t.Fatalf("extended to %q, want the cut bytes back as zeros", data)
	}
}

func TestModelCreateOverExisting(t *testing.T) {
	m := vfs.NewModel()
	m.Create("/a", 0o644)
	m.Create("/b", 0o644)
	m.Write("/a", []byte("data"), 0)
	m.Chmod("/a", 0o600)
	m.Create("/a", 0o640)
	if got, want := paths(m), []string{"/a", "/b"}; !slices.Equal(got, want) {
		t.Fatalf("after re-create: %v, want %v", got, want)
	}
	if data, _ := m.Data("/a"); len(data) != 0 {
		t.Fatalf("re-created file holds %q, want it truncated", data)
	}
	fs, th := newFS(t)
	create(t, fs, th, "/a", 0o600, nil)
	create(t, fs, th, "/b", 0o644, nil)
	if err := m.Check(fs, th, nil); err != nil {
		t.Fatalf("a re-created file keeps its mode: %v", err)
	}
}

func newFS(t *testing.T) (vfs.FileSystem, *proc.Thread) {
	dev := nvm.NewDevice(64 << 20)
	return baselines.NewExt4DAX(dev), proc.NewProcess(dev, 0, 0).NewThread()
}

func create(t *testing.T, fs vfs.FileSystem, th *proc.Thread, path string, mode coffer.Mode, data []byte) {
	t.Helper()
	h, err := fs.Create(th, path, mode)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.WriteAt(th, data, 0); err != nil {
		t.Fatal(err)
	}
	h.Close(th)
}

// TestModelCheck: Check passes a file system that holds what the model
// holds, and names each way one that does not differs.
func TestModelCheck(t *testing.T) {
	fs, th := newFS(t)
	m := vfs.NewModel()
	if err := fs.Mkdir(th, "/d", 0o755); err != nil {
		t.Fatal(err)
	}
	m.Mkdir("/d")
	for _, p := range []string{"/d/f", "/g", "/short", "/wrong"} {
		create(t, fs, th, p, 0o644, []byte("payload"))
		m.Create(p, 0o644)
		m.Write(p, []byte("payload"), 0)
	}
	if err := m.Check(fs, th, nil); err != nil {
		t.Fatalf("a file system holding the model: %v", err)
	}

	m.Create("/missing", 0o644)
	create(t, fs, th, "/d/extra", 0o644, nil)
	if err := fs.Truncate(th, "/short", 3); err != nil {
		t.Fatal(err)
	}
	create(t, fs, th, "/wrong", 0o644, []byte("payLoad"))
	if err := fs.Chmod(th, "/g", 0o600); err != nil {
		t.Fatal(err)
	}
	err := m.Check(fs, th, nil)
	if err == nil {
		t.Fatal("Check passed a file system that differs from the model")
	}
	for _, want := range []string{
		"file /missing: " + vfs.ErrNotExist.Error(),
		"/d/extra (file) is not in the model",
		"/short size 3, want 7",
		"/wrong differs from the model at byte 3 of 7",
		"/g mode 600, want 644",
		"/missing (file) is missing from the listing of /",
	} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("Check's report lacks %q:\n%v", want, err)
		}
	}
	if n := strings.Count(err.Error(), "\n") + 1; n != 6 {
		t.Errorf("Check reported %d disagreements, want 6:\n%v", n, err)
	}

	// Skipped paths are neither compared nor walked.
	skip := func(p string) bool {
		return p == "/missing" || p == "/short" || p == "/wrong" || p == "/g" || p == "/d"
	}
	if err := m.Check(fs, th, skip); err != nil {
		t.Fatalf("Check with every difference skipped: %v", err)
	}
}

// listing is a file system whose ReadDir of /d passes through edit.
type listing struct {
	vfs.FileSystem
	edit func([]vfs.DirEntry) []vfs.DirEntry
}

func (l listing) ReadDir(th *proc.Thread, path string) ([]vfs.DirEntry, error) {
	ents, err := l.FileSystem.ReadDir(th, path)
	if err != nil || path != "/d" {
		return ents, err
	}
	return l.edit(slices.Clone(ents)), nil
}

// TestModelCheckListings: Check compares each directory's listing with the
// model's entries there: one left out, listed twice or listed with another
// type is named, though every path still stats as the model has it.
func TestModelCheckListings(t *testing.T) {
	fs, th := newFS(t)
	m := vfs.NewModel()
	for _, op := range []vfs.Op{
		{Kind: vfs.OpMkdir, Path: "/d", Mode: 0o755},
		{Kind: vfs.OpCreate, Path: "/d/f", Mode: 0o644},
		{Kind: vfs.OpMkdir, Path: "/d/sub", Mode: 0o755},
		{Kind: vfs.OpSymlink, Path: "/d/l", Dst: "/d/f"},
	} {
		if err := op.Do(fs, th); err != nil {
			t.Fatalf("%v: %v", op, err)
		}
		m.Apply(op)
	}
	named := func(ents []vfs.DirEntry, name string) int {
		return slices.IndexFunc(ents, func(e vfs.DirEntry) bool { return e.Name == name })
	}
	for _, c := range []struct {
		name string
		edit func([]vfs.DirEntry) []vfs.DirEntry
		want string
	}{
		{"as it is", func(e []vfs.DirEntry) []vfs.DirEntry { return e }, ""},
		{"an entry left out", func(e []vfs.DirEntry) []vfs.DirEntry {
			return slices.Delete(e, named(e, "f"), named(e, "f")+1)
		}, "/d/f (file) is missing from the listing of /d"},
		{"an entry listed twice", func(e []vfs.DirEntry) []vfs.DirEntry {
			return append(e, e[named(e, "sub")])
		}, "sub is listed twice in /d"},
		{"a symlink listed as a file", func(e []vfs.DirEntry) []vfs.DirEntry {
			e[named(e, "l")].Type = vfs.TypeRegular
			return e
		}, "/d/l is listed as a file, want a symlink"},
	} {
		err := m.Check(listing{fs, c.edit}, th, nil)
		if c.want == "" && err != nil || c.want != "" && (err == nil || !strings.Contains(err.Error(), c.want)) {
			t.Errorf("%s: Check = %v, want it to name %q", c.name, err, c.want)
		}
	}
}

// TestModelCheckNewOps: for each op the model records beyond files' bytes
// and modes, Check passes a file system that did the same ops, then names a
// disagreement planted on one side.
func TestModelCheckNewOps(t *testing.T) {
	for _, c := range []struct {
		name  string
		ops   []vfs.Op
		plant func(fs vfs.FileSystem, th *proc.Thread, m *vfs.Model) error
		want  string
	}{
		{"a subtree missing after a directory rename", []vfs.Op{
			{Kind: vfs.OpMkdir, Path: "/d", Mode: 0o755},
			{Kind: vfs.OpMkdir, Path: "/d/sub", Mode: 0o755},
			{Kind: vfs.OpCreate, Path: "/d/sub/f", Mode: 0o644},
			{Kind: vfs.OpRename, Path: "/d", Dst: "/e"},
		}, func(fs vfs.FileSystem, th *proc.Thread, _ *vfs.Model) error {
			if err := fs.Unlink(th, "/e/sub/f"); err != nil {
				return err
			}
			return fs.Rmdir(th, "/e/sub")
		}, "directory /e/sub: " + vfs.ErrNotExist.Error()},
		{"a wrong symlink target", []vfs.Op{
			{Kind: vfs.OpCreate, Path: "/t", Mode: 0o644},
			{Kind: vfs.OpSymlink, Path: "/l", Dst: "/t"},
		}, func(fs vfs.FileSystem, th *proc.Thread, _ *vfs.Model) error {
			if err := fs.Unlink(th, "/l"); err != nil {
				return err
			}
			return fs.Symlink(th, "/other", "/l")
		}, "/l links to /other, want /t"},
		{"a wrong owner after Chown", []vfs.Op{
			{Kind: vfs.OpCreate, Path: "/o", Mode: 0o644},
			{Kind: vfs.OpChown, Path: "/o", UID: 7, GID: 8},
		}, func(fs vfs.FileSystem, th *proc.Thread, _ *vfs.Model) error {
			return fs.Chown(th, "/o", 7, 9)
		}, "/o owner 7:9, want 7:8"},
		{"a directory still present after Rmdir", []vfs.Op{
			{Kind: vfs.OpMkdir, Path: "/r", Mode: 0o755},
			{Kind: vfs.OpMkdir, Path: "/gone", Mode: 0o755},
			{Kind: vfs.OpRmdir, Path: "/gone"},
		}, func(_ vfs.FileSystem, _ *proc.Thread, m *vfs.Model) error {
			m.Rmdir("/r")
			return nil
		}, "/r (dir) is not in the model"},
	} {
		t.Run(c.name, func(t *testing.T) {
			fs, th := newFS(t)
			m := vfs.NewModel()
			for _, op := range c.ops {
				if err := op.Do(fs, th); err != nil {
					t.Fatalf("%v: %v", op, err)
				}
				m.Apply(op)
			}
			if err := m.Check(fs, th, nil); err != nil {
				t.Fatalf("a file system that did the model's ops: %v", err)
			}
			if err := c.plant(fs, th, m); err != nil {
				t.Fatal(err)
			}
			if err := m.Check(fs, th, nil); err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("Check = %v, want it to name %q", err, c.want)
			}
		})
	}
}

func TestModelRenameMovesSubtree(t *testing.T) {
	m := vfs.NewModel()
	m.Mkdir("/d")
	m.Mkdir("/dx")
	m.Mkdir("/d/sub")
	m.Create("/d/sub/f", 0o644)
	m.Create("/dx/g", 0o644)
	m.Symlink("/d/sub/f", "/d/l")
	m.Rename("/d", "/e")
	if got, want := m.Dirs(), []string{"/", "/e", "/dx", "/e/sub"}; !slices.Equal(got, want) {
		t.Fatalf("directories %v, want %v", got, want)
	}
	if got, want := paths(m), []string{"/e/sub/f", "/dx/g"}; !slices.Equal(got, want) {
		t.Fatalf("files %v, want %v", got, want)
	}
	fs, th := newFS(t)
	for _, d := range []string{"/e", "/dx", "/e/sub"} {
		if err := fs.Mkdir(th, d, 0o755); err != nil {
			t.Fatal(err)
		}
	}
	create(t, fs, th, "/e/sub/f", 0o644, nil)
	create(t, fs, th, "/dx/g", 0o644, nil)
	if err := fs.Symlink(th, "/d/sub/f", "/e/l"); err != nil {
		t.Fatal(err)
	}
	if err := m.Check(fs, th, nil); err != nil {
		t.Fatalf("the moved link keeps its target: %v", err)
	}
}
