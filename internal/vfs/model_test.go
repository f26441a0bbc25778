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
	} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("Check's report lacks %q:\n%v", want, err)
		}
	}
	if n := strings.Count(err.Error(), "\n") + 1; n != 5 {
		t.Errorf("Check reported %d disagreements, want 5:\n%v", n, err)
	}

	// Skipped paths are neither compared nor walked.
	skip := func(p string) bool {
		return p == "/missing" || p == "/short" || p == "/wrong" || p == "/g" || p == "/d"
	}
	if err := m.Check(fs, th, skip); err != nil {
		t.Fatalf("Check with every difference skipped: %v", err)
	}
}
