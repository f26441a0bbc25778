package zofs

import (
	"errors"
	"strings"
	"testing"

	"zofs/internal/vfs"
)

// Tests for what outlives a file: recycled handles and the thread scratch a
// symlink is expanded in.

// TestHandleUseAfterClose: a handle is dead at Close. Until the struct is
// handed to another open, every call on it is ErrBadFD — it used to operate
// on an inode the close had released — and a second Close is a no-op.
func TestHandleUseAfterClose(t *testing.T) {
	_, _, f, th := newTestFS(t, Options{})
	h, err := f.Create(th, "/f", 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.WriteAt(th, []byte("data"), 0); err != nil {
		t.Fatal(err)
	}
	if err := h.Close(th); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 4)
	_, rerr := h.ReadAt(th, buf, 0)
	_, werr := h.WriteAt(th, buf, 0)
	_, aerr := h.Append(th, buf)
	_, serr := h.Stat(th)
	for name, err := range map[string]error{"ReadAt": rerr, "WriteAt": werr, "Append": aerr, "Stat": serr, "Sync": h.Sync(th)} {
		if !errors.Is(err, vfs.ErrBadFD) {
			t.Errorf("%s after Close: %v, want ErrBadFD", name, err)
		}
	}
	if err := h.Close(th); err != nil {
		t.Errorf("second Close: %v", err)
	}
	if fi, err := f.Stat(th, "/f"); err != nil || fi.Size != 4 {
		t.Fatalf("the file after calls on its closed handle: %+v, %v", fi, err)
	}
	// The next open takes the struct over; it is that file's handle now.
	g, err := f.Open(th, "/f", vfs.O_RDONLY)
	if err != nil {
		t.Fatal(err)
	}
	if g.(*file) != h.(*file) {
		t.Fatal("the open after a close did not reuse the closed handle")
	}
	if n, err := g.ReadAt(th, buf, 0); err != nil || string(buf[:n]) != "data" {
		t.Fatalf("read through the reused handle = %q, %v", buf[:n], err)
	}
	if _, err := g.WriteAt(th, buf, 0); !errors.Is(err, vfs.ErrBadFD) {
		t.Fatalf("the reused handle kept the old open's write access: %v", err)
	}
	if err := g.Close(th); err != nil {
		t.Fatal(err)
	}
}

// resolveSymlinkRef is the string-at-a-time expansion the walk used to do: the
// reference for the one built in scratch.
func resolveSymlinkRef(linkPath, target, rest string) string {
	base := target
	if !strings.HasPrefix(target, "/") {
		dir, _ := vfs.SplitPath(linkPath)
		base = vfs.Join(dir, target)
	}
	if rest != "" {
		base += "/" + rest
	}
	return vfs.Clean(base)
}

// TestSymlinkExpansionMatchesReference walks through links of every shape —
// absolute and relative targets, at the root and below it, final and mid-path,
// clean and not, short and at the length limit — and compares the path
// reported for re-dispatch with the reference. The scratch is shared by all
// of them, longest first, so a stale byte from one expansion would show in
// the next.
func TestSymlinkExpansionMatchesReference(t *testing.T) {
	_, _, f, th := newTestFS(t, Options{})
	if err := f.Mkdir(th, "/d", 0o755); err != nil {
		t.Fatal(err)
	}
	if err := f.Mkdir(th, "/d/e", 0o755); err != nil {
		t.Fatal(err)
	}
	long := "/" + strings.Repeat("x", symMaxLen-1)
	cases := []struct{ link, target, rest string }{
		{"/d/e/long", long, "tail/of/the/path"},
		{"/d/e/longrel", long[1:], ""},
		{"/abs", "/d/e", ""},
		{"/absmid", "/d", "e/f"},
		{"/rel", "d/e", ""},
		{"/d/rel", "e", "f"},
		{"/d/e/up", "../../d", "e"},
		{"/d/e/dots", "./a//b/../c/", ""},
		{"/d/e/rootward", "../../../..", "x"},
		{"/d/slash", "/", "d/e"},
		{"/d/e/self", ".", ""},
	}
	for _, c := range cases {
		if err := f.Symlink(th, c.target, c.link); err != nil {
			t.Fatalf("Symlink(%q, %q): %v", c.target, c.link, err)
		}
		path := c.link
		if c.rest != "" {
			path += "/" + c.rest
		}
		_, err := f.Stat(th, path)
		var se *vfs.SymlinkError
		if !errors.As(err, &se) {
			t.Fatalf("Stat(%q) = %v, want a symlink expansion", path, err)
		}
		if want := resolveSymlinkRef(c.link, c.target, c.rest); se.Path != want {
			t.Errorf("link %q -> %q, rest %q: expands to %q, reference %q", c.link, c.target, c.rest, se.Path, want)
		}
		if got, err := f.Readlink(th, c.link); err != nil || got != c.target {
			t.Errorf("Readlink(%q) = %q, %v", c.link, got, err)
		}
	}
	if err := f.Symlink(th, long+"y", "/toolong"); !errors.Is(err, vfs.ErrNameTooLong) {
		t.Fatalf("a target past the limit: %v", err)
	}
}
