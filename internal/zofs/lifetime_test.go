package zofs

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"zofs/internal/proc"
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

// TestSymlinkMemoFollowsRecycledPage: the thread's expansion memo is keyed by
// the link's inode page, and a link unlinked and replaced by one with another
// target on the same page must not expand to the old path — for an absolute
// target, and for a relative one with a rest, where another rest must miss
// too. Opens go through vfs.Follow, as the dispatcher re-dispatches them.
func TestSymlinkMemoFollowsRecycledPage(t *testing.T) {
	_, _, f, th := newTestFS(t, Options{})
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(f.Mkdir(th, "/d", 0o755))
	for _, dir := range []string{"/a", "/b", "/d/x", "/d/q"} {
		must(f.Mkdir(th, dir, 0o755))
		h, err := f.Create(th, dir+"/z", 0o644)
		must(err)
		mustWrite(t, th, h, []byte(dir), 0)
		must(h.Close(th))
	}
	linkIno := func(link string) int64 {
		t.Helper()
		pos, err := f.walk(th, link, false, false)
		must(err)
		pos.close()
		return pos.ino
	}
	// read opens path the way the dispatcher does and returns the bytes.
	read := func(path string) string {
		t.Helper()
		h, err := vfs.Follow(path, func(p string) (vfs.Handle, error) { return f.Open(th, p, vfs.O_RDONLY) })
		must(err)
		defer h.Close(th)
		buf := make([]byte, 16)
		n, _ := h.ReadAt(th, buf, 0)
		return string(buf[:n])
	}
	// A link to a file, opened itself; and a relative link to a directory,
	// opened through with a rest.
	for _, c := range []struct{ old, new, rest, wantOld, wantNew string }{
		{"/a/z", "/b/z", "", "/a", "/b"},
		{"x", "q", "/z", "/d/x", "/d/q"},
	} {
		must(f.Symlink(th, c.old, "/d/ln"))
		ino := linkIno("/d/ln")
		if got := read("/d/ln" + c.rest); got != c.wantOld {
			t.Fatalf("through a link to %q: read %q, want %q", c.old, got, c.wantOld)
		}
		must(f.Unlink(th, "/d/ln"))
		must(f.Symlink(th, c.new, "/d/ln2"))
		if linkIno("/d/ln2") != ino {
			t.Fatal("premise: the new link did not take the unlinked one's inode page")
		}
		if got := read("/d/ln2" + c.rest); got != c.wantNew {
			t.Errorf("through the recycled page, now a link to %q: read %q, want %q", c.new, got, c.wantNew)
		}
		if c.rest != "" {
			// The same link with another rest.
			_, err := f.Stat(th, "/d/ln2/other")
			var se *vfs.SymlinkError
			if !errors.As(err, &se) || se.Path != c.wantNew+"/other" {
				t.Errorf("/d/ln2/other: %v, want an expansion to %q", err, c.wantNew+"/other")
			}
		}
		must(f.Unlink(th, "/d/ln2"))
	}
}

// TestSymlinkExpansionConcurrentProcesses: two processes expand their own
// links on real goroutines (run under -race); each thread's memo and report
// are its own, so every expansion is the thread's link's.
func TestSymlinkExpansionConcurrentProcesses(t *testing.T) {
	_, _, f, th := newTestFS(t, Options{})
	if err := f.Mkdir(th, "/d", 0o755); err != nil {
		t.Fatal(err)
	}
	const links = 8
	for p := 0; p < 2; p++ {
		for i := 0; i < links; i++ {
			if err := f.Symlink(th, fmt.Sprintf("/t%d/%d", p, i), fmt.Sprintf("/d/p%dl%d", p, i)); err != nil {
				t.Fatal(err)
			}
		}
	}
	var wg sync.WaitGroup
	for p := 0; p < 2; p++ {
		fp, thp := mountAs(t, f, 0)
		wg.Add(1)
		go func(p int, fp *FS, thp *proc.Thread) {
			defer wg.Done()
			for r := 0; r < 50; r++ {
				i := r % links
				_, err := fp.Stat(thp, fmt.Sprintf("/d/p%dl%d/rest", p, i))
				var se *vfs.SymlinkError
				if want := fmt.Sprintf("/t%d/%d/rest", p, i); !errors.As(err, &se) || se.Path != want {
					t.Errorf("process %d, link %d: %v, want an expansion to %q", p, i, err, want)
					return
				}
			}
		}(p, fp, thp)
	}
	wg.Wait()
}
