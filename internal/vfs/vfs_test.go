package vfs

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestSplitPath(t *testing.T) {
	cases := []struct{ in, dir, base string }{
		{"/", "/", ""},
		{"", "/", ""},
		{"/a", "/", "a"},
		{"/a/b", "/a", "b"},
		{"/a/b/c.txt", "/a/b", "c.txt"},
	}
	for _, c := range cases {
		d, b := SplitPath(c.in)
		if d != c.dir || b != c.base {
			t.Errorf("SplitPath(%q) = %q,%q want %q,%q", c.in, d, b, c.dir, c.base)
		}
	}
}

func TestJoin(t *testing.T) {
	if Join("/", "x") != "/x" || Join("/a", "b") != "/a/b" {
		t.Fatal("Join broken")
	}
}

func TestClean(t *testing.T) {
	cases := []struct{ in, want string }{
		{"/", "/"},
		{"//a//b/", "/a/b"},
		{"/a/./b", "/a/b"},
		{"/a/../b", "/b"},
		{"/../a", "/a"},
		{"/a/b/../../c", "/c"},
		{"a/../b", "b"},
		{"../x", "../x"},
		{".", "."},
		{"a/..", "."},
	}
	for _, c := range cases {
		if got := Clean(c.in); got != c.want {
			t.Errorf("Clean(%q) = %q want %q", c.in, got, c.want)
		}
	}
}

// Property: Clean is idempotent and Join/SplitPath invert on clean paths.
func TestPathProperty(t *testing.T) {
	f := func(parts []uint8) bool {
		segs := make([]string, 0, len(parts))
		for _, p := range parts {
			segs = append(segs, string(rune('a'+p%26)))
		}
		p := "/" + strings.Join(segs, "/")
		cp := Clean(p)
		if Clean(cp) != cp {
			return false
		}
		if len(segs) == 0 {
			return cp == "/"
		}
		dir, base := SplitPath(cp)
		return Join(dir, base) == cp
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFileTypeString(t *testing.T) {
	if TypeRegular.String() != "file" || TypeDir.String() != "dir" ||
		TypeSymlink.String() != "symlink" || FileType(99).String() != "?" {
		t.Fatal("FileType.String broken")
	}
}

func TestSymlinkErrorMessage(t *testing.T) {
	e := &SymlinkError{Path: "/t"}
	if !strings.Contains(e.Error(), "/t") {
		t.Fatal("SymlinkError message")
	}
}

// cleanReference is Clean as it was before it stopped allocating: split into
// components, resolve, join. TestCleanMatchesReference holds the two equal.
func cleanReference(p string) string {
	abs := len(p) > 0 && p[0] == '/'
	var out []string
	for _, c := range strings.Split(p, "/") {
		switch c {
		case "", ".":
		case "..":
			if len(out) > 0 && out[len(out)-1] != ".." {
				out = out[:len(out)-1]
			} else if !abs {
				out = append(out, "..")
			}
		default:
			out = append(out, c)
		}
	}
	s := strings.Join(out, "/")
	if abs {
		return "/" + s
	}
	if s == "" {
		return "."
	}
	return s
}

// TestCleanMatchesReference: every string of up to eight bytes over
// {'/', '.', 'a'} — absolute and relative, with every arrangement of empty,
// "." and ".." components that fits — cleans to what the reference gives, and
// cleaning the result changes nothing.
func TestCleanMatchesReference(t *testing.T) {
	const alphabet = "/.a"
	buf := make([]byte, 0, 8)
	var visit func()
	visit = func() {
		p := string(buf)
		got, want := Clean(p), cleanReference(p)
		if got != want {
			t.Errorf("Clean(%q) = %q, reference %q", p, got, want)
		}
		if again := Clean(got); again != got {
			t.Errorf("Clean(Clean(%q)) = %q, want %q", p, again, got)
		}
		if len(buf) == cap(buf) {
			return
		}
		for i := 0; i < len(alphabet); i++ {
			buf = append(buf, alphabet[i])
			visit()
			buf = buf[:len(buf)-1]
		}
	}
	visit()
}

// TestCleanAllocs: a clean path comes back as the same string, free.
func TestCleanAllocs(t *testing.T) {
	for _, p := range []string{"/", "/a", "/dir/sub/file.txt", "rel/path"} {
		if n := testing.AllocsPerRun(100, func() { _ = Clean(p) }); n != 0 {
			t.Errorf("Clean(%q): %v allocs, want 0", p, n)
		}
	}
	if n := testing.AllocsPerRun(100, func() { _ = Clean("/a//b/../c") }); n > 2 {
		t.Errorf("Clean of an unclean path: %v allocs, want <= 2 (the buffer and the result)", n)
	}
}
