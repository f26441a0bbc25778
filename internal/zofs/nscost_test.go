package zofs

import (
	"testing"

	"zofs/internal/coffer"
)

// TestNamespaceCostPins pins what each namespace path charges: the virtual
// ns of the call and the NVM bytes it reads and writes, kernel calls
// included. Every coffer step (create, coffer delete, split, merge-back) is
// reached here once each way it can be reached, on one deterministic
// sequence, so a refactor of those paths that moves a charge, a lock or a
// store shows up as a moved pin.
func TestNamespaceCostPins(t *testing.T) {
	dev, k, f, th := newTestFS(t, Options{})
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	create := func(path string, mode coffer.Mode, n int) {
		t.Helper()
		h, err := f.Create(th, path, mode)
		must(err)
		if n > 0 {
			mustWrite(t, th, h, make([]byte, n), 0)
		}
		must(h.Close(th))
	}
	must(f.Mkdir(th, "/d", 0o755))
	create("/d/warm", 0o644, pageSize) // take the lease and page grants
	create("/d/warm2", 0o600, 0)
	must(f.Mkdir(th, "/a", 0o700))
	must(f.Mkdir(th, "/b", 0o700))
	create("/a/warm", 0o600, pageSize)
	create("/b/warm", 0o600, pageSize)
	create("/d/s", 0o644, 3*pageSize)
	create("/d/x", 0o644, 2*pageSize)
	create("/a/m", 0o600, 2*pageSize)
	create("/d/u", 0o644, pageSize)
	create("/d/t", 0o600, pageSize)

	type pin struct{ vns, rbytes, wbytes int64 }
	cases := []struct {
		name string
		op   func() error
		want pin
	}{
		{"create in-coffer", func() error {
			h, err := f.Create(th, "/d/f", 0o644)
			if err == nil {
				h.Close(th)
			}
			return err
		}, pin{3113, 0, 328}},
		{"create coffer-making", func() error {
			h, err := f.Create(th, "/d/p", 0o600)
			if err == nil {
				h.Close(th)
			}
			return err
		}, pin{3186, 8, 4408}},
		{"mkdir in-coffer", func() error { return f.Mkdir(th, "/d/sub", 0o755) }, pin{920, 0, 200}},
		{"mkdir coffer-making", func() error { return f.Mkdir(th, "/d/priv", 0o700) }, pin{3186, 8, 4408}},
		{"symlink", func() error { return f.Symlink(th, "/some/target", "/d/ln") }, pin{1149, 0, 222}},
		{"unlink in-coffer", func() error { return f.Unlink(th, "/d/f") }, pin{839, 16, 72}},
		{"unlink coffer root", func() error { return f.Unlink(th, "/d/p") }, pin{2003, 32, 106}},
		{"unlink symlink", func() error { return f.Unlink(th, "/d/ln") }, pin{7140, 65536, 86}},
		{"rmdir in-coffer", func() error { return f.Rmdir(th, "/d/sub") }, pin{519, 0, 72}},
		{"rmdir coffer root", func() error { return f.Rmdir(th, "/d/priv") }, pin{2045, 32, 106}},
		{"chmod split", func() error { return f.Chmod(th, "/d/s", 0o600) }, pin{9962, 65584, 4256}},
		{"chmod merge-back by path", func() error { return f.Chmod(th, "/d/s", 0o644) }, pin{4433, 32, 2266}},
		{"rename across coffers by split", func() error { return f.Rename(th, "/d/x", "/a/x") }, pin{4851, 12328, 4368}},
		{"rename across coffers by MovePages", func() error { return f.Rename(th, "/a/m", "/b/m") }, pin{3055, 8224, 168}},
		{"rename over a coffer root", func() error { return f.Rename(th, "/d/u", "/d/t") }, pin{3135, 32, 250}},
	}
	for _, c := range cases {
		t0, r0, w0 := th.Clk.Now(), dev.BytesRead(), dev.BytesWritten()
		if err := c.op(); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		got := pin{th.Clk.Now() - t0, dev.BytesRead() - r0, dev.BytesWritten() - w0}
		if got != c.want {
			t.Errorf("%s: %d vns, %d B read, %d B written; want %d vns, %d B, %d B",
				c.name, got.vns, got.rbytes, got.wbytes, c.want.vns, c.want.rbytes, c.want.wbytes)
		}
	}
	// The paths above took the branches they are named for.
	for _, p := range []string{"/d/x", "/d/u"} {
		if _, err := f.Stat(th, p); err == nil {
			t.Errorf("%s still exists after its rename", p)
		}
	}
	if _, ok := k.LookupPath(nil, "/a/x"); !ok {
		t.Error("the rename to /a/x did not split")
	}
	for _, p := range []string{"/b/m", "/d/s", "/d/t"} {
		if _, ok := k.LookupPath(nil, p); ok {
			t.Errorf("%s is a coffer root", p)
		}
	}
}
