package zofs

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"zofs/internal/coffer"
	"zofs/internal/kernfs"
	"zofs/internal/nvm"
	"zofs/internal/proc"
	"zofs/internal/vfs"
)

// newTestFS builds a formatted device, a root process and a ZoFS instance.
func newTestFS(t *testing.T, opts Options) (*nvm.Device, *kernfs.KernFS, *FS, *proc.Thread) {
	t.Helper()
	dev := nvm.NewDevice(256 << 20)
	k, f, th := mountTestFS(t, dev, opts)
	return dev, k, f, th
}

// mountTestFS formats dev and mounts a ZoFS instance over it.
func mountTestFS(t *testing.T, dev *nvm.Device, opts Options) (*kernfs.KernFS, *FS, *proc.Thread) {
	t.Helper()
	if err := kernfs.Mkfs(dev, kernfs.MkfsOptions{RootMode: 0o755}); err != nil {
		t.Fatal(err)
	}
	k, err := kernfs.Mount(dev)
	if err != nil {
		t.Fatal(err)
	}
	p := proc.NewProcess(dev, 0, 0)
	th := p.NewThread()
	if err := k.FSMount(th); err != nil {
		t.Fatal(err)
	}
	f := New(k, opts)
	if err := f.EnsureRootDir(th); err != nil {
		t.Fatal(err)
	}
	return k, f, th
}

func TestCreateWriteRead(t *testing.T) {
	_, _, f, th := newTestFS(t, Options{})
	h, err := f.Create(th, "/hello.txt", 0o644)
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	data := []byte("the quick brown fox")
	if n, err := h.WriteAt(th, data, 0); err != nil || n != len(data) {
		t.Fatalf("WriteAt = %d,%v", n, err)
	}
	out := make([]byte, len(data))
	if n, err := h.ReadAt(th, out, 0); err != nil || n != len(data) {
		t.Fatalf("ReadAt = %d,%v", n, err)
	}
	if !bytes.Equal(out, data) {
		t.Fatalf("read %q want %q", out, data)
	}
	fi, err := h.Stat(th)
	if err != nil || fi.Size != int64(len(data)) || fi.Type != vfs.TypeRegular {
		t.Fatalf("Stat = %+v, %v", fi, err)
	}
	// Reopen by path.
	h2, err := f.Open(th, "/hello.txt", vfs.O_RDONLY)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	out2 := make([]byte, len(data))
	h2.ReadAt(th, out2, 0)
	if !bytes.Equal(out2, data) {
		t.Fatal("reopened read mismatch")
	}
}

func TestReadBeyondEOFAndHoles(t *testing.T) {
	_, _, f, th := newTestFS(t, Options{})
	h, _ := f.Create(th, "/f", 0o644)
	// Write at 8KB leaving a 2-page hole.
	h.WriteAt(th, []byte("tail"), 8192)
	buf := make([]byte, 16)
	n, err := h.ReadAt(th, buf, 0)
	if err != nil || n != 16 {
		t.Fatalf("hole read = %d,%v", n, err)
	}
	for _, b := range buf {
		if b != 0 {
			t.Fatal("hole must read zeros")
		}
	}
	n, _ = h.ReadAt(th, buf, 8190)
	if n != 6 || string(buf[2:6]) != "tail" {
		t.Fatalf("EOF-clamped read = %d %q", n, buf[:n])
	}
	if n, _ := h.ReadAt(th, buf, 9000); n != 0 {
		t.Fatalf("read past EOF = %d", n)
	}
}

func TestLargeFileIndirect(t *testing.T) {
	_, _, f, th := newTestFS(t, Options{})
	h, _ := f.Create(th, "/big", 0o644)
	// 2MB spans direct (392 pages) + indirect.
	const size = 2 << 20
	chunk := make([]byte, 64<<10)
	for i := range chunk {
		chunk[i] = byte(i % 251)
	}
	for off := int64(0); off < size; off += int64(len(chunk)) {
		if _, err := h.WriteAt(th, chunk, off); err != nil {
			t.Fatalf("write at %d: %v", off, err)
		}
	}
	fi, _ := h.Stat(th)
	if fi.Size != size {
		t.Fatalf("size = %d", fi.Size)
	}
	out := make([]byte, len(chunk))
	for _, off := range []int64{0, 391 * 4096, 392 * 4096, size - int64(len(chunk))} {
		if _, err := h.ReadAt(th, out, off); err != nil {
			t.Fatalf("read at %d: %v", off, err)
		}
		for i := range out {
			if out[i] != byte((int(off)+i)%64<<10%251) {
				// Compare against the repeating chunk pattern.
				want := chunk[(int(off)+i)%len(chunk)]
				if out[i] != want {
					t.Fatalf("byte %d+%d = %d want %d", off, i, out[i], want)
				}
				break
			}
		}
	}
}

func TestAppend(t *testing.T) {
	_, _, f, th := newTestFS(t, Options{})
	h, _ := f.Create(th, "/log", 0o644)
	for i := 0; i < 10; i++ {
		off, err := h.Append(th, []byte(fmt.Sprintf("entry-%02d;", i)))
		if err != nil {
			t.Fatal(err)
		}
		if off != int64(i*9) {
			t.Fatalf("append %d landed at %d", i, off)
		}
	}
	fi, _ := h.Stat(th)
	if fi.Size != 90 {
		t.Fatalf("size = %d", fi.Size)
	}
}

func TestMkdirTreeAndReadDir(t *testing.T) {
	_, _, f, th := newTestFS(t, Options{})
	if err := f.Mkdir(th, "/a", 0o755); err != nil {
		t.Fatal(err)
	}
	if err := f.Mkdir(th, "/a/b", 0o755); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		if _, err := f.Create(th, fmt.Sprintf("/a/b/f%03d", i), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	ents, err := f.ReadDir(th, "/a/b")
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 40 {
		t.Fatalf("ReadDir = %d entries, want 40", len(ents))
	}
	seen := map[string]bool{}
	for _, e := range ents {
		if e.Type != vfs.TypeRegular {
			t.Fatalf("entry %q type %v", e.Name, e.Type)
		}
		seen[e.Name] = true
	}
	if !seen["f000"] || !seen["f039"] {
		t.Fatal("missing entries")
	}
	// Mkdir on existing fails.
	if err := f.Mkdir(th, "/a", 0o755); !errors.Is(err, vfs.ErrExist) {
		t.Fatalf("duplicate mkdir: %v", err)
	}
	// Stat a directory.
	fi, err := f.Stat(th, "/a/b")
	if err != nil || fi.Type != vfs.TypeDir {
		t.Fatalf("Stat dir = %+v, %v", fi, err)
	}
}

func TestUnlinkRmdir(t *testing.T) {
	_, _, f, th := newTestFS(t, Options{})
	f.Mkdir(th, "/d", 0o755)
	f.Create(th, "/d/x", 0o644)
	if err := f.Rmdir(th, "/d"); !errors.Is(err, vfs.ErrNotEmpty) {
		t.Fatalf("rmdir non-empty: %v", err)
	}
	if err := f.Unlink(th, "/d"); !errors.Is(err, vfs.ErrIsDir) {
		t.Fatalf("unlink dir: %v", err)
	}
	if err := f.Unlink(th, "/d/x"); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Stat(th, "/d/x"); !errors.Is(err, vfs.ErrNotExist) {
		t.Fatalf("stat after unlink: %v", err)
	}
	if err := f.Rmdir(th, "/d"); err != nil {
		t.Fatal(err)
	}
	if err := f.Unlink(th, "/nope"); !errors.Is(err, vfs.ErrNotExist) {
		t.Fatalf("unlink missing: %v", err)
	}
}

func TestTruncate(t *testing.T) {
	_, _, f, th := newTestFS(t, Options{})
	h, _ := f.Create(th, "/t", 0o644)
	buf := make([]byte, 3*4096)
	for i := range buf {
		buf[i] = 7
	}
	h.WriteAt(th, buf, 0)
	if err := f.Truncate(th, "/t", 4096); err != nil {
		t.Fatal(err)
	}
	fi, _ := f.Stat(th, "/t")
	if fi.Size != 4096 {
		t.Fatalf("size after shrink = %d", fi.Size)
	}
	// Grow back: the tail must read zeros, not stale data.
	f.Truncate(th, "/t", 8192)
	out := make([]byte, 4096)
	h.ReadAt(th, out, 4096)
	for i, b := range out {
		if b != 0 {
			t.Fatalf("stale byte %d after re-extend: %d", i, b)
		}
	}
}

func TestSymlink(t *testing.T) {
	_, _, f, th := newTestFS(t, Options{})
	f.Mkdir(th, "/dir", 0o755)
	f.Create(th, "/dir/real", 0o644)
	if err := f.Symlink(th, "/dir/real", "/link"); err != nil {
		t.Fatal(err)
	}
	target, err := f.Readlink(th, "/link")
	if err != nil || target != "/dir/real" {
		t.Fatalf("Readlink = %q, %v", target, err)
	}
	// Walking through the link must report the expansion for re-dispatch.
	_, err = f.Stat(th, "/link")
	var se *vfs.SymlinkError
	if !errors.As(err, &se) || se.Path != "/dir/real" {
		t.Fatalf("Stat through link = %v", err)
	}
	// Relative symlink.
	f.Symlink(th, "real", "/dir/rel")
	_, err = f.Open(th, "/dir/rel", vfs.O_RDONLY)
	if !errors.As(err, &se) || se.Path != "/dir/real" {
		t.Fatalf("relative link expansion = %v", err)
	}
	// Mid-path symlink.
	f.Symlink(th, "/dir", "/d2")
	_, err = f.Stat(th, "/d2/real")
	if !errors.As(err, &se) || se.Path != "/dir/real" {
		t.Fatalf("mid-path expansion = %v", err)
	}
}

func TestCrossCofferCreate(t *testing.T) {
	_, k, f, th := newTestFS(t, Options{})
	// A file with a different owner becomes its own coffer.
	if _, err := f.Create(th, "/priv", 0o600); err != nil {
		t.Fatal(err)
	}
	id, ok := k.LookupPath(nil, "/priv")
	if !ok {
		t.Fatal("no coffer created for /priv")
	}
	rp, _ := k.Info(id)
	if rp.Mode != 0o600 {
		t.Fatalf("coffer mode = %o", rp.Mode)
	}
	// Stat reports the coffer's permission.
	fi, err := f.Stat(th, "/priv")
	if err != nil || fi.Mode != 0o600 {
		t.Fatalf("Stat = %+v, %v", fi, err)
	}
	// Same-permission children stay in the parent coffer.
	f.Mkdir(th, "/pub", 0o755)
	f.Create(th, "/pub/f", 0o644)
	if _, ok := k.LookupPath(nil, "/pub"); ok {
		t.Fatal("/pub should live in the root coffer (same masked perm)")
	}
	// Writing/reading through the cross-coffer file works.
	h, err := f.Open(th, "/priv", vfs.O_RDWR)
	if err != nil {
		t.Fatal(err)
	}
	h.WriteAt(th, []byte("secret"), 0)
	out := make([]byte, 6)
	h.ReadAt(th, out, 0)
	if string(out) != "secret" {
		t.Fatalf("cross-coffer read = %q", out)
	}
	// Unlink deletes the coffer.
	if err := f.Unlink(th, "/priv"); err != nil {
		t.Fatal(err)
	}
	if _, ok := k.LookupPath(nil, "/priv"); ok {
		t.Fatal("coffer survived unlink")
	}
}

func TestCrossCofferDirWalk(t *testing.T) {
	_, k, f, th := newTestFS(t, Options{})
	if err := f.Mkdir(th, "/home", 0o700); err != nil { // different perm: own coffer
		t.Fatal(err)
	}
	if _, ok := k.LookupPath(nil, "/home"); !ok {
		t.Fatal("/home should be a coffer")
	}
	if err := f.Mkdir(th, "/home/sub", 0o700); err != nil {
		t.Fatal(err)
	}
	if _, ok := k.LookupPath(nil, "/home/sub"); ok {
		t.Fatal("/home/sub shares /home's perm: same coffer expected")
	}
	if _, err := f.Create(th, "/home/sub/file", 0o600); err != nil {
		t.Fatal(err)
	}
	fi, err := f.Stat(th, "/home/sub/file")
	if err != nil || fi.Type != vfs.TypeRegular {
		t.Fatalf("deep stat = %+v, %v", fi, err)
	}
}

func TestChmodCofferRootCheap(t *testing.T) {
	_, k, f, th := newTestFS(t, Options{})
	f.Mkdir(th, "/cr", 0o700)
	id, _ := k.LookupPath(nil, "/cr")
	if err := f.Chmod(th, "/cr", 0o750); err != nil {
		t.Fatal(err)
	}
	rp, _ := k.Info(id)
	if rp.Mode != 0o750 {
		t.Fatalf("coffer mode after chmod = %o", rp.Mode)
	}
}

func TestChmodSplitsCoffer(t *testing.T) {
	_, k, f, th := newTestFS(t, Options{})
	h, _ := f.Create(th, "/data", 0o644) // in-coffer (root coffer)
	h.WriteAt(th, make([]byte, 5*4096), 0)
	if _, ok := k.LookupPath(nil, "/data"); ok {
		t.Fatal("/data should start in-coffer")
	}
	if err := f.Chmod(th, "/data", 0o600); err != nil {
		t.Fatal(err)
	}
	id, ok := k.LookupPath(nil, "/data")
	if !ok {
		t.Fatal("chmod must split the file into its own coffer")
	}
	rp, _ := k.Info(id)
	if rp.Mode != 0o600 {
		t.Fatalf("split coffer mode = %o", rp.Mode)
	}
	// Pages moved: inode + 5 data + custom; coffer also has root page.
	if n := len(k.ExtentsOf(id)); n == 0 {
		t.Fatal("split coffer owns no extents")
	}
	// Data still readable through the new coffer.
	fi, err := f.Stat(th, "/data")
	if err != nil || fi.Size != 5*4096 || fi.Mode != 0o600 {
		t.Fatalf("stat after split = %+v, %v", fi, err)
	}
	h2, err := f.Open(th, "/data", vfs.O_RDONLY)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]byte, 4096)
	if _, err := h2.ReadAt(th, out, 4*4096); err != nil {
		t.Fatalf("read after split: %v", err)
	}
}

func TestChmodOneCofferVariant(t *testing.T) {
	_, k, f, th := newTestFS(t, Options{OneCoffer: true})
	f.Create(th, "/x", 0o644)
	if err := f.Chmod(th, "/x", 0o600); err != nil {
		t.Fatal(err)
	}
	if _, ok := k.LookupPath(nil, "/x"); ok {
		t.Fatal("ZoFS-1coffer must not split")
	}
	fi, _ := f.Stat(th, "/x")
	if fi.Mode != 0o600 {
		t.Fatalf("inode mode = %o", fi.Mode)
	}
}

func TestChownSplit(t *testing.T) {
	_, k, f, th := newTestFS(t, Options{})
	f.Create(th, "/owned", 0o644)
	if err := f.Chown(th, "/owned", 1234, 1234); err != nil {
		t.Fatal(err)
	}
	id, ok := k.LookupPath(nil, "/owned")
	if !ok {
		t.Fatal("chown must split")
	}
	rp, _ := k.Info(id)
	if rp.UID != 1234 || rp.GID != 1234 {
		t.Fatalf("ownership = %d/%d", rp.UID, rp.GID)
	}
}

func TestRenameSameDir(t *testing.T) {
	_, _, f, th := newTestFS(t, Options{})
	h, _ := f.Create(th, "/old", 0o644)
	h.WriteAt(th, []byte("payload"), 0)
	if err := f.Rename(th, "/old", "/new"); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Stat(th, "/old"); !errors.Is(err, vfs.ErrNotExist) {
		t.Fatal("old name survived")
	}
	h2, err := f.Open(th, "/new", vfs.O_RDONLY)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]byte, 7)
	h2.ReadAt(th, out, 0)
	if string(out) != "payload" {
		t.Fatalf("renamed content = %q", out)
	}
}

func TestRenameAcrossDirsSameCoffer(t *testing.T) {
	_, _, f, th := newTestFS(t, Options{})
	f.Mkdir(th, "/a", 0o755)
	f.Mkdir(th, "/b", 0o755)
	f.Create(th, "/a/f", 0o644)
	if err := f.Rename(th, "/a/f", "/b/g"); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Stat(th, "/b/g"); err != nil {
		t.Fatal(err)
	}
	ents, _ := f.ReadDir(th, "/a")
	if len(ents) != 0 {
		t.Fatalf("/a still has %d entries", len(ents))
	}
}

func TestRenameOverwrite(t *testing.T) {
	_, _, f, th := newTestFS(t, Options{})
	f.Create(th, "/src", 0o644)
	h, _ := f.Create(th, "/dst", 0o644)
	h.WriteAt(th, []byte("stale"), 0)
	if err := f.Rename(th, "/src", "/dst"); err != nil {
		t.Fatal(err)
	}
	fi, err := f.Stat(th, "/dst")
	if err != nil || fi.Size != 0 {
		t.Fatalf("overwritten dst = %+v, %v", fi, err)
	}
}

func TestRenameCofferRoot(t *testing.T) {
	_, k, f, th := newTestFS(t, Options{})
	f.Mkdir(th, "/cof", 0o700)
	f.Create(th, "/cof/inner", 0o700)
	if err := f.Rename(th, "/cof", "/moved"); err != nil {
		t.Fatal(err)
	}
	if _, ok := k.LookupPath(nil, "/cof"); ok {
		t.Fatal("old coffer path survived")
	}
	if _, ok := k.LookupPath(nil, "/moved"); !ok {
		t.Fatal("coffer path not renamed")
	}
	if _, err := f.Stat(th, "/moved/inner"); err != nil {
		t.Fatalf("stat through renamed coffer: %v", err)
	}
}

func TestRenameCrossCofferFile(t *testing.T) {
	_, k, f, th := newTestFS(t, Options{})
	f.Mkdir(th, "/pri", 0o700) // its own coffer
	h, _ := f.Create(th, "/pri/f", 0o700)
	h.WriteAt(th, []byte("move me"), 0)
	// Destination parent is the root coffer (0755/root) — different perm,
	// so the file is split into its own coffer at the new path.
	if err := f.Rename(th, "/pri/f", "/f"); err != nil {
		t.Fatal(err)
	}
	if _, ok := k.LookupPath(nil, "/f"); !ok {
		t.Fatal("moved file should be its own coffer (perm differs from root)")
	}
	h2, err := f.Open(th, "/f", vfs.O_RDONLY)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]byte, 7)
	h2.ReadAt(th, out, 0)
	if string(out) != "move me" {
		t.Fatalf("moved content = %q", out)
	}
	// Same-perm cross-coffer move: /pri2 (0700) <- /pri/g (0700).
	f.Mkdir(th, "/pri2", 0o700)
	f.Create(th, "/pri/g", 0o700)
	if err := f.Rename(th, "/pri/g", "/pri2/g"); err != nil {
		t.Fatal(err)
	}
	if _, ok := k.LookupPath(nil, "/pri2/g"); ok {
		t.Fatal("same-perm move must not create a coffer")
	}
	if _, err := f.Stat(th, "/pri2/g"); err != nil {
		t.Fatal(err)
	}
}

func TestConcurrentCreates(t *testing.T) {
	_, _, f, th := newTestFS(t, Options{})
	const threads, per = 4, 50
	for i := 0; i < threads; i++ {
		f.Mkdir(th, fmt.Sprintf("/t%d", i), 0o755)
	}
	done := make(chan error, threads)
	for i := 0; i < threads; i++ {
		go func(i int) {
			tth := th.Proc.NewThread()
			for j := 0; j < per; j++ {
				if _, err := f.Create(tth, fmt.Sprintf("/t%d/f%04d", i, j), 0o644); err != nil {
					done <- err
					return
				}
			}
			done <- nil
		}(i)
	}
	for i := 0; i < threads; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < threads; i++ {
		ents, err := f.ReadDir(th, fmt.Sprintf("/t%d", i))
		if err != nil || len(ents) != per {
			t.Fatalf("dir t%d: %d entries, %v", i, len(ents), err)
		}
	}
}

func TestDirOverflowToChains(t *testing.T) {
	// More entries than one L2 page's inline area can hold in a single
	// bucket forces chain pages. 9000 entries spread over 512 L1 slots
	// exercise both inline and chain paths.
	_, _, f, th := newTestFS(t, Options{})
	f.Mkdir(th, "/big", 0o755)
	const n = 2000
	for i := 0; i < n; i++ {
		if _, err := f.Create(th, fmt.Sprintf("/big/file-%05d", i), 0o644); err != nil {
			t.Fatalf("create %d: %v", i, err)
		}
	}
	ents, err := f.ReadDir(th, "/big")
	if err != nil || len(ents) != n {
		t.Fatalf("ReadDir = %d, %v", len(ents), err)
	}
	// Point lookups still work.
	for _, i := range []int{0, 999, 1999} {
		if _, err := f.Stat(th, fmt.Sprintf("/big/file-%05d", i)); err != nil {
			t.Fatalf("stat %d: %v", i, err)
		}
	}
}

func TestRecoveryReclaimsLeaks(t *testing.T) {
	dev, k, f, th := newTestFS(t, Options{})
	h, _ := f.Create(th, "/leaky", 0o644)
	h.WriteAt(th, make([]byte, 8*4096), 0)
	// Simulate a crash after the dentry kill but before the frees: kill
	// the dentry manually, "crash", then recover.
	pos, err := f.walk(th, "/", true, true)
	if err != nil {
		t.Fatal(err)
	}
	_, loc, err := f.dirLookup(th, pos.ino, "leaky")
	if err != nil {
		t.Fatal(err)
	}
	f.dirRemove(th, pos.ino, "leaky", loc)
	pos.close()
	dev.Crash()
	ResetShared(dev)
	f.sh = sharedFor(dev)

	rootID := k.RootCoffer()
	before := k.FreePages()
	st, err := f.RecoverCoffer(th, rootID)
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	if k.FreePages() <= before {
		t.Fatalf("recovery reclaimed nothing (free %d -> %d)", before, k.FreePages())
	}
	if st.UserNS <= 0 || st.KernelNS <= 0 {
		t.Fatalf("stats = %+v", st)
	}
	// FS still consistent.
	if _, err := f.Stat(th, "/leaky"); !errors.Is(err, vfs.ErrNotExist) {
		t.Fatalf("stat leaky after recovery: %v", err)
	}
	if _, err := f.Create(th, "/after", 0o644); err != nil {
		t.Fatalf("create after recovery: %v", err)
	}
}

func TestCrashDuringCreatesThenFsck(t *testing.T) {
	dev, k, f, th := newTestFS(t, Options{})
	// Prime some state.
	for i := 0; i < 10; i++ {
		f.Create(th, fmt.Sprintf("/pre%d", i), 0o644)
	}
	// Crash at a few different write counts during further creates.
	for _, failAt := range []int64{3, 11, 29} {
		dev.FailAfter(failAt)
		func() {
			defer func() {
				if r := recover(); r != nil && !nvm.IsInjectedCrash(r) {
					panic(r)
				}
			}()
			for i := 0; i < 100; i++ {
				f.Create(th, fmt.Sprintf("/crash-%d-%d", failAt, i), 0o644)
			}
		}()
		dev.FailAfter(0)
		dev.Crash()
		ResetShared(dev)

		// Fresh everything (volatile state is gone after a crash).
		k2, err := kernfs.Mount(dev)
		if err != nil {
			t.Fatalf("remount after crash: %v", err)
		}
		p2 := proc.NewProcess(dev, 0, 0)
		th2 := p2.NewThread()
		k2.FSMount(th2)
		if _, err := FsckAll(k2, th2); err != nil {
			t.Fatalf("fsck: %v", err)
		}
		f2 := New(k2, Options{})
		// All pre-crash files still present; FS usable.
		for i := 0; i < 10; i++ {
			if _, err := f2.Stat(th2, fmt.Sprintf("/pre%d", i)); err != nil {
				t.Fatalf("pre%d lost after crash at %d: %v", i, failAt, err)
			}
		}
		if _, err := f2.Create(th2, fmt.Sprintf("/post-%d", failAt), 0o644); err != nil {
			t.Fatalf("create after fsck: %v", err)
		}
		// Continue on the recovered image.
		k, f, th = k2, f2, th2
		_ = k
	}
}

func TestLeaseWordWrittenAndCleared(t *testing.T) {
	// The two arms of unlockInode on the holder's own word: inside the lease
	// window the word is parked (left live in NVM for the next lock to
	// reuse), after the window has elapsed it is CAS-cleared. The reuse and
	// steal of a parked word are pinned by TestLeaseBatchParksAndReuses.
	_, _, f, th := newTestFS(t, Options{})
	f.Create(th, "/l", 0o644)
	pos, err := f.walk(th, "/l", true, true)
	if err != nil {
		t.Fatal(err)
	}
	defer pos.close()
	leaseOff := pos.ino*pageSize + inoLeaseOff
	st := f.sh.state(pos.ino)

	ep, lerr := f.lockInode(th, pos.m, pos.ino)
	if lerr != nil {
		t.Fatalf("lockInode: %v", lerr)
	}
	w := th.Load64(leaseOff)
	if w == 0 {
		t.Fatal("lease word not written under lock")
	}
	f.unlockInode(th, pos.m, pos.ino, ep)
	if got := th.Load64(leaseOff); got != w || st.parked != w {
		t.Fatalf("unlock inside the window: word %#x parked %#x, want both %#x", got, st.parked, w)
	}

	ep, lerr = f.lockInode(th, pos.m, pos.ino)
	if lerr != nil {
		t.Fatalf("relock: %v", lerr)
	}
	th.Clk.Advance(leaseDuration + 1) // the op outlives its lease
	f.unlockInode(th, pos.m, pos.ino, ep)
	if got := th.Load64(leaseOff); got != 0 {
		t.Fatalf("unlock after the window elapsed left the lease word %#x, want it cleared", got)
	}
	if st.parked != 0 {
		t.Fatalf("an expired lease was parked: %#x", st.parked)
	}
	// The cleared word is free: the next lock claims it at the same epoch.
	ep2, lerr := f.lockInode(th, pos.m, pos.ino)
	if lerr != nil {
		t.Fatalf("lock after clear: %v", lerr)
	}
	if ep2 != ep {
		t.Fatalf("lock of a cleared word bumped the epoch: %d -> %d", ep, ep2)
	}
	f.unlockInode(th, pos.m, pos.ino, ep2)
}

func TestLeaseBatchParksAndReuses(t *testing.T) {
	// Batched lease renewal (the default): unlock parks a still-live word
	// instead of clearing it, and the next lock by the same thread reuses it
	// with zero NVM writes inside the first half of the lease window.
	_, _, f, th := newTestFS(t, Options{})
	f.Create(th, "/b", 0o644)
	pos, err := f.walk(th, "/b", true, true)
	if err != nil {
		t.Fatal(err)
	}
	defer pos.close()
	ep, lerr := f.lockInode(th, pos.m, pos.ino)
	if lerr != nil {
		t.Fatalf("lockInode: %v", lerr)
	}
	f.unlockInode(th, pos.m, pos.ino, ep)
	w := th.Load64(pos.ino*pageSize + inoLeaseOff)
	if w == 0 {
		t.Fatal("batched unlock cleared the lease word instead of parking it")
	}
	if parked := f.sh.state(pos.ino).parked; parked != w {
		t.Fatalf("parked word not recorded in the inode's state: %#x, want %#x", parked, w)
	}
	ep2, lerr := f.lockInode(th, pos.m, pos.ino)
	if lerr != nil {
		t.Fatalf("relock: %v", lerr)
	}
	if ep2 != ep {
		t.Fatalf("batched reuse bumped the epoch: %d -> %d", ep, ep2)
	}
	if w2 := th.Load64(pos.ino*pageSize + inoLeaseOff); w2 != w {
		t.Fatalf("batched reuse rewrote the lease word inside the half-window: %#x -> %#x", w, w2)
	}
	if parked := f.sh.state(pos.ino).parked; parked != 0 {
		t.Fatalf("parked word %#x survived a re-claim", parked)
	}
	// A different thread claiming a parked (released) lease must steal it
	// immediately with an epoch bump, not sleep out the window.
	f.unlockInode(th, pos.m, pos.ino, ep2)
	th2 := th.Proc.NewThread()
	before := th2.Clk.Now()
	ep3, lerr := f.lockInode(th2, pos.m, pos.ino)
	if lerr != nil {
		t.Fatalf("steal of parked lease: %v", lerr)
	}
	if ep3 != ep2+1 {
		t.Fatalf("parked steal epoch = %d, want %d", ep3, ep2+1)
	}
	if wait := th2.Clk.Now() - before; wait >= leaseDuration/4 {
		t.Fatalf("parked steal slept %dns — should be immediate", wait)
	}
	f.unlockInode(th2, pos.m, pos.ino, ep3)
}

func TestVariantCostsOrdered(t *testing.T) {
	// Figure 8's ordering: ZoFS faster than ZoFS-sysempty faster than
	// ZoFS-kwrite, per overwrite op.
	cost := func(opts Options) int64 {
		_, _, f, th := newTestFS(t, opts)
		h, _ := f.Create(th, "/w", 0o644)
		buf := make([]byte, 4096)
		h.WriteAt(th, buf, 0) // allocate
		start := th.Clk.Now()
		const ops = 50
		for i := 0; i < ops; i++ {
			h.WriteAt(th, buf, 0)
		}
		return (th.Clk.Now() - start) / ops
	}
	plain := cost(Options{})
	sysempty := cost(Options{SysEmptyPerWrite: true})
	kwrite := cost(Options{KernelWrite: true})
	if !(plain < sysempty && sysempty < kwrite) {
		t.Fatalf("variant ordering broken: zofs=%d sysempty=%d kwrite=%d", plain, sysempty, kwrite)
	}
}

func TestStatRootDir(t *testing.T) {
	_, _, f, th := newTestFS(t, Options{})
	fi, err := f.Stat(th, "/")
	if err != nil || fi.Type != vfs.TypeDir || fi.Mode != 0o755 {
		t.Fatalf("Stat / = %+v, %v", fi, err)
	}
}

func TestPermissionDeniedForOtherUser(t *testing.T) {
	dev, k, f, th := newTestFS(t, Options{})
	f.Mkdir(th, "/secret", 0o700) // root-owned coffer
	_ = f

	p := proc.NewProcess(dev, 1000, 1000)
	uth := p.NewThread()
	if err := k.FSMount(uth); err != nil {
		t.Fatal(err)
	}
	uf := New(k, Options{})
	if _, err := uf.Stat(uth, "/secret"); !errors.Is(err, vfs.ErrPerm) {
		t.Fatalf("foreign stat of 0700 coffer: %v", err)
	}
	// Readable coffer, but not writable.
	if _, err := uf.Create(uth, "/nope", 0o644); !errors.Is(err, vfs.ErrPerm) {
		t.Fatalf("create in root-owned /: %v", err)
	}
	if _, err := uf.Stat(uth, "/"); err != nil {
		t.Fatalf("read-only stat of /: %v", err)
	}
	_ = coffer.Mode(0)
}
