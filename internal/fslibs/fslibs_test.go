package fslibs

import (
	"errors"
	"fmt"
	"testing"

	"zofs/internal/kernfs"
	"zofs/internal/logfs"
	"zofs/internal/nvm"
	"zofs/internal/proc"
	"zofs/internal/vfs"
	"zofs/internal/vfs/vfstest"
	"zofs/internal/zofs"
)

func newLib(t *testing.T) (*nvm.Device, *kernfs.KernFS, *Lib, *proc.Thread) {
	t.Helper()
	return newLibWith(t, Options{})
}

// newLibWith mounts a fresh Treasury with opts and an empty ZoFS root.
func newLibWith(t *testing.T, opts Options) (*nvm.Device, *kernfs.KernFS, *Lib, *proc.Thread) {
	t.Helper()
	dev := nvm.NewDevice(128 << 20)
	if err := kernfs.Mkfs(dev, kernfs.MkfsOptions{RootMode: 0o755}); err != nil {
		t.Fatal(err)
	}
	k, err := kernfs.Mount(dev)
	if err != nil {
		t.Fatal(err)
	}
	p := proc.NewProcess(dev, 0, 0)
	th := p.NewThread()
	l, err := Mount(k, th, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.ZoFS().EnsureRootDir(th); err != nil {
		t.Fatal(err)
	}
	return dev, k, l, th
}

// TestFSLibsConformance runs the conformance suite through the dispatcher,
// as an application's calls reach the µFS.
func TestFSLibsConformance(t *testing.T) {
	vfstest.Run(t, func(t *testing.T) (vfs.FileSystem, *proc.Thread) { _, _, l, th := newLib(t); return l.FS(), th })
}

func TestOpenReadWriteSeek(t *testing.T) {
	_, _, l, th := newLib(t)
	fd, err := l.Open(th, "/f", vfs.O_CREATE|vfs.O_RDWR, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if fd != 0 {
		t.Fatalf("first fd = %d, want 0", fd)
	}
	if n, err := l.Write(th, fd, []byte("hello world")); err != nil || n != 11 {
		t.Fatalf("Write = %d,%v", n, err)
	}
	if pos, err := l.Lseek(th, fd, 6, SeekSet); err != nil || pos != 6 {
		t.Fatalf("Lseek = %d,%v", pos, err)
	}
	buf := make([]byte, 5)
	if n, err := l.Read(th, fd, buf); err != nil || n != 5 || string(buf) != "world" {
		t.Fatalf("Read = %d %q %v", n, buf, err)
	}
	// Sequential reads advance the offset.
	if pos, _ := l.Lseek(th, fd, 0, SeekCur); pos != 11 {
		t.Fatalf("pos after read = %d", pos)
	}
	if pos, _ := l.Lseek(th, fd, -11, SeekEnd); pos != 0 {
		t.Fatal("SeekEnd broken")
	}
	if _, err := l.Lseek(th, fd, -1, SeekSet); !errors.Is(err, vfs.ErrInvalid) {
		t.Fatal("negative seek must fail")
	}
	if err := l.Close(th, fd); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Read(th, fd, buf); !errors.Is(err, vfs.ErrBadFD) {
		t.Fatal("read on closed fd")
	}
}

func TestLowestFDAndDup(t *testing.T) {
	_, _, l, th := newLib(t)
	a, _ := l.Open(th, "/a", vfs.O_CREATE|vfs.O_RDWR, 0o644)
	b, _ := l.Open(th, "/b", vfs.O_CREATE|vfs.O_RDWR, 0o644)
	c, _ := l.Open(th, "/c", vfs.O_CREATE|vfs.O_RDWR, 0o644)
	if a != 0 || b != 1 || c != 2 {
		t.Fatalf("fds = %d,%d,%d", a, b, c)
	}
	l.Close(th, b)
	// dup must return the lowest available FD (1), the paper's §4.2 case.
	d, err := l.Dup(a)
	if err != nil || d != 1 {
		t.Fatalf("Dup = %d,%v, want 1", d, err)
	}
	// dup shares the offset.
	l.Write(th, a, []byte("xyz"))
	if pos, _ := l.Lseek(th, d, 0, SeekCur); pos != 3 {
		t.Fatalf("dup offset not shared: %d", pos)
	}
	// Dup2 onto an occupied slot closes it.
	if to, err := l.Dup2(th, a, c); err != nil || to != c {
		t.Fatalf("Dup2 = %d,%v", to, err)
	}
}

func TestAppendMode(t *testing.T) {
	_, _, l, th := newLib(t)
	fd, _ := l.Open(th, "/log", vfs.O_CREATE|vfs.O_WRONLY|vfs.O_APPEND, 0o644)
	l.Write(th, fd, []byte("aaa"))
	// A second writer appends concurrently-safe at EOF.
	fd2, _ := l.Open(th, "/log", vfs.O_WRONLY|vfs.O_APPEND, 0)
	l.Write(th, fd2, []byte("bbb"))
	l.Write(th, fd, []byte("ccc"))
	fi, _ := l.Stat(th, "/log")
	if fi.Size != 9 {
		t.Fatalf("size = %d", fi.Size)
	}
	rfd, _ := l.Open(th, "/log", vfs.O_RDONLY, 0)
	buf := make([]byte, 9)
	l.Read(th, rfd, buf)
	if string(buf) != "aaabbbccc" {
		t.Fatalf("content = %q", buf)
	}
}

func TestCwdAndRelativePaths(t *testing.T) {
	_, _, l, th := newLib(t)
	l.Mkdir(th, "/w", 0o755)
	l.Mkdir(th, "/w/sub", 0o755)
	if err := l.Chdir(th, "/w"); err != nil {
		t.Fatal(err)
	}
	if l.Getcwd() != "/w" {
		t.Fatalf("cwd = %q", l.Getcwd())
	}
	fd, err := l.Open(th, "sub/file", vfs.O_CREATE|vfs.O_RDWR, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	l.Close(th, fd)
	if _, err := l.Stat(th, "/w/sub/file"); err != nil {
		t.Fatalf("relative create landed wrong: %v", err)
	}
	if err := l.Chdir(th, "sub"); err != nil {
		t.Fatal(err)
	}
	if l.Getcwd() != "/w/sub" {
		t.Fatalf("cwd = %q", l.Getcwd())
	}
	if _, err := l.Stat(th, "../sub/file"); err != nil {
		t.Fatalf("dot-dot path: %v", err)
	}
	if err := l.Chdir(th, "file"); !errors.Is(err, vfs.ErrNotDir) {
		t.Fatalf("chdir to file: %v", err)
	}
}

func TestSymlinkRedispatch(t *testing.T) {
	_, _, l, th := newLib(t)
	l.Mkdir(th, "/real", 0o755)
	fd, _ := l.Open(th, "/real/data", vfs.O_CREATE|vfs.O_RDWR, 0o644)
	l.Write(th, fd, []byte("via-link"))
	l.Symlink(th, "/real", "/alias")
	// Open through the symlinked directory: dispatcher must re-dispatch.
	rfd, err := l.Open(th, "/alias/data", vfs.O_RDONLY, 0)
	if err != nil {
		t.Fatalf("open through symlink: %v", err)
	}
	buf := make([]byte, 8)
	l.Read(th, rfd, buf)
	if string(buf) != "via-link" {
		t.Fatalf("content = %q", buf)
	}
	// Symlink loops are detected.
	l.Symlink(th, "/loop2", "/loop1")
	l.Symlink(th, "/loop1", "/loop2")
	if _, err := l.Stat(th, "/loop1"); !errors.Is(err, vfs.ErrLoop) {
		t.Fatalf("loop error = %v", err)
	}
	if tgt, err := l.Readlink(th, "/alias"); err != nil || tgt != "/real" {
		t.Fatalf("Readlink = %q,%v", tgt, err)
	}
}

func TestMountPathRouting(t *testing.T) {
	dev := nvm.NewDevice(64 << 20)
	kernfs.Mkfs(dev, kernfs.MkfsOptions{RootMode: 0o755})
	k, _ := kernfs.Mount(dev)
	p := proc.NewProcess(dev, 0, 0)
	th := p.NewThread()
	l, err := Mount(k, th, Options{MountPath: "/mnt/pm"})
	if err != nil {
		t.Fatal(err)
	}
	l.ZoFS().EnsureRootDir(th)
	fd, err := l.Open(th, "/mnt/pm/x", vfs.O_CREATE|vfs.O_RDWR, 0o644)
	if err != nil {
		t.Fatalf("open inside mount: %v", err)
	}
	l.Close(th, fd)
	// Internally the file lives at /x.
	if _, err := l.ZoFS().Stat(th, "/x"); err != nil {
		t.Fatalf("µFS-internal path: %v", err)
	}
	// Outside the mount with no fallback: not found.
	if _, err := l.Open(th, "/etc/passwd", vfs.O_RDONLY, 0); !errors.Is(err, vfs.ErrNotExist) {
		t.Fatalf("outside-mount open = %v", err)
	}
}

func TestExecFDTableSerialization(t *testing.T) {
	_, _, l, th := newLib(t)
	fd, _ := l.Open(th, "/persist", vfs.O_CREATE|vfs.O_RDWR, 0o644)
	l.Write(th, fd, []byte("0123456789"))
	l.Lseek(th, fd, 4, SeekSet)
	l.Open(th, "/exe", vfs.O_CREATE|vfs.O_RDWR, 0o755)

	nl, err := l.Exec(th, "/exe")
	if err != nil {
		t.Fatalf("Exec: %v", err)
	}
	// The same FD numbers work in the new image with preserved offsets.
	buf := make([]byte, 3)
	if n, err := nl.Read(th, fd, buf); err != nil || n != 3 || string(buf) != "456" {
		t.Fatalf("post-exec read = %d %q %v", n, buf, err)
	}
}

func TestGracefulErrorReturn(t *testing.T) {
	// A wild pointer inside the µFS must surface as an error, not kill the
	// caller (§3.4.2). Corrupt a dentry's inode pointer to point outside
	// the coffer, then stat through it.
	dev, k, l, th := newLib(t)
	fd, _ := l.Open(th, "/victim", vfs.O_CREATE|vfs.O_RDWR, 0o644)
	l.Close(th, fd)
	_ = k

	// Find the dentry on the device and trash its inode pointer. The root
	// dir's L1 page is reachable from the root inode; rather than walking
	// structures here, overwrite the victim's inode page header directly.
	fi, err := l.Stat(th, "/victim")
	if err != nil {
		t.Fatal(err)
	}
	// Zap the inode magic so the next walk sees garbage, then point its
	// size out of range for good measure.
	dev.WriteNT(nil, fi.Inode*4096, make([]byte, 64))

	if _, err := l.Stat(th, "/victim"); err == nil {
		t.Fatal("stat of corrupted file should fail")
	}
	// The process survives and other files keep working.
	if _, err := l.Open(th, "/ok", vfs.O_CREATE|vfs.O_RDWR, 0o644); err != nil {
		t.Fatalf("library unusable after fault: %v", err)
	}
	// The window must be closed after the fault (G1 restored).
	if th.PKRU().CanRead(1) {
		t.Fatal("protection window left open after fault recovery")
	}
}

func TestOpenExclusive(t *testing.T) {
	_, _, l, th := newLib(t)
	if _, err := l.Open(th, "/x", vfs.O_CREATE|vfs.O_EXCL|vfs.O_RDWR, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Open(th, "/x", vfs.O_CREATE|vfs.O_EXCL|vfs.O_RDWR, 0o644); !errors.Is(err, vfs.ErrExist) {
		t.Fatalf("O_EXCL on existing = %v", err)
	}
}

func TestManyFilesManyFDs(t *testing.T) {
	_, _, l, th := newLib(t)
	var fds []int
	for i := 0; i < 100; i++ {
		fd, err := l.Open(th, fmt.Sprintf("/m%03d", i), vfs.O_CREATE|vfs.O_RDWR, 0o644)
		if err != nil {
			t.Fatal(err)
		}
		if fd != i {
			t.Fatalf("fd %d for file %d", fd, i)
		}
		fds = append(fds, fd)
	}
	for _, fd := range fds {
		if err := l.Close(th, fd); err != nil {
			t.Fatal(err)
		}
	}
	ents, _ := l.ReadDir(th, "/")
	if len(ents) != 100 {
		t.Fatalf("ReadDir = %d", len(ents))
	}
}

func TestTwoProcessesShareFiles(t *testing.T) {
	dev, k, l1, th1 := newLib(t)
	_ = dev
	p2 := proc.NewProcess(k.Device(), 0, 0)
	th2 := p2.NewThread()
	l2, err := Mount(k, th2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	fd1, _ := l1.Open(th1, "/shared", vfs.O_CREATE|vfs.O_RDWR, 0o644)
	l1.Write(th1, fd1, []byte("from-p1"))

	fd2, err := l2.Open(th2, "/shared", vfs.O_RDWR, 0)
	if err != nil {
		t.Fatalf("p2 open: %v", err)
	}
	buf := make([]byte, 7)
	l2.Read(th2, fd2, buf)
	if string(buf) != "from-p1" {
		t.Fatalf("p2 read = %q", buf)
	}
	l2.Pwrite(th2, fd2, []byte("FROM-P2"), 0)
	l1.Pread(th1, fd1, buf, 0)
	if string(buf) != "FROM-P2" {
		t.Fatalf("p1 read-back = %q", buf)
	}
	_ = zofs.Options{}
}

func TestMixedMicroFSThroughDispatcher(t *testing.T) {
	// A ZoFS namespace with a LogFS coffer mounted at /logs: the dispatcher
	// routes by coffer type (paper Figure 2/4: multiple µFSs in FSLibs).
	_, k, l, th := newLib(t)
	id, err := k.CofferNew(th, k.RootCoffer(), "/logs", logfs.TypeLogFS, 0o755, 0, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.ZoFS().Kern().FSMount(th); err == nil {
		t.Fatal("double fs_mount should fail")
	}
	_ = id
	// A ZoFS file and a LogFS file through the SAME POSIX layer.
	zfd, err := l.Open(th, "/regular.txt", vfs.O_CREATE|vfs.O_RDWR, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	l.Write(th, zfd, []byte("zofs-data"))
	l.Close(th, zfd)

	lfd, err := l.Open(th, "/logs/app.log", vfs.O_CREATE|vfs.O_RDWR, 0o644)
	if err != nil {
		t.Fatalf("LogFS open via dispatcher: %v", err)
	}
	if _, err := l.Write(th, lfd, []byte("logfs-data")); err != nil {
		t.Fatal(err)
	}
	l.Close(th, lfd)

	zfi, err := l.Stat(th, "/regular.txt")
	if err != nil || zfi.Size != 9 {
		t.Fatalf("zofs stat = %+v, %v", zfi, err)
	}
	lfi, err := l.Stat(th, "/logs/app.log")
	if err != nil || lfi.Size != 10 {
		t.Fatalf("logfs stat = %+v, %v", lfi, err)
	}
	if zfi.Coffer == lfi.Coffer {
		t.Fatal("files should live in different coffers")
	}
	ents, err := l.ReadDir(th, "/logs")
	if err != nil || len(ents) != 1 || ents[0].Name != "app.log" {
		t.Fatalf("LogFS readdir via dispatcher = %v, %v", ents, err)
	}
}

// TestChmodMergeBackThroughLib drives the Table-5 split/merge round-trip
// through the POSIX layer: chmod away from the parent's class splits a
// coffer, chmod back merges it, and the file stays readable throughout.
func TestChmodMergeBackThroughLib(t *testing.T) {
	_, k, l, th := newLib(t)
	fd, err := l.Open(th, "/roundtrip", vfs.O_CREATE|vfs.O_RDWR, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Write(th, fd, []byte("survives the round-trip")); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(th, fd); err != nil {
		t.Fatal(err)
	}
	base := len(k.Coffers())

	if err := l.Chmod(th, "/roundtrip", 0o600); err != nil {
		t.Fatal(err)
	}
	if got := len(k.Coffers()); got != base+1 {
		t.Fatalf("after split: %d coffers, want %d", got, base+1)
	}
	if err := l.Chmod(th, "/roundtrip", 0o644); err != nil {
		t.Fatal(err)
	}
	if got := len(k.Coffers()); got != base {
		t.Fatalf("after merge-back: %d coffers, want %d", got, base)
	}

	fi, err := l.Stat(th, "/roundtrip")
	if err != nil || fi.Mode != 0o644 {
		t.Fatalf("stat after round-trip: %+v, %v", fi, err)
	}
	fd, err = l.Open(th, "/roundtrip", vfs.O_RDONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 64)
	n, err := l.Read(th, fd, buf)
	if err != nil || string(buf[:n]) != "survives the round-trip" {
		t.Fatalf("read after round-trip: %q, %v", buf[:n], err)
	}
	l.Close(th, fd)
}

// linkFS is a fallback file system with one symlink, /link -> /target, whose
// expansion it reports wrapped, as a µFS adding context with %w would.
type linkFS struct{ vfs.FileSystem }

func (linkFS) Stat(_ *proc.Thread, p string) (vfs.FileInfo, error) {
	switch p {
	case "/link":
		return vfs.FileInfo{}, fmt.Errorf("linkfs: walking %s: %w", p, &vfs.SymlinkError{Path: "/target"})
	case "/target":
		return vfs.FileInfo{Type: vfs.TypeRegular, Size: 42}, nil
	}
	return vfs.FileInfo{}, fmt.Errorf("linkfs: %w", vfs.ErrNotExist)
}

// TestDispatchUnwrapsSymlinkError: the dispatcher finds a *vfs.SymlinkError
// anywhere in the error's Unwrap chain and re-dispatches; other wrapped errors
// come back as they are.
func TestDispatchUnwrapsSymlinkError(t *testing.T) {
	dev := nvm.NewDevice(64 << 20)
	if err := kernfs.Mkfs(dev, kernfs.MkfsOptions{RootMode: 0o755}); err != nil {
		t.Fatal(err)
	}
	k, err := kernfs.Mount(dev)
	if err != nil {
		t.Fatal(err)
	}
	th := proc.NewProcess(dev, 0, 0).NewThread()
	l, err := Mount(k, th, Options{MountPath: "/mnt/pm", Fallback: linkFS{}})
	if err != nil {
		t.Fatal(err)
	}
	if fi, err := l.Stat(th, "/link"); err != nil || fi.Size != 42 {
		t.Fatalf("Stat through a wrapped symlink expansion = %+v, %v", fi, err)
	}
	var se *vfs.SymlinkError
	if _, err := l.Stat(th, "/nothing"); !errors.Is(err, vfs.ErrNotExist) || errors.As(err, &se) {
		t.Fatalf("Stat of a missing path = %v", err)
	}
}
