package fslibs

import (
	"errors"
	"testing"

	"zofs/internal/mpk"
	"zofs/internal/proc"
	"zofs/internal/vfs"
)

// Graceful error return (§3.4.2) at the entry points that used to reach the
// µFS outside guard. Each test takes the file's inode page away from the
// process's page table and requires an error, not a panic out of FSLibs.

// openVictim creates path with one block of data and returns its FD and
// inode page.
func openVictim(t *testing.T, l *Lib, th *proc.Thread, path string) (fd int, ino int64) {
	t.Helper()
	fd, err := l.Open(th, path, vfs.O_CREATE|vfs.O_RDWR, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Write(th, fd, make([]byte, 4096)); err != nil {
		t.Fatal(err)
	}
	fi, err := l.Fstat(th, fd)
	if err != nil {
		t.Fatal(err)
	}
	return fd, fi.Inode
}

// revoke takes one page out of the process's page table, as a kernel-side
// revocation the library has not yet noticed would, and returns the undo.
func revoke(t *testing.T, th *proc.Thread, page int64) (restore func()) {
	t.Helper()
	key, ok := th.Proc.Mem.KeyOf(page)
	if !ok {
		t.Fatalf("page %d is not mapped", page)
	}
	th.Proc.Mem.Unmap(page, 1)
	return func() { th.Proc.Mem.Map(page, 1, key, true) }
}

// survived checks the two things every recovered fault must leave behind: the
// protection window closed, and a library that still works.
func survived(t *testing.T, l *Lib, th *proc.Thread) {
	t.Helper()
	if th.PKRU() != mpk.DefaultPKRU() {
		t.Fatalf("protection window left open after the fault: PKRU %#x", th.PKRU())
	}
	fd, err := l.Open(th, "/after", vfs.O_CREATE|vfs.O_RDWR, 0o644)
	if err != nil {
		t.Fatalf("library unusable after the fault: %v", err)
	}
	if err := l.Close(th, fd); err != nil {
		t.Fatal(err)
	}
}

func TestLseekEndFaultIsAnError(t *testing.T) {
	_, _, l, th := newLib(t)
	fd, ino := openVictim(t, l, th, "/v")
	restore := revoke(t, th, ino)
	if pos, err := l.Lseek(th, fd, 0, SeekEnd); !errors.Is(err, vfs.ErrIO) {
		t.Fatalf("Lseek(SeekEnd) over a revoked mapping = %d, %v; want ErrIO", pos, err)
	}
	survived(t, l, th)
	// The other whences never enter the µFS.
	if pos, err := l.Lseek(th, fd, 7, SeekSet); err != nil || pos != 7 {
		t.Fatalf("Lseek(SeekSet) = %d, %v", pos, err)
	}
	restore()
	if pos, err := l.Lseek(th, fd, 0, SeekEnd); err != nil || pos != 4096 {
		t.Fatalf("Lseek(SeekEnd) with the mapping back = %d, %v", pos, err)
	}
}

func TestDup2DisplacedCloseFaultIsAnError(t *testing.T) {
	_, _, l, th := newLib(t)
	keep, _ := openVictim(t, l, th, "/keep")
	gone, ino := openVictim(t, l, th, "/gone")
	// Unlinked while open: closing the last FD reclaims the file's pages,
	// which is the part of Dup2 that enters the µFS.
	if err := l.Unlink(th, "/gone"); err != nil {
		t.Fatal(err)
	}
	revoke(t, th, ino)
	if nfd, err := l.Dup2(th, keep, gone); !errors.Is(err, vfs.ErrIO) || nfd != -1 {
		t.Fatalf("Dup2 whose implicit close faults = %d, %v; want -1, ErrIO", nfd, err)
	}
	survived(t, l, th)
	// The duplicate had taken the number before the close ran.
	if fi, err := l.Fstat(th, gone); err != nil || fi.Size != 4096 {
		t.Fatalf("the displaced number after Dup2: %+v, %v", fi, err)
	}
}

func TestRestoreFDsFaultSkipsTheFD(t *testing.T) {
	_, _, l, th := newLib(t)
	ok, _ := openVictim(t, l, th, "/ok")
	bad, ino := openVictim(t, l, th, "/bad")
	env, err := l.SerializeFDs()
	if err != nil {
		t.Fatal(err)
	}
	l.Close(th, ok)
	l.Close(th, bad)
	revoke(t, th, ino)
	if err := l.RestoreFDs(th, env); err != nil {
		t.Fatalf("RestoreFDs: %v", err)
	}
	survived(t, l, th)
	if _, err := l.Fstat(th, bad); !errors.Is(err, vfs.ErrBadFD) {
		t.Fatalf("the FD whose re-open faulted: %v, want ErrBadFD", err)
	}
	if fi, err := l.Fstat(th, ok); err != nil || fi.Size != 4096 {
		t.Fatalf("the other FD: %+v, %v", fi, err)
	}
}
