package fslibs

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"zofs/internal/coffer"
	"zofs/internal/proc"
	"zofs/internal/vfs"
)

// writeFile creates path holding data and returns its open FD.
func writeFile(t *testing.T, l *Lib, th *proc.Thread, path, data string) int {
	t.Helper()
	fd, err := l.Open(th, path, vfs.O_CREATE|vfs.O_RDWR, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Write(th, fd, []byte(data)); err != nil {
		t.Fatal(err)
	}
	return fd
}

// countedLib is newLib with ZoFS behind a counting wrapper: live is the number
// of µFS handles open.
func countedLib(t *testing.T) (*Lib, *proc.Thread, *countingFS) {
	t.Helper()
	_, _, l, th := newLib(t)
	fs := &countingFS{FileSystem: l.ZoFS()}
	l.RegisterFS(coffer.TypeZoFS, fs)
	return l, th, fs
}

// wantContent reads len(want) bytes through fd at offset 0.
func wantContent(t *testing.T, l *Lib, th *proc.Thread, fd int, want string) {
	t.Helper()
	buf := make([]byte, len(want))
	if n, err := l.Pread(th, fd, buf, 0); err != nil || string(buf[:n]) != want {
		t.Fatalf("Pread(fd %d) = %q, %v; want %q", fd, buf[:n], err, want)
	}
}

// TestDupSurvivesCloseOfOriginal: closing one of two descriptors of a file
// must not close the file. When it did, the inode's open count fell to zero,
// the unlink freed its pages, the next file took them, and the duplicate read
// the other file's bytes with a nil error.
func TestDupSurvivesCloseOfOriginal(t *testing.T) {
	l, th, fs := countedLib(t)
	a := writeFile(t, l, th, "/a", "hello world")
	d, err := l.Dup(a)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Close(th, a); err != nil || fs.live != 1 {
		t.Fatalf("Close of one of two descriptors: %v, %d µFS handles open, want 1", err, fs.live)
	}
	if err := l.Unlink(th, "/a"); err != nil {
		t.Fatal(err)
	}
	b := writeFile(t, l, th, "/b", "SECRET SECRET")
	wantContent(t, l, th, d, "hello world")
	wantContent(t, l, th, b, "SECRET SECRET")
	// The last descriptor's close is the file's.
	if err := l.Close(th, d); err != nil || fs.live != 1 {
		t.Fatalf("Close of the last descriptor: %v, %d µFS handles open, want /b's alone", err, fs.live)
	}
	if _, err := l.Pread(th, d, make([]byte, 1), 0); !errors.Is(err, vfs.ErrBadFD) {
		t.Fatalf("Pread on the closed duplicate: %v", err)
	}
}

// TestDup2DisplacedDuplicateSurvives is the Dup2 twin: the number Dup2 takes
// over may have a duplicate, and displacing it must not close that file.
func TestDup2DisplacedDuplicateSurvives(t *testing.T) {
	l, th, fs := countedLib(t)
	a := writeFile(t, l, th, "/a", "hello world")
	d, err := l.Dup(a)
	if err != nil {
		t.Fatal(err)
	}
	k := writeFile(t, l, th, "/k", "keep")
	if to, err := l.Dup2(th, k, a); err != nil || to != a || fs.live != 2 {
		t.Fatalf("Dup2 = %d, %v; %d µFS handles open, want 2", to, err, fs.live)
	}
	if err := l.Unlink(th, "/a"); err != nil {
		t.Fatal(err)
	}
	b := writeFile(t, l, th, "/b", "SECRET SECRET")
	wantContent(t, l, th, d, "hello world")
	wantContent(t, l, th, a, "keep")
	wantContent(t, l, th, b, "SECRET SECRET")
	// Dup2 onto itself changes nothing.
	if to, err := l.Dup2(th, d, d); err != nil || to != d {
		t.Fatalf("Dup2(d, d) = %d, %v", to, err)
	}
	wantContent(t, l, th, d, "hello world")
	// Displacing a file's only descriptor closes the file.
	if to, err := l.Dup2(th, k, d); err != nil || to != d || fs.live != 2 {
		t.Fatalf("Dup2 over the last descriptor of /a = %d, %v; %d µFS handles open, want /k's and /b's", to, err, fs.live)
	}
	for _, bad := range []int{-1, maxFDs} {
		if _, err := l.Dup2(th, d, bad); !errors.Is(err, vfs.ErrBadFD) {
			t.Fatalf("Dup2 onto %d: %v, want ErrBadFD", bad, err)
		}
	}
}

// TestFDNumbersMatchReference drives the table and a reference — a map and a
// lowest-free scan, what the table used to be — with one seeded random
// sequence of Open/Close/Dup/Dup2: every number handed out and every
// ErrBadFD must agree (§4.2's lowest-FD rule), and at the end each live
// descriptor must still read the file the reference says it names.
func TestFDNumbersMatchReference(t *testing.T) {
	_, _, l, th := newLib(t)
	const files, span, steps = 8, 48, 12000
	for i := 0; i < files; i++ {
		l.Close(th, writeFile(t, l, th, fmt.Sprintf("/f%d", i), fmt.Sprintf("file-%d", i)))
	}
	ref := map[int]int{} // fd → file index
	lowest := func() int {
		for fd := 0; ; fd++ {
			if _, used := ref[fd]; !used {
				return fd
			}
		}
	}
	r := rand.New(rand.NewSource(24))
	for step := 0; step < steps; step++ {
		fd, to := r.Intn(span)-2, r.Intn(span)-2 // a few invalid numbers too
		file, named := ref[fd]
		switch op := r.Intn(4); op {
		case 0:
			i := r.Intn(files)
			want := lowest()
			got, err := l.Open(th, fmt.Sprintf("/f%d", i), vfs.O_RDONLY, 0)
			if err != nil || got != want {
				t.Fatalf("step %d: Open = %d, %v; reference %d", step, got, err, want)
			}
			ref[got] = i
		case 1:
			err := l.Close(th, fd)
			if named != (err == nil) || (!named && !errors.Is(err, vfs.ErrBadFD)) {
				t.Fatalf("step %d: Close(%d) = %v; reference has it open: %v", step, fd, err, named)
			}
			delete(ref, fd)
		case 2:
			got, err := l.Dup(fd)
			if !named {
				if !errors.Is(err, vfs.ErrBadFD) {
					t.Fatalf("step %d: Dup(%d) = %d, %v; want ErrBadFD", step, fd, got, err)
				}
				break
			}
			if want := lowest(); err != nil || got != want {
				t.Fatalf("step %d: Dup(%d) = %d, %v; reference %d", step, fd, got, err, want)
			}
			ref[got] = file
		case 3:
			got, err := l.Dup2(th, fd, to)
			if !named || to < 0 {
				if !errors.Is(err, vfs.ErrBadFD) {
					t.Fatalf("step %d: Dup2(%d, %d) = %d, %v; want ErrBadFD", step, fd, to, got, err)
				}
				break
			}
			if err != nil || got != to {
				t.Fatalf("step %d: Dup2(%d, %d) = %d, %v", step, fd, to, got, err)
			}
			ref[to] = file
		}
	}
	if len(ref) == 0 {
		t.Fatal("the sequence left nothing open")
	}
	for fd, i := range ref {
		wantContent(t, l, th, fd, fmt.Sprintf("file-%d", i))
	}
	for fd := -2; fd < span; fd++ {
		if _, named := ref[fd]; !named {
			if _, err := l.Fstat(th, fd); !errors.Is(err, vfs.ErrBadFD) {
				t.Fatalf("Fstat(%d), unused in the reference: %v", fd, err)
			}
		}
	}
}

// TestExecKeepsDuplicatesShared: a table holding duplicates crosses exec with
// the sharing intact — one offset per description, and a file that stays open
// until its last descriptor closes.
func TestExecKeepsDuplicatesShared(t *testing.T) {
	_, _, l, th := newLib(t)
	a := writeFile(t, l, th, "/a", "0123456789")
	d, _ := l.Dup(a)
	o, err := l.Open(th, "/a", vfs.O_RDONLY, 0) // same file, its own description
	if err != nil {
		t.Fatal(err)
	}
	l.Lseek(th, a, 4, SeekSet)
	writeFile(t, l, th, "/exe", "x")
	nl, err := l.Exec(th, "/exe")
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 3)
	if n, err := nl.Read(th, d, buf); err != nil || string(buf[:n]) != "456" {
		t.Fatalf("read through the duplicate after exec = %q, %v", buf[:n], err)
	}
	if pos, _ := nl.Lseek(th, a, 0, SeekCur); pos != 7 {
		t.Fatalf("the duplicates' offset after exec: %d at one, 7 at the other", pos)
	}
	if pos, _ := nl.Lseek(th, o, 0, SeekCur); pos != 0 {
		t.Fatalf("an independent open of the same file moved with them: offset %d", pos)
	}
	// The restored pair is one description in the new image too.
	if nl.fds[a] != nl.fds[d] || nl.fds[a] == nl.fds[o] || nl.fds[a].refs != 2 {
		t.Fatalf("descriptions after exec: %p %p %p, refs %d", nl.fds[a], nl.fds[d], nl.fds[o], nl.fds[a].refs)
	}
	if err := nl.Close(th, a); err != nil {
		t.Fatal(err)
	}
	wantContent(t, nl, th, d, "0123456789")
}

// TestConcurrentCloseReopenKeepsReadsHome is for -race: beside goroutines that
// open, duplicate and close descriptors of one path — so descriptions go
// round the free list and numbers are reused constantly — readers of
// long-lived descriptors must only ever see their own file's pattern. A read
// holds its description for as long as it runs; nothing another goroutine
// does to the table can put a different file under it.
func TestConcurrentCloseReopenKeepsReadsHome(t *testing.T) {
	_, _, l, th := newLib(t)
	pattern := func(c byte) string { return string(bytes.Repeat([]byte{c}, 4096)) }
	long := writeFile(t, l, th, "/long", pattern('L'))
	l.Close(th, writeFile(t, l, th, "/churn", pattern('C')))

	const workers, rounds = 4, 400
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wth := th.Proc.NewThread()
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			buf := make([]byte, 4096)
			for i := 0; i < rounds; i++ {
				if w%2 == 0 {
					if n, err := l.Pread(wth, long, buf, 0); err != nil || string(buf[:n]) != pattern('L') {
						t.Errorf("worker %d round %d: read of /long = %d bytes %q…, %v", w, i, n, buf[:min(n, 8)], err)
						return
					}
					// The next number up is one the others keep closing and
					// reopening: whatever it names right now, a read of it is
					// a whole read of that file or a clean ErrBadFD.
					n, err := l.Pread(wth, long+1, buf, 0)
					if err == nil && string(buf[:n]) != pattern('C') || err != nil && !errors.Is(err, vfs.ErrBadFD) {
						t.Errorf("worker %d round %d: read of a churned number = %d bytes %q…, %v", w, i, n, buf[:min(n, 8)], err)
						return
					}
					continue
				}
				fd, err := l.Open(wth, "/churn", vfs.O_RDONLY, 0)
				if err != nil {
					t.Errorf("worker %d: open: %v", w, err)
					return
				}
				d, err := l.Dup(fd)
				if err != nil {
					t.Errorf("worker %d: dup: %v", w, err)
					return
				}
				l.Close(wth, fd)
				if n, err := l.Pread(wth, d, buf, 0); err != nil || string(buf[:n]) != pattern('C') {
					t.Errorf("worker %d round %d: read of /churn = %d bytes %q…, %v", w, i, n, buf[:min(n, 8)], err)
					return
				}
				l.Close(wth, d)
			}
		}(w)
	}
	wg.Wait()
	if len(l.fds) > 1+2*workers {
		t.Errorf("the table grew to %d numbers for at most %d open at once", len(l.fds), 1+2*workers)
	}
}
