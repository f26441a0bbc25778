package sqldb_test

import (
	"errors"
	"fmt"
	"testing"

	"zofs/internal/coffer"
	"zofs/internal/proc"
	"zofs/internal/sqldb"
	"zofs/internal/sysfactory"
	"zofs/internal/vfs"
)

var errInjected = errors.New("injected fault")

// faultFS fails the failAt-th call made through it or through a handle it
// returned, counted from arm, and counts the handles not yet closed.
type faultFS struct {
	vfs.FileSystem
	calls, failAt int
	fired         bool
	live          int
}

func (f *faultFS) arm(n int) { f.calls, f.failAt, f.fired = 0, n, false }
func (f *faultFS) disarm()   { f.failAt = 0 }

func (f *faultFS) fail() error {
	if f.calls++; f.calls != f.failAt {
		return nil
	}
	f.fired = true
	return errInjected
}

func (f *faultFS) wrap(h vfs.Handle, err error) (vfs.Handle, error) {
	if err != nil {
		return nil, err
	}
	f.live++
	return &faultHandle{h, f}, nil
}

func (f *faultFS) Create(th *proc.Thread, p string, m coffer.Mode) (vfs.Handle, error) {
	if err := f.fail(); err != nil {
		return nil, err
	}
	return f.wrap(f.FileSystem.Create(th, p, m))
}

func (f *faultFS) Open(th *proc.Thread, p string, flags int) (vfs.Handle, error) {
	if err := f.fail(); err != nil {
		return nil, err
	}
	return f.wrap(f.FileSystem.Open(th, p, flags))
}

func (f *faultFS) Unlink(th *proc.Thread, p string) error {
	if err := f.fail(); err != nil {
		return err
	}
	return f.FileSystem.Unlink(th, p)
}

func (f *faultFS) Stat(th *proc.Thread, p string) (vfs.FileInfo, error) {
	if err := f.fail(); err != nil {
		return vfs.FileInfo{}, err
	}
	return f.FileSystem.Stat(th, p)
}

type faultHandle struct {
	vfs.Handle
	fs *faultFS
}

func (h *faultHandle) ReadAt(th *proc.Thread, p []byte, off int64) (int, error) {
	if err := h.fs.fail(); err != nil {
		return 0, err
	}
	return h.Handle.ReadAt(th, p, off)
}

func (h *faultHandle) WriteAt(th *proc.Thread, p []byte, off int64) (int, error) {
	if err := h.fs.fail(); err != nil {
		return 0, err
	}
	return h.Handle.WriteAt(th, p, off)
}

func (h *faultHandle) Append(th *proc.Thread, p []byte) (int64, error) {
	if err := h.fs.fail(); err != nil {
		return 0, err
	}
	return h.Handle.Append(th, p)
}

func (h *faultHandle) Stat(th *proc.Thread) (vfs.FileInfo, error) {
	if err := h.fs.fail(); err != nil {
		return vfs.FileInfo{}, err
	}
	return h.Handle.Stat(th)
}

func (h *faultHandle) Sync(th *proc.Thread) error {
	if err := h.fs.fail(); err != nil {
		return err
	}
	return h.Handle.Sync(th)
}

// Close releases the handle even when it reports the injected failure.
func (h *faultHandle) Close(th *proc.Thread) error {
	h.fs.live--
	err := h.Handle.Close(th)
	if ferr := h.fs.fail(); ferr != nil {
		return ferr
	}
	return err
}

const faultRows = 40

func faultKey(i int) string { return fmt.Sprintf("k%02d", i) }

// faultDB commits faultRows rows of 200 bytes (several leaves) through f and
// reopens the database, so that the next transaction reads its pages.
func faultDB(t *testing.T, f *faultFS, th *proc.Thread) *sqldb.DB {
	t.Helper()
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	db, err := sqldb.Open(f, th, "/t.db")
	must(err)
	tx, err := db.Begin(th)
	must(err)
	for i := 0; i < faultRows; i++ {
		must(tx.Put("t", []byte(faultKey(i)), make([]byte, 200)))
	}
	must(tx.Commit())
	must(db.Close(th))
	db, err = sqldb.Open(f, th, "/t.db")
	must(err)
	return db
}

// TestFaultAtEveryCall fails, in turn, every file system call of one
// begin/put/commit cycle. Whichever call it is, the cycle reports the
// failure, leaves no handle and no journal behind, the committed rows are
// what they were, and the next transaction begins and commits.
func TestFaultAtEveryCall(t *testing.T) {
	update := func(db *sqldb.DB, th *proc.Thread, val []byte) error {
		tx, err := db.Begin(th)
		if err != nil {
			return err
		}
		for _, k := range []string{faultKey(3), faultKey(faultRows - 2), "fresh"} {
			if err := tx.Put("t", []byte(k), val); err != nil {
				tx.Rollback()
				return err
			}
		}
		return tx.Commit()
	}
	for n := 1; ; n++ {
		in, err := sysfactory.ZoFS.New(256 << 20)
		if err != nil {
			t.Fatal(err)
		}
		th, f := in.Proc.NewThread(), &faultFS{FileSystem: in.FS}
		db := faultDB(t, f, th)

		f.arm(n)
		err = update(db, th, []byte("new"))
		f.disarm()
		if !f.fired {
			if err != nil {
				t.Fatalf("no call failed, yet the cycle did: %v", err)
			}
			if n < 10 {
				t.Fatalf("a cycle of only %d calls: the test is not reaching the pager", n-1)
			}
			return
		}
		if !errors.Is(err, errInjected) {
			t.Fatalf("call %d failed and the cycle returned %v", n, err)
		}
		if f.live != 1 {
			t.Errorf("call %d: %d handles open after the failed cycle, want the database's one", n, f.live)
		}
		if _, err := f.Stat(th, "/t.db-journal"); !errors.Is(err, vfs.ErrNotExist) {
			t.Errorf("call %d: journal left behind (Stat: %v)", n, err)
		}
		check := func(db *sqldb.DB, when string, want int, fresh bool) {
			t.Helper()
			for i := 0; i < faultRows; i++ {
				v, err := db.Get(th, "t", faultKey(i))
				wantLen := 200
				if i == 3 || i == faultRows-2 {
					wantLen = want
				}
				if err != nil || len(v) != wantLen {
					t.Fatalf("call %d, %s: row %d = %d bytes, %v; want %d", n, when, i, len(v), err, wantLen)
				}
			}
			if _, err := db.Get(th, "t", "fresh"); errors.Is(err, sqldb.ErrNotFound) == fresh {
				t.Fatalf("call %d, %s: row fresh: %v", n, when, err)
			}
		}
		check(db, "after the failed cycle", 200, false)
		if err := update(db, th, []byte("newer")); err != nil {
			t.Fatalf("call %d: the next transaction: %v", n, err)
		}
		check(db, "after the next transaction", 5, true)
		if err := db.Close(th); err != nil {
			t.Fatal(err)
		}
		db, err = sqldb.Open(f, th, "/t.db")
		if err != nil {
			t.Fatal(err)
		}
		check(db, "reopened", 5, true)
	}
}

// TestOpenFaultLeaksNoHandle fails every call of Open in turn, on a fresh
// path and on a database with a hot journal: a failed Open holds no handle,
// and the Open after it succeeds with the committed rows.
func TestOpenFaultLeaksNoHandle(t *testing.T) {
	for _, hot := range []bool{false, true} {
		for n := 1; ; n++ {
			in, err := sysfactory.ZoFS.New(256 << 20)
			if err != nil {
				t.Fatal(err)
			}
			th := in.Proc.NewThread()
			if hot {
				// An abandoned transaction: its journal stays on disk.
				tx, err := faultDB(t, &faultFS{FileSystem: in.FS}, th).Begin(th)
				if err != nil {
					t.Fatal(err)
				}
				if err := tx.Put("t", []byte(faultKey(0)), []byte("uncommitted")); err != nil {
					t.Fatal(err)
				}
			}
			f := &faultFS{FileSystem: in.FS}
			f.arm(n)
			db, err := sqldb.Open(f, th, "/t.db")
			f.disarm()
			// (Open may survive a failed call: closing the journal it only read.)
			if err != nil {
				if !f.fired || !errors.Is(err, errInjected) || f.live != 0 {
					t.Fatalf("hot=%v call %d: Open = %v with %d handles left open", hot, n, err, f.live)
				}
				if db, err = sqldb.Open(f, th, "/t.db"); err != nil {
					t.Fatalf("hot=%v call %d: Open after the failed one: %v", hot, n, err)
				}
			}
			if hot {
				if v, err := db.Get(th, "t", faultKey(0)); err != nil || len(v) != 200 {
					t.Fatalf("hot=%v call %d: row 0 = %d bytes, %v", hot, n, len(v), err)
				}
			}
			if !f.fired {
				break
			}
		}
	}
}
