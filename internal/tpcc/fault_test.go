package tpcc_test

import (
	"errors"
	"testing"

	"zofs/internal/coffer"
	"zofs/internal/proc"
	"zofs/internal/sqldb"
	"zofs/internal/sysfactory"
	"zofs/internal/tpcc"
	"zofs/internal/vfs"
)

// readFaultFS fails the failAt-th ReadAt on a handle it returned.
type readFaultFS struct {
	vfs.FileSystem
	reads, failAt int
	fired         bool
}

func (f *readFaultFS) Create(th *proc.Thread, p string, m coffer.Mode) (vfs.Handle, error) {
	h, err := f.FileSystem.Create(th, p, m)
	return &readFaultHandle{h, f}, err
}

func (f *readFaultFS) Open(th *proc.Thread, p string, flags int) (vfs.Handle, error) {
	h, err := f.FileSystem.Open(th, p, flags)
	return &readFaultHandle{h, f}, err
}

type readFaultHandle struct {
	vfs.Handle
	fs *readFaultFS
}

func (h *readFaultHandle) ReadAt(th *proc.Thread, p []byte, off int64) (int, error) {
	if h.fs.reads++; h.fs.reads == h.fs.failAt {
		h.fs.fired = true
		return 0, errors.New("injected read fault")
	}
	return h.Handle.ReadAt(th, p, off)
}

// TestReadFaultFailsTheTransaction: whichever page read of a transaction of
// any type fails — the index scans' included, and Stock-Level's lookups from
// inside its scan — the transaction fails; it does not read the fault as
// "nothing there" and commit.
func TestReadFaultFailsTheTransaction(t *testing.T) {
	in, err := sysfactory.ZoFS.New(2<<30, false)
	if err != nil {
		t.Fatal(err)
	}
	th, f := in.Proc.NewThread(), &readFaultFS{FileSystem: in.FS}
	db, err := tpcc.Setup(f, th, smallCfg())
	if err != nil {
		t.Fatal(err)
	}
	cl := tpcc.NewClient(db, smallCfg(), 9)
	for i := 0; i < 30; i++ {
		if err := cl.Exec(th, tpcc.NEW); err != nil {
			t.Fatal(err)
		}
	}
	for _, typ := range tpcc.MixOrder {
		for n := 1; ; n++ {
			// A cold cache and the same client state: the same reads each round.
			if err := db.Close(th); err != nil {
				t.Fatal(err)
			}
			if db, err = sqldb.Open(f, th, "/tpcc.db"); err != nil {
				t.Fatal(err)
			}
			f.reads, f.failAt, f.fired = 0, n, false
			err := tpcc.NewClient(db, smallCfg(), 9).Exec(th, typ)
			f.failAt = 0
			if !f.fired {
				if err != nil {
					t.Fatalf("%s: %v", typ, err)
				}
				if n < 5 {
					t.Fatalf("%s read only %d pages: the cache is not cold", typ, n-1)
				}
				break
			}
			if err == nil {
				t.Errorf("%s: page read %d failed and the transaction committed", typ, n)
			}
		}
	}
}
