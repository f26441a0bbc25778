// Package sqldb is a from-scratch SQLite-style embedded storage engine on
// the vfs.FileSystem API: a single database file of 4KB pages, a rollback
// journal providing atomic transactions (original page images are journaled
// before modification, the journal unlink is the commit point), and B-trees
// for tables and secondary indexes. It is the substrate for the paper's
// TPC-C experiment (Figure 11, Table 8) and produces the same file system
// traffic pattern as SQLite in rollback-journal mode: journal writes +
// syncs, in-place page writes, journal deletion per transaction.
package sqldb

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"

	"zofs/internal/perfmodel"
	"zofs/internal/proc"
	"zofs/internal/vfs"
)

// PageSize is the database page size (SQLite default region).
const PageSize = 4096

// ErrNotFound reports a missing key.
var ErrNotFound = errors.New("sqldb: not found")

// pager manages the database file, the page cache and the rollback
// journal. The page cache is volatile (SQLite's cache lives in process
// DRAM); every first read of a page and every commit write-back is charged
// file system traffic.
type pager struct {
	fs      vfs.FileSystem
	path    string
	jpath   string
	h       vfs.Handle
	nPages  int64
	cache   map[int64][]byte
	inTxn   bool
	dirty   map[int64]bool
	logged  map[int64]bool
	journal vfs.Handle
	jSize   int64
}

func openPager(fs vfs.FileSystem, th *proc.Thread, path string) (*pager, error) {
	h, err := fs.Open(th, path, vfs.O_RDWR|vfs.O_CREATE)
	if err != nil {
		return nil, err
	}
	fi, err := h.Stat(th)
	if err != nil {
		return nil, err
	}
	p := &pager{
		fs: fs, path: path, jpath: path + "-journal", h: h,
		nPages: fi.Size / PageSize,
		cache:  map[int64][]byte{},
		dirty:  map[int64]bool{},
		logged: map[int64]bool{},
	}
	if p.nPages == 0 {
		p.nPages = 1 // page 0 is the database header
	}
	// A leftover journal means the last transaction did not commit: roll
	// it back (SQLite hot-journal recovery).
	if err := p.recoverHotJournal(th); err != nil {
		return nil, err
	}
	return p, nil
}

// page returns a cached page, loading it from the file on first touch.
func (p *pager) page(th *proc.Thread, no int64) ([]byte, error) {
	if pg, ok := p.cache[no]; ok {
		th.CPU(perfmodel.CPUSmallOp)
		return pg, nil
	}
	pg := make([]byte, PageSize)
	if no < p.nPages {
		if _, err := p.h.ReadAt(th, pg, no*PageSize); err != nil {
			return nil, err
		}
	}
	p.cache[no] = pg
	return pg, nil
}

// allocPage appends a fresh page to the file.
func (p *pager) allocPage(th *proc.Thread) (int64, []byte) {
	no := p.nPages
	p.nPages++
	pg := make([]byte, PageSize)
	p.cache[no] = pg
	p.dirty[no] = true
	return no, pg
}

// begin starts a transaction: create the journal with a header.
func (p *pager) begin(th *proc.Thread) error {
	if p.inTxn {
		return errors.New("sqldb: nested transaction")
	}
	j, err := p.fs.Create(th, p.jpath, 0o644)
	if err != nil {
		return err
	}
	hdr := make([]byte, 16)
	binary.LittleEndian.PutUint64(hdr, 0x73716c6a726e6c00) // "sqljrnl"
	if _, err := j.Append(th, hdr); err != nil {
		return err
	}
	p.journal = j
	p.jSize = 16
	p.inTxn = true
	p.dirty = map[int64]bool{}
	p.logged = map[int64]bool{}
	return nil
}

// write marks a page dirty, journaling its original image first (the
// rollback-journal double write).
func (p *pager) write(th *proc.Thread, no int64) error {
	if !p.inTxn {
		return errors.New("sqldb: write outside transaction")
	}
	if !p.logged[no] {
		orig, err := p.page(th, no)
		if err != nil {
			return err
		}
		rec := make([]byte, 8+PageSize)
		binary.LittleEndian.PutUint64(rec, uint64(no))
		copy(rec[8:], orig)
		if _, err := p.journal.Append(th, rec); err != nil {
			return err
		}
		if err := p.journal.Sync(th); err != nil {
			return err
		}
		p.jSize += int64(len(rec))
		p.logged[no] = true
	}
	p.dirty[no] = true
	return nil
}

// commit writes dirty pages back and deletes the journal (the atomic
// commit point).
func (p *pager) commit(th *proc.Thread) error {
	if !p.inTxn {
		return errors.New("sqldb: commit outside transaction")
	}
	// Ascending page order, not map order: identical runs issue identical
	// file system traffic, and the file is extended front to back.
	nos := make([]int64, 0, len(p.dirty))
	for no := range p.dirty {
		nos = append(nos, no)
	}
	slices.Sort(nos)
	for _, no := range nos {
		if _, err := p.h.WriteAt(th, p.cache[no], no*PageSize); err != nil {
			return err
		}
	}
	if err := p.h.Sync(th); err != nil {
		return err
	}
	p.journal.Close(th)
	if err := p.fs.Unlink(th, p.jpath); err != nil {
		return err
	}
	p.inTxn = false
	p.journal = nil
	return nil
}

// rollback restores original images from the journal and deletes it.
func (p *pager) rollback(th *proc.Thread) error {
	if !p.inTxn {
		return nil
	}
	p.journal.Close(th)
	if err := p.applyJournal(th); err != nil {
		return err
	}
	// Drop cached dirty pages: re-read from the (restored) file on demand.
	for no := range p.dirty {
		delete(p.cache, no)
	}
	if err := p.fs.Unlink(th, p.jpath); err != nil {
		return err
	}
	p.inTxn = false
	p.journal = nil
	return nil
}

// applyJournal writes journaled original images back to the db file.
func (p *pager) applyJournal(th *proc.Thread) error {
	j, err := p.fs.Open(th, p.jpath, vfs.O_RDONLY)
	if err != nil {
		return err
	}
	defer j.Close(th)
	fi, err := j.Stat(th)
	if err != nil {
		return err
	}
	rec := make([]byte, 8+PageSize)
	for off := int64(16); off+int64(len(rec)) <= fi.Size; off += int64(len(rec)) {
		if _, err := j.ReadAt(th, rec, off); err != nil {
			return err
		}
		no := int64(binary.LittleEndian.Uint64(rec))
		if _, err := p.h.WriteAt(th, rec[8:], no*PageSize); err != nil {
			return err
		}
		delete(p.cache, no)
	}
	return nil
}

// recoverHotJournal rolls back an interrupted transaction found at open.
func (p *pager) recoverHotJournal(th *proc.Thread) error {
	if _, err := p.fs.Stat(th, p.jpath); errors.Is(err, vfs.ErrNotExist) {
		return nil
	} else if err != nil {
		return err
	}
	if err := p.applyJournal(th); err != nil {
		return err
	}
	return p.fs.Unlink(th, p.jpath)
}

func (p *pager) close(th *proc.Thread) error {
	if p.inTxn {
		if err := p.rollback(th); err != nil {
			return err
		}
	}
	return p.h.Close(th)
}

// header (page 0) layout: magic, page count, catalog root.
const (
	hdrMagic   = 0x5A53514C44420000 // "ZSQLDB"
	hdrMagicOf = 0
	hdrCatalog = 8 // u64 root page of the catalog btree
)

func (p *pager) loadHeader(th *proc.Thread) (catalog int64, err error) {
	pg, err := p.page(th, 0)
	if err != nil {
		return 0, err
	}
	if binary.LittleEndian.Uint64(pg[hdrMagicOf:]) != hdrMagic {
		return 0, nil // fresh database
	}
	return int64(binary.LittleEndian.Uint64(pg[hdrCatalog:])), nil
}

func (p *pager) storeHeader(th *proc.Thread, catalog int64) error {
	if err := p.write(th, 0); err != nil {
		return err
	}
	pg := p.cache[0]
	binary.LittleEndian.PutUint64(pg[hdrMagicOf:], hdrMagic)
	binary.LittleEndian.PutUint64(pg[hdrCatalog:], uint64(catalog))
	return nil
}

var _ = fmt.Sprintf // keep fmt for debug helpers in other files
