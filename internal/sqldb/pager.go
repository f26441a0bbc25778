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

// cpage is one cached page: the image the database file holds (or will hold
// once the transaction commits) and what the pager and the B-tree keep beside
// it in DRAM only.
type cpage struct {
	buf    []byte   // PageSize bytes (the oversize scratch page: a cell more)
	slots  []uint16 // B-tree cell offsets, kept in step with buf (btree.go)
	dirty  bool     // written back at commit
	logged bool     // original image is in the journal
}

// Cached pages are carved from slabs of slabPages: the page, its image and a
// slot table of slabSlots entries, so the table of a page of up to
// slabSlots-1 cells (cells of 32 bytes and up fill a page with fewer) costs
// no heap object of its own. A page with more cells moves its table to a
// larger slice.
const (
	slabPages = 64
	slabSlots = 128
)

// pageSlab is one allocation of slabPages cached pages; pages leads so the
// collector scans only the part that holds pointers.
type pageSlab struct {
	pages [slabPages]cpage
	bufs  [slabPages * PageSize]byte
	slots [slabPages * slabSlots]uint16
}

// pager manages the database file, the page cache and the rollback
// journal. The page cache is volatile (SQLite's cache lives in process
// DRAM); every first read of a page and every commit write-back is charged
// file system traffic.
type pager struct {
	fs      vfs.FileSystem
	jpath   string
	h       vfs.Handle
	pages   []*cpage // by page number, one slot per page of the file; nil = not cached
	inTxn   bool
	dirty   []int64 // numbers of the pages with dirty set, in the order they became so
	journal vfs.Handle
	rec     [8 + PageSize]byte // the one journal record (and header) buffer
	big     cpage              // where a page that outgrew PageSize is laid out before it splits
	sep     [MaxKeyLen]byte    // the separator key a split hands its parent
	slab    *pageSlab          // the slab pages are carved from
	carved  int                // pages of slab handed out
	free    []*cpage           // pages a rollback dropped, reused before the slab
}

func openPager(fs vfs.FileSystem, th *proc.Thread, path string) (*pager, error) {
	h, err := fs.Open(th, path, vfs.O_RDWR|vfs.O_CREATE)
	if err != nil {
		return nil, err
	}
	fi, err := h.Stat(th)
	if err != nil {
		h.Close(th)
		return nil, err
	}
	// Page 0 is the database header, present before anything is written.
	p := &pager{
		fs: fs, jpath: path + "-journal", h: h,
		pages: make([]*cpage, max(fi.Size/PageSize, 1)),
	}
	p.big.buf = make([]byte, PageSize+maxCellSize)
	// A leftover journal means the last transaction did not commit: roll
	// it back (SQLite hot-journal recovery).
	if err := p.recoverHotJournal(th); err != nil {
		h.Close(th)
		return nil, err
	}
	return p, nil
}

// page returns a cached page, loading it from the file on first touch.
func (p *pager) page(th *proc.Thread, no int64) (*cpage, error) {
	if no < 0 || no >= int64(len(p.pages)) {
		return nil, fmt.Errorf("sqldb: page %d outside the %d-page database", no, len(p.pages))
	}
	if pg := p.pages[no]; pg != nil {
		th.CPU(perfmodel.CPUSmallOp)
		return pg, nil
	}
	pg := p.newPage()
	if _, err := p.h.ReadAt(th, pg.buf, no*PageSize); err != nil {
		p.free = append(p.free, pg)
		return nil, err
	}
	p.pages[no] = pg
	return pg, nil
}

// allocPage appends a fresh page to the file.
func (p *pager) allocPage(th *proc.Thread) (int64, *cpage) {
	no := int64(len(p.pages))
	pg := p.newPage()
	p.pages = append(p.pages, pg)
	p.markDirty(no, pg)
	return no, pg
}

// newPage returns a zeroed, clean page with an empty slot table: one a
// rollback dropped, or the next of the slab.
func (p *pager) newPage() *cpage {
	if n := len(p.free); n > 0 {
		pg := p.free[n-1]
		p.free = p.free[:n-1]
		clear(pg.buf)
		pg.slots, pg.dirty, pg.logged = pg.slots[:0], false, false
		return pg
	}
	if p.slab == nil || p.carved == slabPages {
		p.slab, p.carved = new(pageSlab), 0
	}
	s, i := p.slab, p.carved
	p.carved++
	pg := &s.pages[i]
	pg.buf = s.bufs[i*PageSize : (i+1)*PageSize : (i+1)*PageSize]
	pg.slots = s.slots[i*slabSlots : i*slabSlots : (i+1)*slabSlots]
	return pg
}

// drop uncaches page no, keeping its memory for the next page.
func (p *pager) drop(no int64) {
	if pg := p.pages[no]; pg != nil {
		p.pages[no] = nil
		p.free = append(p.free, pg)
	}
}

func (p *pager) markDirty(no int64, pg *cpage) {
	if !pg.dirty {
		pg.dirty = true
		p.dirty = append(p.dirty, no)
	}
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
	hdr := p.rec[:16]
	clear(hdr)
	binary.LittleEndian.PutUint64(hdr, 0x73716c6a726e6c00) // "sqljrnl"
	if _, err := j.Append(th, hdr); err != nil {
		// Leave neither the handle nor a headerless journal behind.
		j.Close(th)
		p.fs.Unlink(th, p.jpath)
		return err
	}
	p.journal = j
	p.inTxn = true
	return nil
}

// write marks a page dirty, journaling its original image first (the
// rollback-journal double write).
func (p *pager) write(th *proc.Thread, no int64) error {
	if !p.inTxn {
		return errors.New("sqldb: write outside transaction")
	}
	pg := p.pages[no]
	if pg == nil || !pg.logged {
		var err error
		if pg, err = p.page(th, no); err != nil {
			return err
		}
		binary.LittleEndian.PutUint64(p.rec[:], uint64(no))
		copy(p.rec[8:], pg.buf)
		if _, err := p.journal.Append(th, p.rec[:]); err != nil {
			return err
		}
		if err := p.journal.Sync(th); err != nil {
			return err
		}
		pg.logged = true
	}
	p.markDirty(no, pg)
	return nil
}

// closeJournal closes the journal handle if it is still open.
func (p *pager) closeJournal(th *proc.Thread) error {
	j := p.journal
	if j == nil {
		return nil
	}
	p.journal = nil
	return j.Close(th)
}

// endTxn forgets the transaction's page state once the journal is gone.
func (p *pager) endTxn() {
	p.inTxn = false
	p.dirty = p.dirty[:0]
}

// commit writes dirty pages back and deletes the journal (the atomic
// commit point).
func (p *pager) commit(th *proc.Thread) error {
	if !p.inTxn {
		return errors.New("sqldb: commit outside transaction")
	}
	// Ascending page order, not the order pages were touched in: identical
	// runs issue identical file system traffic, and the file is extended
	// front to back.
	slices.Sort(p.dirty)
	for _, no := range p.dirty {
		if _, err := p.h.WriteAt(th, p.pages[no].buf, no*PageSize); err != nil {
			return err
		}
	}
	if err := p.h.Sync(th); err != nil {
		return err
	}
	if err := p.closeJournal(th); err != nil {
		return err
	}
	if err := p.fs.Unlink(th, p.jpath); err != nil {
		return err
	}
	for _, no := range p.dirty {
		pg := p.pages[no]
		pg.dirty, pg.logged = false, false
	}
	p.endTxn()
	return nil
}

// rollback restores original images from the journal and deletes it.
func (p *pager) rollback(th *proc.Thread) error {
	if !p.inTxn {
		return nil
	}
	p.closeJournal(th)
	if err := p.applyJournal(th); err != nil {
		return err
	}
	// Drop cached dirty pages: re-read from the (restored) file on demand.
	for _, no := range p.dirty {
		p.drop(no)
	}
	if err := p.fs.Unlink(th, p.jpath); err != nil {
		return err
	}
	p.endTxn()
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
	rec := p.rec[:]
	for off := int64(16); off+int64(len(rec)) <= fi.Size; off += int64(len(rec)) {
		if _, err := j.ReadAt(th, rec, off); err != nil {
			return err
		}
		no := int64(binary.LittleEndian.Uint64(rec))
		if _, err := p.h.WriteAt(th, rec[8:], no*PageSize); err != nil {
			return err
		}
		// A hot journal can name pages past the end of the file it found.
		if no < int64(len(p.pages)) {
			p.drop(no)
		}
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
	if binary.LittleEndian.Uint64(pg.buf[hdrMagicOf:]) != hdrMagic {
		return 0, nil // fresh database
	}
	return int64(binary.LittleEndian.Uint64(pg.buf[hdrCatalog:])), nil
}

func (p *pager) storeHeader(th *proc.Thread, catalog int64) error {
	if err := p.write(th, 0); err != nil {
		return err
	}
	pg := p.pages[0].buf
	binary.LittleEndian.PutUint64(pg[hdrMagicOf:], hdrMagic)
	binary.LittleEndian.PutUint64(pg[hdrCatalog:], uint64(catalog))
	return nil
}
