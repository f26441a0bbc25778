package sqldb

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"slices"

	"zofs/internal/perfmodel"
	"zofs/internal/proc"
)

// B-tree pages. Interior cells {key, child} mean "subtree child holds keys
// <= key"; the rightmost pointer holds keys greater than every cell key.
// Leaves are chained through right-sibling pointers for range scans.
//
// Cells are packed back to back from btCellsOff in key order and the rest of
// the page is zero:
//
//	leaf      klen u16 | vlen u16  | key | val
//	interior  klen u16 | child u64 | key
//
// The tree is searched and edited on the cached page image itself. Packed
// cells have no directory on the page, so each cached page carries a
// DRAM-only slot table (cpage.slots: the offset of every cell, then the end
// of the last). It is built from the image when the page is loaded from the
// file and edited in step with the image after that: an edit shifts the
// entries behind it, a split hands each half its share.
const (
	pgLeaf     = 1
	pgInterior = 2

	btTypeOff  = 0  // u8
	btNCellOff = 2  // u16
	btRightOff = 8  // u64: leaf right sibling / interior rightmost child
	btCellsOff = 16 // packed cells

	leafCellHdr     = 4
	interiorCellHdr = 10

	// MaxKeyLen / MaxValLen bound cells so a page always fits two.
	MaxKeyLen = 256
	MaxValLen = 1200

	maxCellSize = leafCellHdr + MaxKeyLen + MaxValLen
	cellSpace   = PageSize - btCellsOff
)

var errCorrupt = errors.New("sqldb: corrupt B-tree page")

func setHeader(pg []byte, typ byte, ncells int, right int64) {
	pg[btTypeOff] = typ
	binary.LittleEndian.PutUint16(pg[btNCellOff:], uint16(ncells))
	binary.LittleEndian.PutUint64(pg[btRightOff:], uint64(right))
}

func putLeafCell(at, key, val []byte) {
	binary.LittleEndian.PutUint16(at, uint16(len(key)))
	binary.LittleEndian.PutUint16(at[2:], uint16(len(val)))
	copy(at[leafCellHdr:], key)
	copy(at[leafCellHdr+len(key):], val)
}

func putInteriorCell(at, key []byte, child int64) {
	binary.LittleEndian.PutUint16(at, uint16(len(key)))
	binary.LittleEndian.PutUint64(at[2:], uint64(child))
	copy(at[interiorCellHdr:], key)
}

func (pg *cpage) leaf() bool   { return pg.buf[btTypeOff] == pgLeaf }
func (pg *cpage) right() int64 { return int64(binary.LittleEndian.Uint64(pg.buf[btRightOff:])) }

// index builds the slot table from the page image, checking on the way that
// every cell lies inside the page.
func (pg *cpage) index() error {
	buf, hdr := pg.buf, interiorCellHdr
	switch buf[btTypeOff] {
	case pgLeaf:
		hdr = leafCellHdr
	case pgInterior:
	default:
		return errCorrupt
	}
	n := int(binary.LittleEndian.Uint16(buf[btNCellOff:]))
	slots, off := roomy(pg.slots[:0], min(n+1, pageSlots)), btCellsOff
	for ; n > 0; n-- {
		if off+hdr > len(buf) {
			return errCorrupt
		}
		slots = append(slots, uint16(off))
		size := hdr + int(binary.LittleEndian.Uint16(buf[off:]))
		if hdr == leafCellHdr {
			size += int(binary.LittleEndian.Uint16(buf[off+2:]))
		}
		off += size
	}
	if off > len(buf) {
		return errCorrupt
	}
	pg.slots = append(slots, uint16(off))
	return nil
}

// pageSlots bounds the slot table of a page: a page of the smallest cells,
// and its end.
const pageSlots = cellSpace/leafCellHdr + 1

// roomy returns s, or if s has no room for n more entries, s moved to a
// table of pageSlots: a page outgrows the table its slab carved once.
func roomy(s []uint16, n int) []uint16 {
	if len(s)+n <= cap(s) {
		return s
	}
	return append(make([]uint16, 0, max(pageSlots, len(s)+n)), s...)
}

func (pg *cpage) ncells() int { return len(pg.slots) - 1 }

// end is the offset of the first byte behind the last cell.
func (pg *cpage) end() int { return int(pg.slots[len(pg.slots)-1]) }

// key returns a view of cell i's key.
func (pg *cpage) key(i int) []byte {
	off := int(pg.slots[i])
	klen := int(binary.LittleEndian.Uint16(pg.buf[off:]))
	if pg.leaf() {
		off += leafCellHdr
	} else {
		off += interiorCellHdr
	}
	return pg.buf[off : off+klen]
}

// val returns a view of leaf cell i's value: from the key to the next cell.
func (pg *cpage) val(i int) []byte {
	off, next := int(pg.slots[i]), int(pg.slots[i+1])
	klen := int(binary.LittleEndian.Uint16(pg.buf[off:]))
	return pg.buf[off+leafCellHdr+klen : next : next]
}

// child returns the subtree of an interior page that search position i
// selects: cell i's, or the rightmost pointer behind the last cell.
func (pg *cpage) child(i int) int64 {
	if i == pg.ncells() {
		return pg.right()
	}
	return int64(binary.LittleEndian.Uint64(pg.buf[int(pg.slots[i])+2:]))
}

// search finds the index of the first cell with key >= k and reports whether
// that cell's key is k.
func (pg *cpage) search(k []byte) (int, bool) {
	lo, hi := 0, pg.ncells()
	for lo < hi {
		mid := (lo + hi) / 2
		if bytes.Compare(pg.key(mid), k) < 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, lo < pg.ncells() && bytes.Equal(pg.key(lo), k)
}

// btree is one tree (a table or index) within the database file.
type btree struct {
	pg    *pager
	root  int64
	stale bool // a table handle whose root a rollback may have moved (db.go)
}

// newBtree allocates an empty leaf root.
func newBtree(th *proc.Thread, p *pager) (*btree, error) {
	no, pg := p.allocPage(th)
	setHeader(pg.buf, pgLeaf, 0, 0)
	pg.slots = append(pg.slots, btCellsOff)
	if err := p.write(th, no); err != nil {
		return nil, err
	}
	return &btree{pg: p, root: no}, nil
}

// node returns a cached page with its slot table in step with its image,
// indexing a page just loaded from the file.
func (t *btree) node(th *proc.Thread, no int64) (*cpage, error) {
	pg, err := t.pg.page(th, no)
	if err != nil {
		return nil, err
	}
	if len(pg.slots) == 0 {
		if err := pg.index(); err != nil {
			return nil, fmt.Errorf("page %d: %w", no, err)
		}
	}
	return pg, nil
}

// descend walks from the root to the leaf whose key range covers key,
// charging perLevel for every page on the way.
func (t *btree) descend(th *proc.Thread, key []byte, perLevel int64) (int64, *cpage, error) {
	no := t.root
	for {
		th.CPU(perLevel)
		pg, err := t.node(th, no)
		if err != nil || pg.leaf() {
			return no, pg, err
		}
		i, _ := pg.search(key)
		no = pg.child(i)
	}
}

// Get returns a view of the value for key: bytes of the cached page, valid
// until the tree is next written or rolled back.
func (t *btree) Get(th *proc.Thread, key []byte) ([]byte, error) {
	_, pg, err := t.descend(th, key, perfmodel.CPUHashLookup)
	if err != nil {
		return nil, err
	}
	i, found := pg.search(key)
	if !found {
		return nil, ErrNotFound
	}
	return pg.val(i), nil
}

// Put inserts or replaces a key. Neither key nor val may be a view of a
// cached page: the edit moves the bytes a view shows.
func (t *btree) Put(th *proc.Thread, key, val []byte) error {
	if len(key) > MaxKeyLen || len(val) > MaxValLen {
		return fmt.Errorf("sqldb: key/value too large (%d/%d)", len(key), len(val))
	}
	promoted, newPage, err := t.insert(th, t.root, key, val)
	if err != nil {
		return err
	}
	if newPage != 0 {
		// Root split: grow the tree by one level.
		rootNo, rootPg := t.pg.allocPage(th)
		setHeader(rootPg.buf, pgInterior, 1, newPage)
		putInteriorCell(rootPg.buf[btCellsOff:], promoted, t.root)
		rootPg.slots = append(rootPg.slots, btCellsOff, uint16(btCellsOff+interiorCellHdr+len(promoted)))
		if err := t.pg.write(th, rootNo); err != nil {
			return err
		}
		t.root = rootNo
	}
	return nil
}

// splice makes room for size bytes where cell i of pg stands, in place of
// the old bytes that cell occupies now (0: a cell is inserted before it;
// size 0: the cell is removed): the cells behind shift, what a shrink
// vacates is zeroed and the cell count follows, so the image stays what
// packing the edited cell list into a zeroed page gives. The slot table
// follows too: the entries behind cell i shift by the size change, and one
// is inserted or removed. The caller writes the cell at the returned offset.
// A page the edit grows past PageSize is laid out, table and all, in the
// pager's oversize page instead, for split to divide.
func (t *btree) splice(pg *cpage, i, old, size int) (*cpage, int) {
	off, end := int(pg.slots[i]), pg.end()
	dst := pg
	if end+size-old > PageSize {
		dst = &t.pg.big
		copy(dst.buf, pg.buf[:end])
		dst.slots = append(roomy(dst.slots[:0], len(pg.slots)), pg.slots...)
	}
	copy(dst.buf[off+size:], dst.buf[off+old:end])
	if size < old {
		clear(dst.buf[end+size-old : end])
	}
	s, from := dst.slots, i+1
	switch {
	case old == 0:
		s = slices.Insert(roomy(s, 1), i, uint16(off))
	case size == 0:
		s, from = slices.Delete(s, i, i+1), i
	}
	for j := from; j < len(s); j++ {
		s[j] += uint16(size - old)
	}
	dst.slots = s
	binary.LittleEndian.PutUint16(dst.buf[btNCellOff:], uint16(len(s)-1))
	return dst, off
}

// split divides big, the oversize image of pg after an edit, between pg
// (the lower cells) and a new right page; it returns the separator key (in
// the pager's buffer for it, good until the next split) and the new page.
// Half the cells stay, and of an interior page the one behind them moves up
// as the separator; the point shifts only as far as a half of unequal cells
// needs to fit its page. Each half's slot table is its share of big's.
func (t *btree) split(th *proc.Thread, pg, big *cpage) ([]byte, int64, error) {
	n, end, leaf := big.ncells(), big.end(), big.leaf()
	upper := func(h int) int { // first cell of the right page
		if leaf {
			return h
		}
		return h + 1
	}
	h := n / 2
	for end-int(big.slots[upper(h)]) > cellSpace {
		h++
	}
	for int(big.slots[h])-btCellsOff > cellSpace {
		h--
	}
	newNo, newPg := t.pg.allocPage(th)
	sep, lowRight := h-1, newNo
	if !leaf {
		sep, lowRight = h, big.child(h)
	}
	promoted := append(t.pg.sep[:0], big.key(sep)...)
	setHeader(newPg.buf, big.buf[btTypeOff], n-upper(h), big.right())
	up := big.slots[upper(h)]
	copy(newPg.buf[btCellsOff:], big.buf[up:end])
	newPg.slots = append(roomy(newPg.slots, n-upper(h)+1), big.slots[upper(h):]...)
	for j := range newPg.slots {
		newPg.slots[j] -= up - btCellsOff
	}
	lowEnd := int(big.slots[h])
	copy(pg.buf[btCellsOff:lowEnd], big.buf[btCellsOff:])
	clear(pg.buf[lowEnd:])
	setHeader(pg.buf, big.buf[btTypeOff], h, lowRight)
	pg.slots = append(roomy(pg.slots[:0], h+1), big.slots[:h+1]...)
	if err := t.pg.write(th, newNo); err != nil {
		return nil, 0, err
	}
	return promoted, newNo, nil
}

// insert recursively inserts into subtree no; on split it returns the
// promoted separator key and the new right page. A page is journaled
// (pager.write) before its first byte moves.
func (t *btree) insert(th *proc.Thread, no int64, key, val []byte) ([]byte, int64, error) {
	th.CPU(perfmodel.CPUHashLookup)
	pg, err := t.node(th, no)
	if err != nil {
		return nil, 0, err
	}
	i, found := pg.search(key)

	if pg.leaf() {
		old := 0
		if found {
			old = int(pg.slots[i+1] - pg.slots[i])
		}
		if err := t.pg.write(th, no); err != nil {
			return nil, 0, err
		}
		dst, off := t.splice(pg, i, old, leafCellHdr+len(key)+len(val))
		putLeafCell(dst.buf[off:], key, val)
		if dst == pg {
			return nil, 0, nil
		}
		return t.split(th, pg, dst)
	}

	childNo := pg.child(i)
	promoted, newChild, err := t.insert(th, childNo, key, val)
	if err != nil || newChild == 0 {
		return nil, 0, err
	}
	// The child split: {promoted, childNo} goes in before position i, and
	// the pointer that led to childNo now leads to the new child.
	if err := t.pg.write(th, no); err != nil {
		return nil, 0, err
	}
	if i < pg.ncells() {
		binary.LittleEndian.PutUint64(pg.buf[int(pg.slots[i])+2:], uint64(newChild))
	} else {
		binary.LittleEndian.PutUint64(pg.buf[btRightOff:], uint64(newChild))
	}
	dst, off := t.splice(pg, i, 0, interiorCellHdr+len(promoted))
	putInteriorCell(dst.buf[off:], promoted, childNo)
	if dst == pg {
		return nil, 0, nil
	}
	return t.split(th, pg, dst)
}

// Delete removes a key (leaves are not rebalanced; empty leaves remain in
// the chain, as tombstone-free deletion suffices for TPC-C's new_order).
// Its descent has never been charged per level, and the pinned traffic
// fingerprint (tpcc) keeps it so.
func (t *btree) Delete(th *proc.Thread, key []byte) error {
	no, pg, err := t.descend(th, key, 0)
	if err != nil {
		return err
	}
	i, found := pg.search(key)
	if !found {
		return ErrNotFound
	}
	if err := t.pg.write(th, no); err != nil {
		return err
	}
	t.splice(pg, i, int(pg.slots[i+1]-pg.slots[i]), 0)
	return nil
}

// Scan iterates keys >= start in order, calling fn until it returns false.
// key and val are views of the cached page, as Get's value is; fn must not
// modify the tree.
func (t *btree) Scan(th *proc.Thread, start []byte, fn func(key, val []byte) bool) error {
	no, _, err := t.descend(th, start, perfmodel.CPUHashLookup)
	if err != nil {
		return err
	}
	// Walk the leaf chain.
	for no != 0 {
		pg, err := t.node(th, no)
		if err != nil {
			return err
		}
		for i, _ := pg.search(start); i < pg.ncells(); i++ {
			th.CPU(perfmodel.CPUSmallOp)
			if !fn(pg.key(i), pg.val(i)) {
				return nil
			}
		}
		no = pg.right()
	}
	return nil
}
