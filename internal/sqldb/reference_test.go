package sqldb

import (
	"encoding/binary"
	"slices"
)

// The reference B-tree: every operation decodes a page into a cell list,
// edits the list and encodes it back into a zeroed page — how the engine
// worked before it searched and edited the page image in place. It lives in
// the test binary only, over a pager that is a slice of page images, and
// FuzzBtreePage holds the engine to it byte for byte.

type cell struct {
	key   string
	val   []byte // leaf payload
	child int64  // interior child
}

// decodePage parses a B-tree page into memory.
func decodePage(pg []byte) (typ byte, right int64, cells []cell) {
	typ = pg[btTypeOff]
	n := int(binary.LittleEndian.Uint16(pg[btNCellOff:]))
	right = int64(binary.LittleEndian.Uint64(pg[btRightOff:]))
	off := btCellsOff
	cells = make([]cell, 0, n)
	for i := 0; i < n; i++ {
		klen := int(binary.LittleEndian.Uint16(pg[off:]))
		if typ == pgLeaf {
			vlen := int(binary.LittleEndian.Uint16(pg[off+2:]))
			key := string(pg[off+4 : off+4+klen])
			val := append([]byte(nil), pg[off+4+klen:off+4+klen+vlen]...)
			cells = append(cells, cell{key: key, val: val})
			off += 4 + klen + vlen
		} else {
			child := int64(binary.LittleEndian.Uint64(pg[off+2:]))
			key := string(pg[off+10 : off+10+klen])
			cells = append(cells, cell{key: key, child: child})
			off += 10 + klen
		}
	}
	return typ, right, cells
}

// encodedSize computes the byte size of a page holding the cells.
func encodedSize(typ byte, cells []cell) int {
	sz := btCellsOff
	for _, c := range cells {
		if typ == pgLeaf {
			sz += 4 + len(c.key) + len(c.val)
		} else {
			sz += 10 + len(c.key)
		}
	}
	return sz
}

// encodePage serializes cells into pg; returns false if they do not fit.
func encodePage(pg []byte, typ byte, right int64, cells []cell) bool {
	if encodedSize(typ, cells) > PageSize {
		return false
	}
	clear(pg)
	pg[btTypeOff] = typ
	binary.LittleEndian.PutUint16(pg[btNCellOff:], uint16(len(cells)))
	binary.LittleEndian.PutUint64(pg[btRightOff:], uint64(right))
	off := btCellsOff
	for _, c := range cells {
		binary.LittleEndian.PutUint16(pg[off:], uint16(len(c.key)))
		if typ == pgLeaf {
			binary.LittleEndian.PutUint16(pg[off+2:], uint16(len(c.val)))
			copy(pg[off+4:], c.key)
			copy(pg[off+4+len(c.key):], c.val)
			off += 4 + len(c.key) + len(c.val)
		} else {
			binary.LittleEndian.PutUint64(pg[off+2:], uint64(c.child))
			copy(pg[off+10:], c.key)
			off += 10 + len(c.key)
		}
	}
	return true
}

// mustEncode is encodePage for cell lists that were sized to fit.
func mustEncode(pg []byte, typ byte, right int64, cells []cell) {
	if !encodePage(pg, typ, right, cells) {
		panic("reference: split half does not fit its page")
	}
}

// refJournalRec is one rollback-journal record: a page's image when it was
// first written in the transaction.
type refJournalRec struct {
	no  int64
	img []byte
}

// refPager is the database file as page images, with the journal the
// transaction has written so far.
type refPager struct {
	pages   [][]byte
	journal []refJournalRec
}

func (p *refPager) allocPage() (int64, []byte) {
	pg := make([]byte, PageSize)
	p.pages = append(p.pages, pg)
	return int64(len(p.pages) - 1), pg
}

func (p *refPager) write(no int64) {
	if !slices.ContainsFunc(p.journal, func(r refJournalRec) bool { return r.no == no }) {
		p.journal = append(p.journal, refJournalRec{no, slices.Clone(p.pages[no])})
	}
}

func (p *refPager) commit() { p.journal = nil }

// rollback restores the journaled images; pages the transaction appended
// stay in the file, holding what the journal recorded of them.
func (p *refPager) rollback() {
	for _, r := range p.journal {
		p.pages[r.no] = r.img
	}
	p.journal = nil
}

func (p *refPager) journaled() []int64 {
	nos := make([]int64, len(p.journal))
	for i, r := range p.journal {
		nos[i] = r.no
	}
	return nos
}

// refStats counts what the op stream made the tree do.
type refStats struct {
	leafSplits, interiorSplits, rootSplits int
	movedUp, movedDown                     int // splits whose point left the middle
}

type refTree struct {
	p     *refPager
	root  int64
	stats *refStats
}

func newRefTree(p *refPager, stats *refStats) *refTree {
	no, pg := p.allocPage()
	mustEncode(pg, pgLeaf, 0, nil)
	p.write(no)
	return &refTree{p: p, root: no, stats: stats}
}

func refSearch(cells []cell, k string) int {
	lo, hi := 0, len(cells)
	for lo < hi {
		mid := (lo + hi) / 2
		if cells[mid].key < k {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// splitPoint is how many cells of an overfull list stay in the left page:
// half, moved only as far as unequal cells need for both pages to fit (of an
// interior list, cell h itself moves up).
func (t *refTree) splitPoint(typ byte, cells []cell) int {
	h := len(cells) / 2
	up := func(h int) []cell {
		if typ == pgLeaf {
			return cells[h:]
		}
		return cells[h+1:]
	}
	if encodedSize(typ, up(h)) > PageSize {
		t.stats.movedUp++
	} else if encodedSize(typ, cells[:h]) > PageSize {
		t.stats.movedDown++
	}
	for encodedSize(typ, up(h)) > PageSize {
		h++
	}
	for encodedSize(typ, cells[:h]) > PageSize {
		h--
	}
	return h
}

func (t *refTree) leafOf(key string) (int64, []byte) {
	no := t.root
	for {
		pg := t.p.pages[no]
		typ, right, cells := decodePage(pg)
		if typ == pgLeaf {
			return no, pg
		}
		if i := refSearch(cells, key); i < len(cells) {
			no = cells[i].child
		} else {
			no = right
		}
	}
}

func (t *refTree) Get(key string) ([]byte, error) {
	_, pg := t.leafOf(key)
	_, _, cells := decodePage(pg)
	if i := refSearch(cells, key); i < len(cells) && cells[i].key == key {
		return cells[i].val, nil
	}
	return nil, ErrNotFound
}

func (t *refTree) Put(key string, val []byte) {
	promoted, newPage := t.insert(t.root, key, val)
	if newPage != 0 {
		t.stats.rootSplits++
		rootNo, rootPg := t.p.allocPage()
		mustEncode(rootPg, pgInterior, newPage, []cell{{key: promoted, child: t.root}})
		t.p.write(rootNo)
		t.root = rootNo
	}
}

func (t *refTree) insert(no int64, key string, val []byte) (string, int64) {
	pg := t.p.pages[no]
	typ, right, cells := decodePage(pg)
	i := refSearch(cells, key)

	if typ == pgLeaf {
		if i < len(cells) && cells[i].key == key {
			cells[i].val = val
		} else {
			cells = slices.Insert(cells, i, cell{key: key, val: val})
		}
		t.p.write(no)
		if encodePage(pg, pgLeaf, right, cells) {
			return "", 0
		}
		t.stats.leafSplits++
		h := t.splitPoint(pgLeaf, cells)
		newNo, newPg := t.p.allocPage()
		mustEncode(newPg, pgLeaf, right, cells[h:])
		mustEncode(pg, pgLeaf, newNo, cells[:h])
		t.p.write(newNo)
		return cells[h-1].key, newNo
	}

	childNo := right
	if i < len(cells) {
		childNo = cells[i].child
	}
	promoted, newChild := t.insert(childNo, key, val)
	if newChild == 0 {
		return "", 0
	}
	t.p.write(no)
	if i < len(cells) {
		cells = slices.Insert(cells, i, cell{key: promoted, child: childNo})
		cells[i+1].child = newChild
	} else {
		cells = append(cells, cell{key: promoted, child: childNo})
		right = newChild
	}
	if encodePage(pg, pgInterior, right, cells) {
		return "", 0
	}
	t.stats.interiorSplits++
	h := t.splitPoint(pgInterior, cells)
	median := cells[h]
	newNo, newPg := t.p.allocPage()
	mustEncode(newPg, pgInterior, right, cells[h+1:])
	mustEncode(pg, pgInterior, median.child, cells[:h])
	t.p.write(newNo)
	return median.key, newNo
}

func (t *refTree) Delete(key string) error {
	no, pg := t.leafOf(key)
	_, right, cells := decodePage(pg)
	i := refSearch(cells, key)
	if i >= len(cells) || cells[i].key != key {
		return ErrNotFound
	}
	t.p.write(no)
	mustEncode(pg, pgLeaf, right, slices.Delete(cells, i, i+1))
	return nil
}

func (t *refTree) Scan(start string, fn func(key string, val []byte) bool) {
	for no, _ := t.leafOf(start); no != 0; {
		_, right, cells := decodePage(t.p.pages[no])
		for _, c := range cells[refSearch(cells, start):] {
			if !fn(c.key, c.val) {
				return
			}
		}
		no = right
	}
}
