package sqldb

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"zofs/internal/proc"
	"zofs/internal/sysfactory"
	"zofs/internal/vfs"
)

// fuzzKey maps a key number to a key of 0..MaxKeyLen bytes: five digits that
// order the keys unlike their numbers, and after them, for odd numbers, up to
// MaxKeyLen-5 letters. Distinct numbers give distinct keys.
func fuzzKey(id int) string {
	if id == 0 {
		return ""
	}
	return fmt.Sprintf("%05d", id*7919%100000) + string(bytes.Repeat([]byte{'a' + byte(id%26)}, id%2*(id*89%(MaxKeyLen-4))))
}

type fuzzRow struct {
	k string
	v []byte
}

// differ applies one op stream to the engine (a pager on a real file system)
// and to the reference, comparing after every op.
type differ struct {
	t     testing.TB
	th    *proc.Thread
	fs    vfs.FileSystem
	p     *pager
	tree  *btree
	ref   *refPager
	rtree *refTree
	// Both roots when the open transaction began: a rollback returns to them.
	root, rroot int64
}

func (d *differ) must(err error) {
	d.t.Helper()
	if err != nil {
		d.t.Fatal(err)
	}
}

// journalNos reads the page numbers of the journal records written so far.
func (d *differ) journalNos() []int64 {
	j, err := d.fs.Open(d.th, d.p.jpath, vfs.O_RDONLY)
	d.must(err)
	defer j.Close(d.th)
	fi, err := j.Stat(d.th)
	d.must(err)
	var nos []int64
	var no [8]byte
	for off := int64(16); off+8+PageSize <= fi.Size; off += 8 + PageSize {
		_, err := j.ReadAt(d.th, no[:], off)
		d.must(err)
		nos = append(nos, int64(binary.LittleEndian.Uint64(no[:])))
	}
	return nos
}

// samePage: page no holds the same bytes on both sides (read through the
// cache, so from the file where the cache does not hold it).
func (d *differ) samePage(when string, no int64) {
	d.t.Helper()
	pg, err := d.p.page(d.th, no)
	d.must(err)
	if !bytes.Equal(pg.buf, d.ref.pages[no]) {
		i := 0
		for pg.buf[i] == d.ref.pages[no][i] {
			i++
		}
		d.t.Fatalf("%s: page %d differs from the reference at byte %d", when, no, i)
	}
}

// samePages: the same number of pages, and the same bytes in every page
// either side has touched in the open transaction — in every page of the
// file when all is set, as at a transaction's end.
func (d *differ) samePages(when string, all bool) {
	d.t.Helper()
	if len(d.p.pages) != len(d.ref.pages) {
		d.t.Fatalf("%s: %d pages, reference %d", when, len(d.p.pages), len(d.ref.pages))
	}
	if all {
		for no := int64(1); no < int64(len(d.ref.pages)); no++ {
			d.samePage(when, no)
		}
		return
	}
	for _, no := range d.p.dirty {
		d.samePage(when, no)
	}
	for _, no := range d.ref.journaled() {
		d.samePage(when, no)
	}
}

func (d *differ) sameJournal(when string) {
	d.t.Helper()
	if got, want := d.journalNos(), d.ref.journaled(); !slices.Equal(got, want) {
		d.t.Fatalf("%s: journal holds pages %v, reference %v", when, got, want)
	}
}

func (d *differ) begin() {
	d.must(d.p.begin(d.th))
	d.root, d.rroot = d.tree.root, d.rtree.root
}

// runDifferential decodes data into ops — five bytes each: opcode, key
// number (u16) and value length (u16; the low byte also fills the value) —
// and returns what the stream made the tree do.
func runDifferential(t testing.TB, data []byte) refStats {
	in, err := sysfactory.ZoFS.New(256<<20, false)
	if err != nil {
		t.Fatal(err)
	}
	d := &differ{t: t, th: in.Proc.NewThread(), fs: in.FS, ref: &refPager{pages: make([][]byte, 1)}}
	d.p, err = openPager(d.fs, d.th, "/fuzz.db")
	d.must(err)
	d.must(d.p.begin(d.th))
	d.tree, err = newBtree(d.th, d.p)
	d.must(err)
	var stats refStats
	d.rtree = newRefTree(d.ref, &stats)
	d.root, d.rroot = d.tree.root, d.rtree.root

	for n := 0; len(data) >= 5; n, data = n+1, data[5:] {
		op, id, vlen := data[0]%16, int(binary.LittleEndian.Uint16(data[1:]))%512, int(binary.LittleEndian.Uint16(data[3:]))
		key, when := fuzzKey(id), fmt.Sprintf("op %d (%d key %d len %d)", n, op, id, vlen)
		switch {
		case op < 10: // put: new, or replacing with another length
			val := bytes.Repeat([]byte{data[3]}, vlen%(MaxValLen+1))
			d.must(d.tree.Put(d.th, []byte(key), val))
			d.rtree.Put(key, val)
		case op == 10, op == 11:
			err, rerr := d.tree.Delete(d.th, []byte(key)), d.rtree.Delete(key)
			if !errors.Is(err, rerr) {
				t.Fatalf("%s: Delete = %v, reference %v", when, err, rerr)
			}
		case op == 12:
			v, err := d.tree.Get(d.th, []byte(key)) // a view: compared before the next write
			rv, rerr := d.rtree.Get(key)
			if !errors.Is(err, rerr) || !bytes.Equal(v, rv) {
				t.Fatalf("%s: Get = %d bytes, %v; reference %d bytes, %v", when, len(v), err, len(rv), rerr)
			}
		case op == 13:
			var rows, rrows []fuzzRow
			limit := 1 + vlen%64
			d.must(d.tree.Scan(d.th, []byte(key), func(k, v []byte) bool {
				rows = append(rows, fuzzRow{string(k), slices.Clone(v)})
				return len(rows) < limit
			}))
			d.rtree.Scan(key, func(k string, v []byte) bool {
				rrows = append(rrows, fuzzRow{k, v})
				return len(rrows) < limit
			})
			if !slices.EqualFunc(rows, rrows, func(a, b fuzzRow) bool { return a.k == b.k && bytes.Equal(a.v, b.v) }) {
				t.Fatalf("%s: Scan saw %d rows, reference %d, or other rows", when, len(rows), len(rrows))
			}
		case op == 14:
			d.sameJournal(when)
			d.must(d.p.commit(d.th))
			d.ref.commit()
			d.begin()
		case op == 15:
			d.sameJournal(when)
			d.must(d.p.rollback(d.th))
			d.ref.rollback()
			d.tree.root, d.rtree.root = d.root, d.rroot
			d.begin()
		}
		d.samePages(when, op >= 14)
		if err := d.p.slotsInStep(); err != nil {
			t.Fatalf("%s: %v", when, err)
		}
	}
	d.sameJournal("end")
	d.samePages("end", true)
	d.must(d.p.commit(d.th))
	d.must(d.p.close(d.th))
	// What a fresh pager reads back is what the reference holds.
	d.p, err = openPager(d.fs, d.th, "/fuzz.db")
	d.must(err)
	d.samePages("reopened", true)
	d.must(d.p.close(d.th))
	return stats
}

// fuzzSeeds are the committed corpus: random streams long enough to split
// leaves, interior pages and roots, and two that overfill a leaf of a hundred
// tiny rows with three of MaxValLen below them, or above: a split into equal
// cell counts would then leave one page too full.
func fuzzSeeds() [][]byte {
	var seeds [][]byte
	for s := int64(1); s <= 3; s++ {
		data := make([]byte, 5*2500)
		rand.New(rand.NewSource(s)).Read(data)
		seeds = append(seeds, data)
	}
	var short []int // the numbers of 5-byte keys, in key order
	for id := 2; id < 512; id += 2 {
		short = append(short, id)
	}
	slices.SortFunc(short, func(a, b int) int { return cmp.Compare(fuzzKey(a), fuzzKey(b)) })
	puts := func(ids []int, vlen int) (ops []byte) {
		for _, id := range ids {
			ops = binary.LittleEndian.AppendUint16(append(ops, 0), uint16(id))
			ops = binary.LittleEndian.AppendUint16(ops, uint16(vlen))
		}
		return ops
	}
	heavyLow := append(puts(short[3:103], 2), puts(short[:3], MaxValLen)...)
	heavyHigh := append(puts(short[:100], 2), puts(short[100:103], MaxValLen)...)
	return append(seeds, heavyLow, heavyHigh)
}

// FuzzBtreePage: any op stream leaves the engine's pages byte-identical to
// the decode-edit-encode reference's, the same number of them, and the same
// page numbers journaled in the same order; and every cached page's slot
// table what indexing its image gives.
func FuzzBtreePage(f *testing.F) {
	for _, s := range fuzzSeeds() {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) { runDifferential(t, data) })
}

// TestBtreeDifferentialSeeds: the seed corpus reaches every kind of split,
// so FuzzBtreePage's unit run compares them.
func TestBtreeDifferentialSeeds(t *testing.T) {
	var sum refStats
	for _, s := range fuzzSeeds() {
		st := runDifferential(t, s)
		sum.leafSplits += st.leafSplits
		sum.interiorSplits += st.interiorSplits
		sum.rootSplits += st.rootSplits
		sum.movedUp += st.movedUp
		sum.movedDown += st.movedDown
	}
	t.Logf("%+v", sum)
	if sum.leafSplits == 0 || sum.interiorSplits == 0 || sum.rootSplits < 2 || sum.movedUp == 0 || sum.movedDown == 0 {
		t.Fatalf("seed corpus splits %+v: want leaf, interior, two root levels and a split point moved each way", sum)
	}
}
