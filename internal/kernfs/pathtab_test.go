package kernfs

import (
	"fmt"
	"maps"
	"strings"
	"testing"

	"zofs/internal/coffer"
	"zofs/internal/nvm"
)

func newPathTable(t *testing.T) (*nvm.Device, *pathTable) {
	t.Helper()
	dev := nvm.NewDevice(64 << 20)
	sm := newSpaceManager(dev, nvm.PageSize, dev.Pages())
	sm.initTable(nil, 64, true)
	// The bucket heads end the 64 kernel pages, as mkfs lays them out.
	pt := &pathTable{dev: dev, bucketOff: (64 - pathTabBytes()/nvm.PageSize) * nvm.PageSize, sm: sm}
	pt.init(nil)
	return dev, pt
}

func TestPathTableInsertLookupRemove(t *testing.T) {
	_, pt := newPathTable(t)
	if _, err := pt.insert(nil, "/a", 100); err != nil {
		t.Fatal(err)
	}
	if _, err := pt.insert(nil, "/a", 101); err != ErrExists {
		t.Fatalf("dup insert = %v", err)
	}
	if id, ok := pt.lookup(nil, "/a"); !ok || id != 100 {
		t.Fatalf("lookup = %d,%v", id, ok)
	}
	if err := pt.remove(nil, "/a"); err != nil {
		t.Fatal(err)
	}
	if _, ok := pt.lookup(nil, "/a"); ok {
		t.Fatal("removed path still resolves")
	}
	if err := pt.remove(nil, "/a"); err != ErrNotFound {
		t.Fatalf("double remove = %v", err)
	}
}

func TestPathTablePersistsAcrossLoad(t *testing.T) {
	_, pt := newPathTable(t)
	// Enough entries to overflow bucket pages (long paths, many entries).
	long := strings.Repeat("x", 180)
	for i := 0; i < 500; i++ {
		if _, err := pt.insert(nil, fmt.Sprintf("/%s/%04d", long, i), coffer.ID(1000+i)); err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
	}
	// Tombstone some.
	for i := 0; i < 500; i += 3 {
		if err := pt.remove(nil, fmt.Sprintf("/%s/%04d", long, i)); err != nil {
			t.Fatal(err)
		}
	}
	// Rebuild the volatile map purely from the persistent structure.
	pt2 := &pathTable{dev: pt.dev, bucketOff: pt.bucketOff, sm: pt.sm}
	if err := pt2.load(nil); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 500; i++ {
		p := fmt.Sprintf("/%s/%04d", long, i)
		id, ok := pt2.lookup(nil, p)
		if i%3 == 0 {
			if ok {
				t.Fatalf("tombstoned %s resolves after reload", p)
			}
		} else if !ok || id != coffer.ID(1000+i) {
			t.Fatalf("%s lost across reload: %d,%v", p, id, ok)
		}
	}
}

func TestPathTableRename(t *testing.T) {
	_, pt := newPathTable(t)
	pt.insert(nil, "/old", 7)
	if _, err := pt.rename(nil, "/old", "/new", 7); err != nil {
		t.Fatal(err)
	}
	if _, ok := pt.lookup(nil, "/old"); ok {
		t.Fatal("old survives rename")
	}
	if id, ok := pt.lookup(nil, "/new"); !ok || id != 7 {
		t.Fatal("new missing after rename")
	}
	// Rename onto existing fails and preserves the source.
	pt.insert(nil, "/other", 8)
	if _, err := pt.rename(nil, "/new", "/other", 7); err == nil {
		t.Fatal("rename onto existing succeeded")
	}
	if id, ok := pt.lookup(nil, "/new"); !ok || id != 7 {
		t.Fatal("source lost after failed rename")
	}
}

// collidingPaths returns n paths, each a little over size bytes long, that
// hash to one bucket.
func collidingPaths(n, size int) []string {
	pad := "/" + strings.Repeat("p", size)
	byBucket := map[uint64][]int{}
	for i := 0; ; i++ {
		b := pathHash(fmt.Sprint(pad, i)) % pathBuckets
		byBucket[b] = append(byBucket[b], i)
		if len(byBucket[b]) == n {
			paths := make([]string, n)
			for j, i := range byBucket[b] {
				paths[j] = fmt.Sprint(pad, i)
			}
			return paths
		}
	}
}

// pathLoc is one mirror entry: its coffer and where its entry lies.
type pathLoc struct {
	id coffer.ID
	at int64
}

// mirrorLocs copies the mirror out with entry locations.
func mirrorLocs(pt *pathTable) map[string]pathLoc {
	m := map[string]pathLoc{}
	pt.each(func(p string, id coffer.ID) bool {
		m[p] = pathLoc{id, pt.entry(p).at}
		return true
	})
	return m
}

// TestPathTableRemoveAgainstMedia removes entries from the head, a middle and
// the tail page of one bucket's chain, empties a middle page, the head page
// and the tail page, and inserts into the emptied head. After every step the
// mirror must pass verify, and a fresh load of the device must rebuild it
// with the same entry locations and the same live count per chained page.
// (It fails if remove tombstones the wrong byte.)
func TestPathTableRemoveAgainstMedia(t *testing.T) {
	_, pt := newPathTable(t)
	// Three ~1 KiB entries fill a page: four pages, newest at the head.
	paths := collidingPaths(13, 1000)
	for i, p := range paths[:12] {
		if _, err := pt.insert(nil, p, coffer.ID(100+i)); err != nil {
			t.Fatal(err)
		}
	}
	pageOf := func(i int) int64 { return pt.entry(paths[i]).at / nvm.PageSize }
	head, mid, tail := pageOf(9), pageOf(3), pageOf(0)
	if len(pt.live) != 4 || pageOf(11) != head || pageOf(5) != mid || pageOf(2) != tail {
		t.Fatalf("chain pages %v, want four of three entries each", pt.live)
	}
	check := func(step string) {
		t.Helper()
		if err := pt.verify(); err != nil {
			t.Fatalf("%s: %v", step, err)
		}
		fresh := &pathTable{dev: pt.dev, bucketOff: pt.bucketOff, sm: pt.sm}
		if err := fresh.load(nil); err != nil {
			t.Fatalf("%s: load: %v", step, err)
		}
		if got, want := mirrorLocs(fresh), mirrorLocs(pt); !maps.Equal(got, want) {
			t.Fatalf("%s: a fresh load finds %d entries, the mirror holds %d, or at other places", step, len(got), len(want))
		}
		if !maps.Equal(fresh.live, pt.live) {
			t.Fatalf("%s: a fresh load counts %v live entries per page, the mirror %v", step, fresh.live, pt.live)
		}
	}
	check("insert")
	owned := func(pg int64) bool { return pt.sm.peekOwner(coffer.KernelID).Contains(pg, 1) }
	for _, step := range []struct {
		name   string
		remove []int
	}{
		{"from the head page", []int{10}},
		{"from a middle page", []int{4}},
		{"from the tail page", []int{0}},
		{"emptying a middle page", []int{3, 5}},
		{"emptying the head page", []int{9, 11}},
		{"emptying the tail page", []int{1, 2}},
	} {
		for _, i := range step.remove {
			if err := pt.remove(nil, paths[i]); err != nil {
				t.Fatalf("%s: remove %d: %v", step.name, i, err)
			}
		}
		check(step.name)
	}
	if _, chained := pt.live[mid]; chained || owned(mid) {
		t.Fatal("the emptied middle page is still chained or the kernel's")
	}
	if _, chained := pt.live[tail]; chained || owned(tail) {
		t.Fatal("the emptied tail page is still chained or the kernel's")
	}
	if n, chained := pt.live[head]; !chained || n != 0 {
		t.Fatalf("the emptied head page: chained %v, %d live", chained, n)
	}
	if _, err := pt.insert(nil, paths[12], 200); err != nil {
		t.Fatal(err)
	}
	if at := pt.entry(paths[12]).at; at != head*nvm.PageSize+entryPageHdr {
		t.Fatalf("an insert after the head page emptied landed at %d, not at its start", at)
	}
	check("insert into the emptied head page")
}
