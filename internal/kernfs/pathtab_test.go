package kernfs

import (
	"fmt"
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
	pt := &pathTable{dev: dev, bucketOff: 40 * nvm.PageSize, sm: sm}
	pt.init(nil)
	return dev, pt
}

func TestPathTableInsertLookupRemove(t *testing.T) {
	_, pt := newPathTable(t)
	if err := pt.insert(nil, "/a", 100); err != nil {
		t.Fatal(err)
	}
	if err := pt.insert(nil, "/a", 101); err != ErrExists {
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
		if err := pt.insert(nil, fmt.Sprintf("/%s/%04d", long, i), coffer.ID(1000+i)); err != nil {
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
	if err := pt.rename(nil, "/old", "/new", 7); err != nil {
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
	if err := pt.rename(nil, "/new", "/other", 7); err == nil {
		t.Fatal("rename onto existing succeeded")
	}
	if id, ok := pt.lookup(nil, "/new"); !ok || id != 7 {
		t.Fatal("source lost after failed rename")
	}
}
