package zofs

import (
	"flag"
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the testdata goldens")

// TestDirSlotChoicePinned pins which dentry slot every insert takes: a
// seeded history of creates, unlinks and renames in one directory (with an
// epoch bump, and an rmdir/mkdir that recycles the directory's inode page)
// records each new name's (page, offset) and compares the list with
// testdata/slotchoice.golden. The slot a name lands in decides every later
// page allocation, so a free list that pops another slot than before moves
// simulated numbers. At the end the incrementally kept free lists must
// equal, key by key as multisets, what a rebuild from NVM finds, and the
// rebuild must reuse the blocks its reset handed back.
//
// Refresh with `go test ./internal/zofs -run TestDirSlotChoicePinned -update`.
func TestDirSlotChoicePinned(t *testing.T) {
	_, _, f, th := newTestFS(t, Options{})
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	// The pool: plain names spread over the first-level slots, names that
	// share first-level slot 7 (its inline area overflows into chains), and
	// names that share slot 7's bucket 3 (its chain grows past one page).
	var pool []string
	for i := 0; i < 400; i++ {
		pool = append(pool, fmt.Sprintf("f%03d", i))
	}
	shared, bucket := 0, 0
	for i := 0; shared < 60 || bucket < 48; i++ {
		name := fmt.Sprintf("c%07d", i)
		h := nameHash(name)
		if l1Index(h) != 7 {
			continue
		}
		if l2Bucket(h) == 3 && bucket < 48 {
			bucket++
			pool = append(pool, name)
		} else if l2Bucket(h) != 3 && shared < 60 {
			shared++
			pool = append(pool, name)
		}
	}

	must(f.Mkdir(th, "/d", 0o755))
	dirIno := func() int64 {
		fi, err := f.Stat(th, "/d")
		must(err)
		return fi.Inode
	}
	// Pages are numbered in order of first appearance: which shard of the
	// allocator serves the thread depends on how many threads the process
	// made before.
	var golden strings.Builder
	live, pages := map[string]bool{}, map[int64]int{}
	record := func(op int, how, name string) {
		pos, err := f.walk(th, "/d", true, false)
		must(err)
		_, loc, err := f.dirLookup(th, pos.ino, name)
		pos.close()
		must(err)
		if _, ok := pages[loc.page]; !ok {
			pages[loc.page] = len(pages)
		}
		fmt.Fprintf(&golden, "%d %s %s p%d:%d\n", op, how, name, pages[loc.page], loc.off)
	}
	r := rand.New(rand.NewPCG(56, 1))
	const ops = 2000
	firstIno := dirIno()
	for op := 0; op < ops; op++ {
		switch op {
		case 700:
			f.sh.dc.bump() // every index is stale; the next lookup rebuilds
		case 1300:
			// Empty the directory, remove it and make it again: the inode
			// page comes back off the free list, indexed afresh.
			for _, name := range pool {
				if live[name] {
					must(f.Unlink(th, "/d/"+name))
					delete(live, name)
				}
			}
			must(f.Rmdir(th, "/d"))
			must(f.Mkdir(th, "/d", 0o755))
			if got := dirIno(); got != firstIno {
				t.Fatalf("mkdir after rmdir took inode page %d, not the recycled %d", got, firstIno)
			}
		}
		name := pool[r.IntN(len(pool))]
		switch k := r.IntN(10); {
		case !live[name] && k < 7:
			h, err := f.Create(th, "/d/"+name, 0o644)
			must(err)
			must(h.Close(th))
			live[name] = true
			record(op, "create", name)
		case !live[name]:
		case k < 5:
			must(f.Unlink(th, "/d/"+name))
			delete(live, name)
		case k < 7:
			to := pool[r.IntN(len(pool))]
			if live[to] {
				continue
			}
			must(f.Rename(th, "/d/"+name, "/d/"+to))
			delete(live, name)
			live[to] = true
			record(op, "rename", to)
		}
	}

	path := filepath.Join("testdata", "slotchoice.golden")
	if *update {
		must(os.MkdirAll("testdata", 0o755))
		must(os.WriteFile(path, []byte(golden.String()), 0o644))
	}
	want, err := os.ReadFile(path)
	must(err)
	if got := golden.String(); got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < min(len(gl), len(wl)); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("slot choice differs from %s at line %d:\n got %s\nwant %s", path, i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("slot choice: %d lines, %s has %d", len(gl), path, len(wl))
	}

	pos, err := f.walk(th, "/d", true, false)
	must(err)
	defer pos.close()
	idx := f.sh.dir(pos.ino)
	idx.mu.Lock()
	defer idx.mu.Unlock()
	if !idx.authoritative(f.sh.dc.epoch.Load()) {
		t.Fatal("the index is not authoritative after the history")
	}
	kept, carved := freeSlots(idx), idx.blocks.Carved()
	f.dcacheRebuild(th, idx, pos.ino)
	built := freeSlots(idx)
	if idx.blocks.Carved() != carved {
		t.Fatalf("the rebuild carved %d slot blocks: the reset did not hand them back", idx.blocks.Carved()-carved)
	}
	if len(kept) != len(built) {
		t.Fatalf("%d free-list keys kept, %d after a rebuild", len(kept), len(built))
	}
	for k, locs := range built {
		if !slices.Equal(kept[k], locs) {
			t.Fatalf("free list %#x: kept %v, rebuilt %v", k, kept[k], locs)
		}
	}
}

// freeSlots copies an index's non-empty free lists, each sorted by location.
func freeSlots(idx *dirIndex) map[int64][]deLoc {
	out := map[int64][]deLoc{}
	for k, top := range idx.free {
		var s []deLoc
		for b := top; b != nil; b = b.next {
			s = append(s, b.locs[:b.n]...)
		}
		if len(s) == 0 {
			continue
		}
		slices.SortFunc(s, func(a, b deLoc) int {
			if a.page != b.page {
				return int(a.page - b.page)
			}
			return int(a.off - b.off)
		})
		out[k] = s
	}
	return out
}
