package zofs

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"testing"

	"zofs/internal/kernfs"
	"zofs/internal/nvm"
	"zofs/internal/proc"
	"zofs/internal/vfs"
)

// TestDcacheBasicCoherence drives every dentry mutation through the public
// operations and checks the cached lookups stay exact: insert, unlink,
// rename within a directory, rename across directories.
func TestDcacheBasicCoherence(t *testing.T) {
	_, _, f, th := newTestFS(t, Options{})
	for _, d := range []string{"/a", "/b"} {
		if err := f.Mkdir(th, d, 0o755); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := f.Create(th, "/a/one", 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Stat(th, "/a/one"); err != nil {
		t.Fatalf("cached lookup after create: %v", err)
	}
	if err := f.Rename(th, "/a/one", "/a/two"); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Stat(th, "/a/one"); !errors.Is(err, vfs.ErrNotExist) {
		t.Fatalf("old name survived rename: %v", err)
	}
	if _, err := f.Stat(th, "/a/two"); err != nil {
		t.Fatalf("new name after rename: %v", err)
	}
	if err := f.Rename(th, "/a/two", "/b/three"); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Stat(th, "/a/two"); !errors.Is(err, vfs.ErrNotExist) {
		t.Fatalf("source dir still lists moved file: %v", err)
	}
	if _, err := f.Stat(th, "/b/three"); err != nil {
		t.Fatalf("cross-dir rename target: %v", err)
	}
	if err := f.Unlink(th, "/b/three"); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Stat(th, "/b/three"); !errors.Is(err, vfs.ErrNotExist) {
		t.Fatalf("unlinked name still resolves: %v", err)
	}
}

// TestDcacheNegativeEntries: a miss is answered from index completeness, and
// a subsequent insert of that very name must invalidate the negative answer
// immediately.
func TestDcacheNegativeEntries(t *testing.T) {
	_, _, f, th := newTestFS(t, Options{})
	if err := f.Mkdir(th, "/d", 0o755); err != nil {
		t.Fatal(err)
	}
	// Prime the index with some content, then miss.
	for i := 0; i < 40; i++ {
		if _, err := f.Create(th, fmt.Sprintf("/d/f%d", i), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := f.Stat(th, "/d/ghost"); !errors.Is(err, vfs.ErrNotExist) {
		t.Fatalf("expected miss, got %v", err)
	}
	if _, err := f.Create(th, "/d/ghost", 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Stat(th, "/d/ghost"); err != nil {
		t.Fatalf("negative entry masked a fresh create: %v", err)
	}
	// And the reverse: a positive answer must die with the dentry.
	if err := f.Unlink(th, "/d/ghost"); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Stat(th, "/d/ghost"); !errors.Is(err, vfs.ErrNotExist) {
		t.Fatalf("stale positive after unlink: %v", err)
	}
}

// TestDcacheLookupMatchesScan cross-checks the cached lookup — answer and
// NVM location — against a full scan of the on-NVM structure (dirWalk, the
// reference) over a directory large enough to spill into bucket chains.
func TestDcacheLookupMatchesScan(t *testing.T) {
	_, _, f, th := newTestFS(t, Options{})
	if err := f.Mkdir(th, "/big", 0o755); err != nil {
		t.Fatal(err)
	}
	const n = 600
	for i := 0; i < n; i++ {
		if _, err := f.Create(th, fmt.Sprintf("/big/file-%04d", i), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	// Remove a third to exercise free-list reuse, then re-create half of
	// those under the same names.
	for i := 0; i < n; i += 3 {
		if err := f.Unlink(th, fmt.Sprintf("/big/file-%04d", i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i += 6 {
		if _, err := f.Create(th, fmt.Sprintf("/big/file-%04d", i), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	pos, err := f.walk(th, "/big", false, false)
	if err != nil {
		t.Fatal(err)
	}
	defer pos.close()
	type found struct {
		de  dentry
		loc deLoc
	}
	scan := map[string]found{}
	dirWalk(th, pos.ino, nil, func(d dentry, loc deLoc, _ int64) bool {
		if d.visible() {
			scan[d.name] = found{d, loc}
		}
		return true
	})
	if len(scan) != n-n/3+n/6 {
		t.Fatalf("scan found %d names, want %d", len(scan), n-n/3+n/6)
	}
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("file-%04d", i)
		cd, cloc, cerr := f.dirLookup(th, pos.ino, name)
		s, ok := scan[name]
		if (cerr == nil) != ok {
			t.Fatalf("%s: cached err=%v, scan found=%v", name, cerr, ok)
		}
		if ok && (cd != s.de || cloc != s.loc) {
			t.Fatalf("%s: cached (%+v,%+v) != scan (%+v,%+v)", name, cd, cloc, s.de, s.loc)
		}
	}
}

// TestDcacheConcurrency races cached lookups against creates, unlinks and
// renames from several threads (run under -race by scripts/check.sh). The
// stable set must always resolve; churn names may come and go but must
// never return a wrong answer shape (panic, corruption error).
func TestDcacheConcurrency(t *testing.T) {
	_, _, f, th := newTestFS(t, Options{})
	if err := f.Mkdir(th, "/c", 0o755); err != nil {
		t.Fatal(err)
	}
	const stable = 50
	for i := 0; i < stable; i++ {
		if _, err := f.Create(th, fmt.Sprintf("/c/stable-%02d", i), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	errc := make(chan error, 16)
	// Threads of the FS's own process share its coffer mappings.
	newThread := func() *proc.Thread { return th.Proc.NewThread() }
	// Mutators: create/unlink/rename private name ranges.
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			tth := newThread()
			for i := 0; i < 120; i++ {
				name := fmt.Sprintf("/c/churn-%d-%02d", w, i%10)
				if _, err := f.Create(tth, name, 0o644); err != nil {
					errc <- fmt.Errorf("create %s: %w", name, err)
					return
				}
				if i%3 == 0 {
					moved := fmt.Sprintf("/c/moved-%d-%02d", w, i%10)
					if err := f.Rename(tth, name, moved); err != nil {
						errc <- fmt.Errorf("rename %s: %w", name, err)
						return
					}
					name = moved
				}
				if err := f.Unlink(tth, name); err != nil {
					errc <- fmt.Errorf("unlink %s: %w", name, err)
					return
				}
			}
		}(w)
	}
	// Readers: the stable set must always be there; churn names must
	// either resolve or miss cleanly.
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			tth := newThread()
			for i := 0; i < 300; i++ {
				if _, err := f.Stat(tth, fmt.Sprintf("/c/stable-%02d", i%stable)); err != nil {
					errc <- fmt.Errorf("stable lookup: %w", err)
					return
				}
				churn := fmt.Sprintf("/c/churn-%d-%02d", i%2, i%10)
				if _, err := f.Stat(tth, churn); err != nil && !errors.Is(err, vfs.ErrNotExist) {
					errc <- fmt.Errorf("churn lookup %s: %w", churn, err)
					return
				}
			}
		}(r)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
}

// TestDcacheColdAfterCrash: a post-crash remount must never serve a
// pre-crash cached dentry — DropVolatile (the crash analogue) drops the
// whole cache, and recovery bumps the epoch for survivors.
func TestDcacheColdAfterCrash(t *testing.T) {
	dev, _, f, th := newTestFS(t, Options{})
	if err := f.Mkdir(th, "/d", 0o755); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if _, err := f.Create(th, fmt.Sprintf("/d/f%d", i), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := f.Stat(th, "/d/f0"); err != nil { // warm the index
		t.Fatal(err)
	}
	if got := DirCacheDirs(dev); got == 0 {
		t.Fatal("cache should be warm before the crash")
	}
	dev.Crash()
	dev.DropVolatile()
	if got := DirCacheDirs(dev); got != 0 {
		t.Fatalf("cache holds %d directory indexes after crash+reset", got)
	}
	k2, err := kernfs.Mount(dev)
	if err != nil {
		t.Fatal(err)
	}
	th2 := proc.NewProcess(dev, 0, 0).NewThread()
	if err := k2.FSMount(th2); err != nil {
		t.Fatal(err)
	}
	if err := Check(k2, th2).Err(); err != nil {
		t.Fatal(err)
	}
	f2 := New(k2, Options{})
	// First post-crash lookups rebuild from NVM truth.
	for i := 0; i < 20; i++ {
		if _, err := f2.Stat(th2, fmt.Sprintf("/d/f%d", i)); err != nil {
			t.Fatalf("post-crash lookup f%d: %v", i, err)
		}
	}
	if _, err := f2.Stat(th2, "/d/never"); !errors.Is(err, vfs.ErrNotExist) {
		t.Fatalf("phantom dentry after crash: %v", err)
	}
}

// TestBatchedGrantsReclaimedByRecovery: pages granted into a thread's
// volatile allocation cache but never used are unreferenced on NVM, so a
// crash leaks them — until recovery's in-use traversal returns them to the
// kernel. Repeated crash/recover cycles on a small device must therefore
// never run out of space, and each recovery must actually reclaim the
// stranded grant.
func TestBatchedGrantsReclaimedByRecovery(t *testing.T) {
	dev := nvm.NewDevice(64 << 20)
	if err := kernfs.Mkfs(dev, kernfs.MkfsOptions{RootMode: 0o755}); err != nil {
		t.Fatal(err)
	}
	for cycle := 0; cycle < 12; cycle++ {
		k, err := kernfs.Mount(dev)
		if err != nil {
			t.Fatalf("cycle %d: mount: %v", cycle, err)
		}
		th := proc.NewProcess(dev, 0, 0).NewThread()
		if err := k.FSMount(th); err != nil {
			t.Fatal(err)
		}
		rep := Check(k, th)
		if err := rep.Err(); err != nil {
			t.Fatalf("cycle %d: fsck: %v", cycle, err)
		}
		if cycle > 0 {
			var reclaimed int64
			for _, st := range rep.Coffers {
				reclaimed += st.PagesReclaimed
			}
			if reclaimed < 3 {
				t.Fatalf("cycle %d: recovery reclaimed %d pages, want the 3 stranded data pages at least", cycle, reclaimed)
			}
		}
		f := New(k, Options{})
		if err := f.EnsureRootDir(th); err != nil {
			t.Fatal(err)
		}
		// Recovery just reclaimed the previous cycle's stranded batches: the
		// space accounting must reconcile exactly — table vs trees vs census
		// on the kernel side, free inventory inside the grant on the µFS
		// side — with nothing double-counted or leaked.
		if err := verifyLive(f); err != nil {
			t.Fatalf("cycle %d: space accounting after recovery: %v", cycle, err)
		}
		for _, cs := range f.SpaceReport() {
			if cs.Used < 0 || cs.Used+cs.FreeListed+cs.Cached != cs.Pages {
				t.Fatalf("cycle %d: coffer %d space rows inconsistent: %+v", cycle, cs.ID, cs)
			}
		}
		// This instance's grants start at one page and double: the five
		// data pages written take grants of 1, 1, 2 and 4 pages, and the
		// "crash" below strands the last grant's three unused pages in the
		// volatile cache.
		h, err := f.Create(th, fmt.Sprintf("/file-%d", cycle), 0o644)
		if err != nil {
			t.Fatalf("cycle %d: create: %v", cycle, err)
		}
		if _, err := h.WriteAt(th, make([]byte, 5*pageSize), 0); err != nil {
			t.Fatalf("cycle %d: write: %v", cycle, err)
		}
		h.Close(th)
		dev.Crash()
		dev.DropVolatile()
	}
}

// TestInsertBehindStaleIndexScansNVM drives dirInsert's fallback: with the
// index not authoritative at insert time (here: the epoch bumped before every
// insert) the dentry goes in by the on-NVM free-slot scan. The names all
// hash to one first-level slot, so the scan installs the first- and
// second-level pages, fills the 16 inline slots, then — for names that also
// share a bucket — opens a chain page, finds a freed chain slot again
// instead of growing, and grows the chain at the head once it is full. The
// walk and the rebuilt index must agree on the result.
func TestInsertBehindStaleIndexScansNVM(t *testing.T) {
	_, _, f, th := newTestFS(t, Options{})
	if err := f.Mkdir(th, "/d", 0o755); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Create(th, "/target", 0o644); err != nil {
		t.Fatal(err)
	}
	target, err := f.Stat(th, "/target")
	if err != nil {
		t.Fatal(err)
	}
	// 16 names for the inline area of first-level slot 7, then a chain page's
	// worth and two more in its bucket 3.
	const l1, bucket = 7, 3
	var inline, chained []string
	// One candidate in 131072 qualifies, so the search counts in a byte
	// buffer and hashes it with FNV-1a inline (checked against nameHash for
	// the names it keeps) instead of formatting and hashing millions of
	// strings.
	cand := []byte("n0000000")
	for len(inline) < l2InlineCnt || len(chained) < chainDentryCnt+2 {
		for j := len(cand) - 1; ; j-- { // next decimal number
			if cand[j]++; cand[j] <= '9' {
				break
			}
			cand[j] = '0'
		}
		h := uint64(14695981039346656037)
		for _, c := range cand {
			h = (h ^ uint64(c)) * 1099511628211
		}
		switch {
		case l1Index(h) != l1:
			continue
		case l2Bucket(h) == bucket && len(chained) < chainDentryCnt+2:
			chained = append(chained, string(cand))
		case len(inline) < l2InlineCnt:
			inline = append(inline, string(cand))
		}
		if got := nameHash(string(cand)); got != h {
			t.Fatalf("nameHash(%q) = %#x, the test's FNV-1a says %#x", cand, got, h)
		}
	}
	pos, err := f.walk(th, "/d", false, true)
	if err != nil {
		t.Fatal(err)
	}
	defer pos.close()
	insert := func(name string) {
		t.Helper()
		f.sh.dc.bump() // whatever index there is, is stale now
		bk := f.lockDirBucket(th, pos.ino, name)
		defer f.unlockDirBucket(th, bk)
		if err := f.dirInsert(th, pos.m, pos.ino, name, uint8(vfs.TypeRegular), 0, target.Inode); err != nil {
			t.Fatalf("insert %s: %v", name, err)
		}
	}
	for _, name := range inline {
		insert(name)
	}
	full, spare, extra := chained[:chainDentryCnt], chained[chainDentryCnt], chained[chainDentryCnt+1]
	for _, name := range full {
		insert(name)
	}
	// L1, one L2, and the one chain page the bucket's 31 names fill.
	if pages, err := f.dirPages(th, pos.ino); err != nil || len(pages) != 3 {
		t.Fatalf("directory structure is %d pages (%v), want 3: %v", len(pages), err, pages)
	}
	// Free a slot in the full chain page: the scan must find it for the next
	// name of the bucket rather than grow the chain.
	_, loc, err := f.dirLookup(th, pos.ino, full[0])
	if err != nil {
		t.Fatal(err)
	}
	f.dirRemove(th, pos.ino, full[0], loc)
	insert(spare)
	if _, sloc, err := f.dirLookup(th, pos.ino, spare); err != nil || sloc != loc {
		t.Fatalf("spare name at %+v (%v), want the freed slot %+v", sloc, err, loc)
	}
	// Full again: one more name opens a second chain page at the head.
	insert(extra)
	if pages, err := f.dirPages(th, pos.ino); err != nil || len(pages) != 4 {
		t.Fatalf("directory structure is %d pages (%v), want 4: %v", len(pages), err, pages)
	}

	want := append(append([]string{}, inline...), chained[1:]...)
	for _, name := range want {
		if de, _, err := f.dirLookup(th, pos.ino, name); err != nil || de.inode != target.Inode {
			t.Fatalf("lookup %s: %+v, %v", name, de, err)
		}
	}
	// Last, since these open (and close) the thread's window themselves.
	slices.Sort(want)
	walked := entryNames(walkEntries(t, f, th, "/d"))
	listed := entryNames(listSorted(t, f, th, "/d"))
	if !slices.Equal(walked, want) || !slices.Equal(listed, want) {
		t.Fatalf("after %d scan inserts: walk sees %d names, index lists %d, want %d", len(want)+1, len(walked), len(listed), len(want))
	}
}
