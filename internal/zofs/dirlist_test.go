package zofs

import (
	"cmp"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"zofs/internal/coffer"
	"zofs/internal/kernfs"
	"zofs/internal/mpk"
	"zofs/internal/nvm"
	"zofs/internal/proc"
	"zofs/internal/vfs"
)

// walkEntries lists a directory by the on-NVM walk alone (what an index
// rebuild sees), sorted by name: the reference the index is tested against.
func walkEntries(t *testing.T, f *FS, th *proc.Thread, dir string) []vfs.DirEntry {
	t.Helper()
	pos, err := f.walk(th, dir, true, false)
	if err != nil {
		t.Fatal(err)
	}
	defer pos.close()
	var out []vfs.DirEntry
	dirWalk(th, pos.ino, nil, func(d dentry, _ deLoc, _ int64) bool {
		if d.visible() {
			out = append(out, vfs.DirEntry{Name: d.name, Type: vfs.FileType(d.typ), Inode: d.inode, Coffer: coffer.ID(d.cofferID)})
		}
		return true
	})
	sortEntries(out)
	return out
}

func sortEntries(ents []vfs.DirEntry) {
	slices.SortFunc(ents, func(a, b vfs.DirEntry) int { return cmp.Compare(a.Name, b.Name) })
}

// listSorted is a copy of ReadDir's listing sorted by name, for set
// comparison against the walk; callers keep it across later listings.
func listSorted(t *testing.T, f *FS, th *proc.Thread, dir string) []vfs.DirEntry {
	t.Helper()
	ents, err := f.ReadDir(th, dir)
	if err != nil {
		t.Fatal(err)
	}
	ents = slices.Clone(ents)
	sortEntries(ents)
	return ents
}

func entryNames(ents []vfs.DirEntry) []string {
	names := make([]string, len(ents))
	for i, e := range ents {
		names[i] = e.Name
	}
	return names
}

// churnDirs drives a seeded create/unlink/rename/cross-directory-rename mix
// over /a and /b, calling check every 100 ops when it is set.
func churnDirs(t *testing.T, f *FS, th *proc.Thread, seed int64, ops int, check func()) {
	t.Helper()
	for _, d := range []string{"/a", "/b"} {
		if err := f.Mkdir(th, d, 0o755); err != nil {
			t.Fatal(err)
		}
	}
	rng := rand.New(rand.NewSource(seed))
	live := map[string]bool{}
	var paths []string // every path ever used; dead ones are skipped
	pick := func() (string, bool) {
		for try := 0; try < 8 && len(paths) > 0; try++ {
			if p := paths[rng.Intn(len(paths))]; live[p] {
				return p, true
			}
		}
		return "", false
	}
	fresh := func(i int) string {
		return fmt.Sprintf("/%c/n%04d", "ab"[rng.Intn(2)], i)
	}
	for i := 0; i < ops; i++ {
		r := rng.Intn(10)
		p, ok := pick()
		switch {
		case r < 5 || !ok:
			np := fresh(i)
			if _, err := f.Create(th, np, 0o644); err != nil {
				t.Fatalf("create %s: %v", np, err)
			}
			live[np] = true
			paths = append(paths, np)
		case r < 7:
			if err := f.Unlink(th, p); err != nil {
				t.Fatalf("unlink %s: %v", p, err)
			}
			live[p] = false
		default:
			// Same-directory or cross-directory, as fresh() falls.
			np := fresh(i)
			if err := f.Rename(th, p, np); err != nil {
				t.Fatalf("rename %s -> %s: %v", p, np, err)
			}
			live[p], live[np] = false, true
			paths = append(paths, np)
		}
		if check != nil && i%100 == 99 {
			check()
		}
	}
}

// TestDirListMatchesWalk: through a churn large enough to spill into chain
// pages and recycle freed slots, the index listing and the on-NVM walk
// agree as sets — names, types, inodes and coffer references.
func TestDirListMatchesWalk(t *testing.T) {
	_, _, f, th := newTestFS(t, Options{})
	checks := 0
	churnDirs(t, f, th, 42, 1500, func() {
		checks++
		for _, d := range []string{"/a", "/b"} {
			if got, want := listSorted(t, f, th, d), walkEntries(t, f, th, d); !slices.Equal(got, want) {
				t.Fatalf("%s: index lists %d entries, walk %d:\n%v\n%v", d, len(got), len(want), entryNames(got), entryNames(want))
			}
		}
	})
	if checks == 0 || len(listSorted(t, f, th, "/a")) == 0 {
		t.Fatal("churn checked nothing")
	}
}

// TestDirListOrderDeterministic: the same op history on two fresh file
// systems lists in the identical order, and repeated listings do not move.
func TestDirListOrderDeterministic(t *testing.T) {
	run := func() [][]string {
		_, _, f, th := newTestFS(t, Options{})
		churnDirs(t, f, th, 7, 600, nil)
		var out [][]string
		for _, d := range []string{"/a", "/b", "/a"} {
			ents, err := f.ReadDir(th, d)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, entryNames(ents))
		}
		return out
	}
	first, second := run(), run()
	for i := range first {
		if len(first[i]) < 20 {
			t.Fatalf("listing %d too small to say anything: %d names", i, len(first[i]))
		}
		if !slices.Equal(first[i], second[i]) {
			t.Fatalf("listing %d differs between two runs of one history:\n%v\n%v", i, first[i], second[i])
		}
	}
	if !slices.Equal(first[0], first[2]) {
		t.Fatal("listing /a twice gave two orders")
	}
}

// dentryAddr returns where a name's dentry lives on the device.
func dentryAddr(t *testing.T, f *FS, th *proc.Thread, dir, name string) int64 {
	t.Helper()
	pos, err := f.walk(th, dir, true, false)
	if err != nil {
		t.Fatal(err)
	}
	defer pos.close()
	_, loc, err := f.dirLookup(th, pos.ino, name)
	if err != nil {
		t.Fatalf("lookup %s/%s: %v", dir, name, err)
	}
	return loc.addr()
}

// TestDirListNeverServesStaleDentry rewrites dentry headers behind the
// coherence hooks — a killed commit word, a flipped type bit, a retargeted
// inode pointer — and checks each time that the listing serves the NVM
// truth, not the warm index, and that the index it leaves behind is the
// rebuilt one.
func TestDirListNeverServesStaleDentry(t *testing.T) {
	dev, _, f, th := newTestFS(t, Options{})
	if err := f.Mkdir(th, "/d", 0o755); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		if _, err := f.Create(th, fmt.Sprintf("/d/f%02d", i), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	find := func(ents []vfs.DirEntry, name string) (vfs.DirEntry, bool) {
		i := slices.IndexFunc(ents, func(e vfs.DirEntry) bool { return e.Name == name })
		if i < 0 {
			return vfs.DirEntry{}, false
		}
		return ents[i], true
	}
	before := listSorted(t, f, th, "/d") // warm, authoritative
	if len(before) != 40 {
		t.Fatalf("listed %d of 40", len(before))
	}
	indexed := func(name string) *cachedDe {
		fi, err := f.Stat(th, "/d")
		if err != nil {
			t.Fatal(err)
		}
		idx := f.sh.dc.dir(fi.Inode)
		idx.mu.Lock()
		defer idx.mu.Unlock()
		if c := idx.get(name); c != nil {
			cp := *c
			return &cp
		}
		return nil
	}

	// 1. Kill f07 with a direct commit-word store.
	dev.Store64(nil, dentryAddr(t, f, th, "/d", "f07"), dentryCommit(deStateFree, 0, 0, 0))
	after := listSorted(t, f, th, "/d")
	if _, ok := find(after, "f07"); ok || len(after) != 39 {
		t.Fatalf("killed dentry served from the stale index (%d entries)", len(after))
	}
	if indexed("f07") != nil {
		t.Fatal("index still holds the killed dentry after the listing")
	}

	// 2. Flip a bit of f11's file type (byte 2 of the commit word).
	FlipBit(dev, dentryAddr(t, f, th, "/d", "f11")+2, 1)
	after = listSorted(t, f, th, "/d")
	want := walkEntries(t, f, th, "/d")
	if !slices.Equal(after, want) {
		t.Fatalf("listing after a type flip is not the NVM truth:\n%v\n%v", after, want)
	}
	e, _ := find(after, "f11")
	if b, _ := find(before, "f11"); e.Type == b.Type {
		t.Fatalf("flipped type not visible: still %v", e.Type)
	}
	if c := indexed("f11"); c == nil || vfs.FileType(c.de.typ) != e.Type {
		t.Fatal("index not rebuilt to the flipped type")
	}

	// 3. Retarget f23 at f24's inode.
	target, _ := find(before, "f24")
	dev.Store64(nil, dentryAddr(t, f, th, "/d", "f23")+deInodeOff, uint64(target.Inode))
	after = listSorted(t, f, th, "/d")
	if e, _ := find(after, "f23"); e.Inode != target.Inode {
		t.Fatalf("retargeted dentry listed with the cached inode %d, NVM says %d", e.Inode, target.Inode)
	}
	if c := indexed("f23"); c == nil || c.de.inode != target.Inode {
		t.Fatal("index not rebuilt to the retargeted inode")
	}
	if !slices.Equal(after, walkEntries(t, f, th, "/d")) {
		t.Fatal("listing after the retarget is not the NVM truth")
	}
}

// TestDirListColdAfterReset: after DropVolatile the first listing pays one
// rebuild walk (media reads, more virtual time) and equals the walk; the
// second is served from the index and reads no media at all.
func TestDirListColdAfterReset(t *testing.T) {
	dev, k, f, th := newTestFS(t, Options{})
	if err := f.Mkdir(th, "/d", 0o755); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		if _, err := f.Create(th, fmt.Sprintf("/d/f%03d", i), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	dev.DropVolatile()
	if got := DirCacheDirs(dev); got != 0 {
		t.Fatalf("cache holds %d indexes after reset", got)
	}
	f2 := New(k, Options{})
	measure := func() (ents []vfs.DirEntry, vns, rbytes int64) {
		t0, r0 := th.Clk.Now(), dev.BytesRead()
		ents, err := f2.ReadDir(th, "/d")
		if err != nil {
			t.Fatal(err)
		}
		return slices.Clone(ents), th.Clk.Now() - t0, dev.BytesRead() - r0
	}
	cold, coldNS, coldBytes := measure()
	warm, warmNS, warmBytes := measure()
	if coldBytes < pageSize || coldNS <= warmNS {
		t.Fatalf("first listing after reset not charged a rebuild: %d B / %d ns, then %d B / %d ns", coldBytes, coldNS, warmBytes, warmNS)
	}
	if warmBytes != 0 {
		t.Fatalf("warm listing read %d media bytes", warmBytes)
	}
	sortEntries(cold)
	sortEntries(warm)
	if want := walkEntries(t, f2, th, "/d"); !slices.Equal(cold, want) || !slices.Equal(warm, want) || len(want) != 200 {
		t.Fatalf("listings after reset differ from the walk: %d cold, %d warm, %d walked", len(cold), len(warm), len(want))
	}
}

// TestRmdirViaIndex: the emptiness check of Rmdir, for an in-coffer and a
// cross-coffer directory, through a warm index and a cold one (which the
// walk rebuilds).
func TestRmdirViaIndex(t *testing.T) {
	for _, tc := range []struct {
		name string
		mode coffer.Mode
		cold bool
	}{
		{"in-coffer", 0o755, false},
		{"in-coffer-cold", 0o755, true},
		{"cross-coffer", 0o700, false},
		{"cross-coffer-cold", 0o700, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, k, f, th := newTestFS(t, Options{})
			chill := func() {
				if tc.cold {
					f.InvalidateAll() // bumps the epoch: every index is stale
				}
			}
			if err := f.Mkdir(th, "/d", tc.mode); err != nil {
				t.Fatal(err)
			}
			if _, isCoffer := k.LookupPath(nil, "/d"); isCoffer != (tc.mode != 0o755) {
				t.Fatalf("/d coffer root = %v", isCoffer)
			}
			// Filled far enough to allocate chain pages, so the emptied
			// table is a large structure with nothing live in it.
			const n = 300
			for i := 0; i < n; i++ {
				if _, err := f.Create(th, fmt.Sprintf("/d/f%03d", i), tc.mode&^0o111); err != nil {
					t.Fatal(err)
				}
			}
			chill()
			if err := f.Rmdir(th, "/d"); !errors.Is(err, vfs.ErrNotEmpty) {
				t.Fatalf("rmdir of a full directory: %v", err)
			}
			for i := 1; i < n; i++ {
				if err := f.Unlink(th, fmt.Sprintf("/d/f%03d", i)); err != nil {
					t.Fatal(err)
				}
			}
			chill()
			if err := f.Rmdir(th, "/d"); !errors.Is(err, vfs.ErrNotEmpty) {
				t.Fatalf("rmdir with one entry left: %v", err)
			}
			if err := f.Unlink(th, "/d/f000"); err != nil {
				t.Fatal(err)
			}
			chill()
			if err := f.Rmdir(th, "/d"); err != nil {
				t.Fatalf("rmdir of a filled-then-emptied directory: %v", err)
			}
			if _, err := f.Stat(th, "/d"); !errors.Is(err, vfs.ErrNotExist) {
				t.Fatalf("directory survived rmdir: %v", err)
			}
			// A never-populated directory goes too.
			if err := f.Mkdir(th, "/e", tc.mode); err != nil {
				t.Fatal(err)
			}
			if err := f.Rmdir(th, "/e"); err != nil {
				t.Fatalf("rmdir of a fresh directory: %v", err)
			}
		})
	}
}

// TestDirListConcurrent races listings against create, unlink and rename
// in one directory (scripts/check.sh runs it under -race). Each listing is
// a snapshot under the index mutex: no name twice, every stable name
// present, and nothing outside the stable and churn name sets.
func TestDirListConcurrent(t *testing.T) {
	_, _, f, th := newTestFS(t, Options{})
	if err := f.Mkdir(th, "/c", 0o755); err != nil {
		t.Fatal(err)
	}
	const stable = 60
	allowed := map[string]bool{}
	for i := 0; i < stable; i++ {
		n := fmt.Sprintf("stable-%02d", i)
		allowed[n] = true
		if _, err := f.Create(th, "/c/"+n, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	for w := 0; w < 2; w++ {
		for i := 0; i < 10; i++ {
			allowed[fmt.Sprintf("churn-%d-%02d", w, i)] = true
			allowed[fmt.Sprintf("moved-%d-%02d", w, i)] = true
		}
	}
	var wg sync.WaitGroup
	errc := make(chan error, 16)
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			tth := th.Proc.NewThread()
			for i := 0; i < 150; i++ {
				name := fmt.Sprintf("/c/churn-%d-%02d", w, i%10)
				if _, err := f.Create(tth, name, 0o644); err != nil {
					errc <- fmt.Errorf("create %s: %w", name, err)
					return
				}
				if i%2 == 0 {
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
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tth := th.Proc.NewThread()
			for i := 0; i < 60; i++ {
				ents, err := f.ReadDir(tth, "/c")
				if err != nil {
					errc <- fmt.Errorf("readdir: %w", err)
					return
				}
				seen := map[string]bool{}
				nstable := 0
				for _, e := range ents {
					if seen[e.Name] {
						errc <- fmt.Errorf("listing %d has %q twice", i, e.Name)
						return
					}
					seen[e.Name] = true
					if !allowed[e.Name] {
						errc <- fmt.Errorf("listing %d has foreign name %q", i, e.Name)
						return
					}
					if e.Name[0] == 's' {
						nstable++
					}
				}
				if nstable != stable {
					errc <- fmt.Errorf("listing %d has %d of %d stable names", i, nstable, stable)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
}

// TestDirListPerThreadBuffer: two threads of one process list different
// directories at once, each many times; each listing is exactly its own
// directory's names, never one the other thread's listing wrote.
func TestDirListPerThreadBuffer(t *testing.T) {
	_, _, f, th := newTestFS(t, Options{})
	want := make([][]string, 2)
	for d := range want {
		dir := fmt.Sprintf("/l%d", d)
		if err := f.Mkdir(th, dir, 0o755); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 40+30*d; i++ {
			name := fmt.Sprintf("t%d-%03d", d, i)
			if _, err := f.Create(th, dir+"/"+name, 0o644); err != nil {
				t.Fatal(err)
			}
			want[d] = append(want[d], name)
		}
	}
	var wg sync.WaitGroup
	errs := make([]error, len(want))
	for d := range want {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tth := th.Proc.NewThread()
			for i := 0; i < 200; i++ {
				ents, err := f.ReadDir(tth, fmt.Sprintf("/l%d", d))
				if err != nil {
					errs[d] = err
					return
				}
				got := entryNames(ents)
				slices.Sort(got)
				if !slices.Equal(got, want[d]) {
					errs[d] = fmt.Errorf("listing %d of /l%d: %v", i, d, got)
					return
				}
			}
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		t.Fatal(err)
	}
}

// TestEvictOneDeterministic: a process cycling through more coffers than it
// has MPK regions evicts in FIFO mapping order — the same victims, and so
// the same virtual time, on every run (map iteration order used to pick).
func TestEvictOneDeterministic(t *testing.T) {
	const coffers = 17
	// Victims are named by creation order: coffer IDs are page numbers and
	// differ from device to device.
	run := func() (victims []int, vns int64) {
		dev := nvm.NewDevice(256 << 20)
		if err := kernfs.Mkfs(dev, kernfs.MkfsOptions{RootMode: 0o755}); err != nil {
			t.Fatal(err)
		}
		k, err := kernfs.Mount(dev)
		if err != nil {
			t.Fatal(err)
		}
		th := proc.NewProcess(dev, 0, 0).NewThread()
		if err := k.FSMount(th); err != nil {
			t.Fatal(err)
		}
		f := New(k, Options{})
		if err := f.EnsureRootDir(th); err != nil {
			t.Fatal(err)
		}
		mapped := func() map[coffer.ID]bool {
			f.mu.Lock()
			defer f.mu.Unlock()
			m := map[coffer.ID]bool{}
			for id := range f.mounts {
				m[id] = true
			}
			return m
		}
		prev := mapped()
		order := map[coffer.ID]int{k.RootCoffer(): -1}
		step := func(err error) {
			if err != nil {
				t.Fatal(err)
			}
			cur := mapped()
			var gone []int
			for id := range prev {
				if !cur[id] {
					gone = append(gone, order[id])
				}
			}
			slices.Sort(gone)
			victims = append(victims, gone...)
			prev = cur
		}
		for i := 0; i < coffers; i++ {
			dir := fmt.Sprintf("/c%02d", i)
			step(f.Mkdir(th, dir, 0o700)) // own permission: own coffer
			id, ok := k.LookupPath(nil, dir)
			if !ok {
				t.Fatalf("%s is not a coffer root", dir)
			}
			order[id] = i
			_, err := f.Create(th, fmt.Sprintf("/c%02d/f", i), 0o600)
			step(err)
		}
		for round := 0; round < 3; round++ {
			for i := 0; i < coffers; i++ {
				_, err := f.Stat(th, fmt.Sprintf("/c%02d/f", (i*5)%coffers))
				step(err)
			}
		}
		return victims, th.Clk.Now()
	}
	v1, t1 := run()
	v2, t2 := run()
	if len(v1) < coffers {
		t.Fatalf("only %d evictions: the region limit was not exercised", len(v1))
	}
	if !slices.Equal(v1, v2) {
		t.Fatalf("victim sequences differ:\n%v\n%v", v1, v2)
	}
	if t1 != t2 {
		t.Fatalf("virtual time differs between identical runs: %d vs %d", t1, t2)
	}
}

// TestEvictSparesOpenWindow: one thread holds a window on the least recently
// ensured coffer while another thread of the process maps a sixteenth. The
// eviction must take another coffer: unmapping the windowed one would fault
// the holder's next access.
func TestEvictSparesOpenWindow(t *testing.T) {
	dev := nvm.NewDevice(256 << 20)
	if err := kernfs.Mkfs(dev, kernfs.MkfsOptions{RootMode: 0o755}); err != nil {
		t.Fatal(err)
	}
	k, err := kernfs.Mount(dev)
	if err != nil {
		t.Fatal(err)
	}
	p := proc.NewProcess(dev, 0, 0)
	holder, mapper := p.NewThread(), p.NewThread()
	if err := k.FSMount(holder); err != nil {
		t.Fatal(err)
	}
	f := New(k, Options{})
	if err := f.EnsureRootDir(mapper); err != nil {
		t.Fatal(err)
	}
	const coffers = mpk.NumKeys // one more than the process has regions
	for i := 0; i < coffers; i++ {
		dir := fmt.Sprintf("/c%02d", i)
		if err := f.Mkdir(mapper, dir, 0o700); err != nil {
			t.Fatal(err)
		}
		if _, err := f.Create(mapper, dir+"/f", 0o600); err != nil {
			t.Fatal(err)
		}
	}
	id, ok := k.LookupPath(nil, "/c00")
	if !ok {
		t.Fatal("/c00 is not a coffer root")
	}
	m, err := f.ensureMapped(holder, id, false)
	if err != nil {
		t.Fatal(err)
	}
	win := f.window(holder, m, false)
	defer win.close()
	for i := 1; i < coffers; i++ {
		if _, err := f.Stat(mapper, fmt.Sprintf("/c%02d/f", i)); err != nil {
			t.Fatal(err)
		}
	}
	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("the window holder's access faulted: %v", r)
		}
	}()
	if hdr := f.readInodeHeader(holder, m.root); u32at(hdr, inoMagicOff) != inoMagic {
		t.Fatal("the window holder read a bad root inode")
	}
}
