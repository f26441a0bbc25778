package crashmc

import (
	"bytes"
	"fmt"
	"slices"

	"zofs/internal/kernfs"
	"zofs/internal/nvm"
	"zofs/internal/pmemtrace"
	"zofs/internal/proc"
	"zofs/internal/vfs"
	"zofs/internal/zofs"
)

// checkZoFS remounts a crashed ZoFS image, runs recovery and verifies the
// post-crash invariants: fsck converges, repairs cross-check against the
// auditor, completed ops survive verbatim, the in-flight op left one of
// its legal intermediate states, the tree holds no unexpected entries, and
// the file system stays usable. Every step is panic-guarded: a panic
// during post-crash verification is itself a violation, not a test crash.
func checkZoFS(p *personality, dev *nvm.Device, ops []Op, res runResult,
	audit *pmemtrace.Report, fail func(string, string), rep *Report) {
	step := func(name string, fn func()) (ok bool) {
		defer func() {
			if r := recover(); r != nil {
				fail(name, fmt.Sprintf("panic during post-crash check: %v", r))
			}
		}()
		fn()
		return true
	}

	zofs.ResetShared(dev)
	// The directory lookup cache must come up cold: a remount that carried
	// a pre-crash index over could serve dentries the crash never
	// persisted. Every post-crash lookup below therefore (re)builds its
	// index from the on-NVM truth.
	step("dcache_cold", func() {
		if n := zofs.DirCacheDirs(dev); n != 0 {
			panic(fmt.Sprintf("directory cache still holds %d indexes at remount", n))
		}
	})
	var k2 *kernfs.KernFS
	var th2 *proc.Thread
	if !step("remount", func() {
		var err error
		k2, err = kernfs.Mount(dev)
		if err != nil {
			panic(err)
		}
		th2 = proc.NewProcess(dev, 0, 0).NewThread()
		if err := k2.FSMount(th2); err != nil {
			panic(err)
		}
	}) || k2 == nil || th2 == nil {
		return
	}

	var repairs []pmemtrace.RepairSite
	if !step("fsck", func() {
		stats, err := zofs.FsckAll(k2, th2)
		if err != nil {
			panic(err)
		}
		for _, st := range stats {
			for _, r := range st.Repairs {
				repairs = append(repairs, pmemtrace.RepairSite{Off: r.Off, Target: r.Target, Kind: r.Kind})
				rep.Repairs++
				rep.RepairsByKind[r.Kind]++
			}
		}
	}) {
		return
	}

	// Fixpoint: a second recovery pass over the repaired image must find
	// nothing left to fix.
	step("fsck_fixpoint", func() {
		stats, err := zofs.FsckAll(k2, th2)
		if err != nil {
			panic(err)
		}
		for _, st := range stats {
			if len(st.Repairs) > 0 || st.LeasesCleared > 0 {
				panic(fmt.Sprintf("second fsck pass repaired %d sites and cleared %d leases",
					len(st.Repairs), st.LeasesCleared))
			}
		}
	})

	// Auditor cross-check: every repair must map to a lost line (or be
	// sequence damage the crash event itself explains).
	for _, d := range pmemtrace.CrossCheck(audit, repairs) {
		fail("cross_check", d)
	}

	f2 := zofs.New(k2, p.opts)

	// Space conservation: after remount and fsck, the allocator's space
	// accounting must reconcile three ways — the kernel's persistent
	// allocation table against its volatile extent trees against a full
	// page census — and every µFS free-list page must sit inside its
	// coffer's grant exactly once. Recovery reclaimed any batch caches the
	// crash stranded, so no page may be unaccounted for.
	step("space_conserved", func() {
		if err := f2.VerifySpace(); err != nil {
			panic(err)
		}
		for _, cs := range f2.SpaceReport() {
			if cs.Used < 0 || cs.FreeListed+cs.Cached > cs.Pages {
				panic(fmt.Sprintf("coffer %d space rows inconsistent: pages=%d used=%d free_listed=%d cached=%d",
					cs.ID, cs.Pages, cs.Used, cs.FreeListed, cs.Cached))
			}
		}
	})

	o := oracleAfter(ops, res.completed)
	var inflight *Op
	if res.completed < len(ops) {
		inflight = &ops[res.completed]
	}

	// Completed-op durability and in-flight legality.
	for path, want := range o.files {
		path, want := path, want
		step("durability", func() {
			if inflight != nil && (path == inflight.Path || path == inflight.Dst) {
				checkInflightFile(f2, th2, path, want, inflight)
				return
			}
			checkExactFile(f2, th2, path, want)
		})
	}
	for dir := range o.dirs {
		dir := dir
		step("durability", func() {
			fi, err := f2.Stat(th2, dir)
			if err != nil {
				panic(fmt.Sprintf("completed mkdir %s lost: %v", dir, err))
			}
			if fi.Type != vfs.TypeDir {
				panic(fmt.Sprintf("%s is %v, want directory", dir, fi.Type))
			}
		})
	}
	if inflight != nil {
		step("inflight", func() { checkInflightNew(f2, th2, inflight) })
	}

	// Tree consistency: walk the whole namespace; every entry must be
	// explained by the oracle or the in-flight op (no leaked entries), and
	// the walk itself must not trip over dangling structure.
	step("tree_walk", func() {
		allowed := map[string]bool{}
		for p := range o.files {
			allowed[p] = true
		}
		for p := range o.dirs {
			allowed[p] = true
		}
		if inflight != nil {
			allowed[inflight.Path] = true
			if inflight.Dst != "" {
				allowed[inflight.Dst] = true
			}
		}
		walkTree(f2, th2, "/", func(p string, e vfs.DirEntry) {
			if !allowed[p] {
				panic(fmt.Sprintf("leaked namespace entry %s (%v) not explained by any op", p, e.Type))
			}
		})
	})

	// Usability: the recovered file system must accept new work.
	step("usability", func() {
		const probe = "/crashmc.probe"
		h, err := f2.Create(th2, probe, 0o600)
		if err != nil {
			panic(fmt.Sprintf("post-recovery create: %v", err))
		}
		data := opData(&Op{Len: 5000, Seed: 0xC0FFEE})
		if _, err := h.WriteAt(th2, data, 0); err != nil {
			panic(fmt.Sprintf("post-recovery write: %v", err))
		}
		buf := make([]byte, len(data))
		if _, err := h.ReadAt(th2, buf, 0); err != nil || !bytes.Equal(buf, data) {
			panic(fmt.Sprintf("post-recovery read back: err=%v match=%v", err, bytes.Equal(buf, data)))
		}
		if err := h.Close(th2); err != nil {
			panic(err)
		}
		if err := f2.Unlink(th2, probe); err != nil {
			panic(fmt.Sprintf("post-recovery unlink: %v", err))
		}
	})
}

// checkExactFile asserts a file untouched by the in-flight op survived
// the crash verbatim.
func checkExactFile(fs vfs.FileSystem, th *proc.Thread, path string, want []byte) {
	fi, err := fs.Stat(th, path)
	if err != nil {
		panic(fmt.Sprintf("completed file %s lost: %v", path, err))
	}
	if fi.Type != vfs.TypeRegular {
		panic(fmt.Sprintf("%s is %v, want regular file", path, fi.Type))
	}
	if fi.Size != int64(len(want)) {
		panic(fmt.Sprintf("%s size %d, want %d", path, fi.Size, len(want)))
	}
	got := readAll(fs, th, path, fi.Size)
	if !bytes.Equal(got, want) {
		panic(fmt.Sprintf("%s content diverged at byte %d of %d", path, firstDiff(got, want), len(want)))
	}
}

// checkInflightFile verifies a file the interrupted op was touching is in
// one of that op's legal intermediate states.
func checkInflightFile(fs vfs.FileSystem, th *proc.Thread, path string, want []byte, op *Op) {
	switch op.Kind {
	case OpWrite:
		checkInflightWrite(fs, th, path, want, op)
	case OpRename:
		// Legal states: old name only, both names (new dentry committed,
		// old not yet cleared), new name only. Every present name must
		// read the full pre-op content.
		var present []string
		for _, p := range []string{op.Path, op.Dst} {
			fi, err := fs.Stat(th, p)
			if err != nil {
				continue
			}
			present = append(present, p)
			if fi.Size != int64(len(want)) {
				panic(fmt.Sprintf("mid-rename %s size %d, want %d", p, fi.Size, len(want)))
			}
			if got := readAll(fs, th, p, fi.Size); !bytes.Equal(got, want) {
				panic(fmt.Sprintf("mid-rename %s content diverged at byte %d", p, firstDiff(got, want)))
			}
		}
		if len(present) == 0 {
			panic(fmt.Sprintf("mid-rename %s -> %s: file vanished under both names", op.Path, op.Dst))
		}
	case OpUnlink:
		fi, err := fs.Stat(th, path)
		if err != nil {
			return // fully unlinked: legal
		}
		if got := readAll(fs, th, path, fi.Size); !bytes.Equal(got, want) {
			panic(fmt.Sprintf("mid-unlink %s content diverged at byte %d", path, firstDiff(got, want)))
		}
	default:
		// fsync and metadata-neutral ops: content must be intact.
		checkExactFile(fs, th, path, want)
	}
}

// checkInflightWrite encodes ZoFS's write ordering: data and block
// pointers persist before the size word, so a post-crash file either shows
// the full new size with the full new content, or the old size with every
// overlapped byte holding its old or new value and everything outside the
// write window untouched.
func checkInflightWrite(fs vfs.FileSystem, th *proc.Thread, path string, old []byte, op *Op) {
	fi, err := fs.Stat(th, path)
	if err != nil {
		panic(fmt.Sprintf("mid-write %s lost: %v", path, err))
	}
	newC := applyWrite(old, op)
	if fi.Size != int64(len(old)) && fi.Size != int64(len(newC)) {
		panic(fmt.Sprintf("mid-write %s size %d, want %d or %d", path, fi.Size, len(old), len(newC)))
	}
	got := readAll(fs, th, path, fi.Size)
	if len(newC) > len(old) && fi.Size == int64(len(newC)) {
		// The size word is the write's commit point: once it shows the
		// extended length, all data must be the new content.
		if !bytes.Equal(got, newC) {
			panic(fmt.Sprintf("mid-write %s: size committed but content diverged at byte %d",
				path, firstDiff(got, newC)))
		}
		return
	}
	end := op.Off + int64(op.Len)
	for i := int64(0); i < int64(len(got)); i++ {
		inWindow := i >= op.Off && i < end
		switch {
		case !inWindow && got[i] != old[i]:
			panic(fmt.Sprintf("mid-write %s: byte %d outside the write window changed", path, i))
		case inWindow && got[i] != old[i] && got[i] != newC[i]:
			panic(fmt.Sprintf("mid-write %s: byte %d is neither old nor new data", path, i))
		}
	}
}

// checkInflightNew verifies namespace entries the interrupted op may have
// been creating: they are allowed to exist (empty / correct type) or not.
func checkInflightNew(fs vfs.FileSystem, th *proc.Thread, op *Op) {
	switch op.Kind {
	case OpCreate:
		fi, err := fs.Stat(th, op.Path)
		if err != nil {
			return
		}
		if fi.Type != vfs.TypeRegular || fi.Size != 0 {
			panic(fmt.Sprintf("mid-create %s: type=%v size=%d, want empty regular file", op.Path, fi.Type, fi.Size))
		}
	case OpMkdir:
		fi, err := fs.Stat(th, op.Path)
		if err != nil {
			return
		}
		if fi.Type != vfs.TypeDir {
			panic(fmt.Sprintf("mid-mkdir %s: type=%v, want directory", op.Path, fi.Type))
		}
	}
}

// checkBaselineMedia verifies the baselines' durability story without a
// remount (their namespaces are volatile): every block a completed write
// flushed must still exist somewhere on the device image, whatever the
// media model did to the in-flight op's dirty lines. The engine itself is
// not reused after the crash — the panic may have unwound it mid-lock.
func checkBaselineMedia(dev *nvm.Device, ops []Op, res runResult, fail func(string, string)) {
	o := oracleAfter(ops, res.completed)
	var inflight *Op
	if res.completed < len(ops) {
		inflight = &ops[res.completed]
	}

	// Index every device page by its first 8 bytes, then verify each
	// expected block by prefix comparison against the candidate pages.
	pageSize := int64(pmemtrace.PageSize)
	idx := map[uint64][]int64{}
	buf := make([]byte, pageSize)
	for pg := int64(0); pg < dev.Pages(); pg++ {
		dev.ReadNoCharge(pg*pageSize, buf[:8])
		idx[le64(buf[:8])] = append(idx[le64(buf[:8])], pg)
	}
	for path, want := range o.files {
		if inflight != nil && (path == inflight.Path || path == inflight.Dst) {
			continue // the interrupted op's own blocks have no durability claim
		}
		for off := int64(0); off < int64(len(want)); off += pageSize {
			blk := want[off:min(off+pageSize, int64(len(want)))]
			if len(blk) < 8 {
				continue // too short to identify robustly
			}
			found := false
			for _, pg := range idx[le64(blk[:8])] {
				dev.ReadNoCharge(pg*pageSize, buf[:len(blk)])
				if bytes.Equal(buf[:len(blk)], blk) {
					found = true
					break
				}
			}
			if !found {
				fail("durability", fmt.Sprintf(
					"flushed block %s[%d:%d] not found anywhere on the post-crash image", path, off, off+int64(len(blk))))
			}
		}
	}
}

func le64(b []byte) uint64 {
	return uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24 |
		uint64(b[4])<<32 | uint64(b[5])<<40 | uint64(b[6])<<48 | uint64(b[7])<<56
}

// readAll reads size bytes from a file, panicking (into the step guard)
// on failure.
func readAll(fs vfs.FileSystem, th *proc.Thread, path string, size int64) []byte {
	if size == 0 {
		return nil
	}
	h, err := fs.Open(th, path, vfs.O_RDONLY)
	if err != nil {
		panic(fmt.Sprintf("open %s: %v", path, err))
	}
	defer h.Close(th)
	buf := make([]byte, size)
	n, err := h.ReadAt(th, buf, 0)
	if err != nil && n != len(buf) {
		panic(fmt.Sprintf("read %s: n=%d err=%v", path, n, err))
	}
	return buf[:n]
}

func firstDiff(a, b []byte) int {
	n := min(len(a), len(b))
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return n
}

// walkTree calls visit for every entry below dir, parents before children.
// A listing is valid only until the thread's next ReadDir, so each one is
// cloned before the walk descends; it panics on a directory it cannot list.
func walkTree(fs vfs.FileSystem, th *proc.Thread, dir string, visit func(p string, e vfs.DirEntry)) {
	ents, err := fs.ReadDir(th, dir)
	if err != nil {
		panic(fmt.Sprintf("readdir %s: %v", dir, err))
	}
	for _, e := range slices.Clone(ents) {
		p := vfs.Join(dir, e.Name)
		visit(p, e)
		if e.Type == vfs.TypeDir {
			walkTree(fs, th, p, visit)
		}
	}
}
