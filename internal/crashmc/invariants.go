package crashmc

import (
	"bytes"
	"encoding/binary"
	"fmt"

	"zofs/internal/kernfs"
	"zofs/internal/logfs"
	"zofs/internal/nvm"
	"zofs/internal/pmemtrace"
	"zofs/internal/proc"
	"zofs/internal/vfs"
	"zofs/internal/zofs"
)

// crashState is one materialized post-crash image, what led to it, and where
// its findings go.
type crashState struct {
	dev   *nvm.Device
	ops   []vfs.Op
	res   runResult
	dirty int // dirty cachelines the media model decided at the crash
	audit *pmemtrace.Report
	fail  func(invariant, detail string)
	rep   *Report
}

// postCrash states what a system guarantees across a crash, read off the
// file system its instance built, and returns the check of one crash state
// against it. Every step of a check is panic-guarded: a panic during
// post-crash verification is itself a violation, not a test crash.
func postCrash(fs vfs.FileSystem) (guarantee string, check func(*crashState)) {
	switch f := fs.(type) {
	case *zofs.FS:
		return "ZoFS, remounted and fscked: completed ops durable, the in-flight op legal, every repair " +
			"explained by a lost line, no dirty cacheline (all stores non-temporal)", func(c *crashState) { c.checkZoFS(f.Options()) }
	case *logfs.FS:
		return "LogFS, remounted and its log replayed: completed ops durable, the in-flight op legal", (*crashState).checkLogFS
	default:
		return "baseline, namespace volatile: every block a completed write flushed is on the media", (*crashState).checkBaselineMedia
	}
}

// remounted remounts the crashed image, reporting a failure as remount.
func (c *crashState) remounted() (k *kernfs.KernFS, th *proc.Thread, ok bool) {
	ok = guarded(c.fail, "remount", func() {
		var err error
		if k, th, err = remount(c.dev); err != nil {
			panic(err)
		}
	})
	return k, th, ok
}

// checkZoFS remounts a crashed ZoFS image, runs zofs.Check and verifies the
// post-crash invariants: no dirty cacheline at the crash, fsck converges,
// every invariant Check registers holds, repairs cross-check against the
// auditor, and the model and usability invariants (checkModel) hold over the
// µFS remounted with opts.
func (c *crashState) checkZoFS(opts zofs.Options) {
	fail, rep := c.fail, c.rep
	step := func(name string, fn func()) bool { return guarded(fail, name, fn) }
	if c.dirty != 0 {
		fail("all_nt", fmt.Sprintf("%d dirty cachelines at crash on an all-NT system", c.dirty))
	}
	k2, th2, ok := c.remounted()
	if !ok {
		return
	}
	// The directory lookup cache must come up cold: a remount that carried
	// a pre-crash index over could serve dentries the crash never
	// persisted. Every post-crash lookup below therefore (re)builds its
	// index from the on-NVM truth.
	step("dcache_cold", func() {
		if n := zofs.DirCacheDirs(c.dev); n != 0 {
			panic(fmt.Sprintf("directory cache still holds %d indexes at remount", n))
		}
	})

	// zofs.Check: the recovery traversal, then every registered invariant —
	// the space books reconcile (allocation table, extent sets, page census,
	// µFS free lists), flagged-zeroed pages read zero, the path mirror Mount
	// rebuilt matches the persistent table.
	var found *zofs.Report
	if !step(zofs.InvariantFsck, func() { found = zofs.Check(k2, th2) }) || !failFindings(found, zofs.InvariantFsck, fail) {
		return
	}
	var repairs []pmemtrace.RepairSite
	for _, c := range found.Coffers {
		for _, r := range c.Repairs {
			repairs = append(repairs, pmemtrace.RepairSite{Off: r.Off, Target: r.Target, Kind: r.Kind})
			rep.Repairs++
			rep.RepairsByKind[r.Kind]++
		}
	}
	step("fsck_fixpoint", func() {
		if err := fixpoint(k2, th2); err != nil {
			panic(err)
		}
	})

	// Auditor cross-check: every repair must map to a lost line (or be
	// sequence damage the crash event itself explains).
	for _, d := range pmemtrace.CrossCheck(c.audit, repairs) {
		fail("cross_check", d)
	}
	c.checkModel(zofs.New(k2, opts), th2)
}

// checkLogFS remounts a crashed LogFS image, whose replay rebuilds each
// coffer's index from its log, and holds it to the model and usability
// invariants (checkModel).
func (c *crashState) checkLogFS() {
	if k2, th2, ok := c.remounted(); ok {
		c.checkModel(logfs.New(k2), th2)
	}
}

// checkModel holds a recovered file system to the workload's model:
// completed ops survive verbatim, the in-flight op left one of its legal
// intermediate states, the tree holds no unexpected entries, and the file
// system accepts new work.
func (c *crashState) checkModel(f2 vfs.FileSystem, th2 *proc.Thread) {
	ops, res := c.ops, c.res
	step := func(name string, fn func()) bool { return guarded(c.fail, name, fn) }
	m := modelAfter(ops, res.completed)
	var inflight *vfs.Op
	if res.completed < len(ops) {
		inflight = &ops[res.completed]
	}

	// Completed-op durability and tree consistency: every file and directory
	// the completed ops left reads back as the model holds it, and a walk of
	// the whole namespace finds no entry the model does not explain (no
	// leaked entries) and does not trip over dangling structure. What the
	// in-flight op may have left mid-change, any op but an fsync, is for the
	// in-flight check to judge.
	midOp := func(p string) bool {
		return inflight != nil && inflight.Kind != vfs.OpFsync && (p == inflight.Path || p == inflight.Dst)
	}
	step("durability", func() {
		if err := m.Check(f2, th2, midOp); err != nil {
			panic(err.Error())
		}
	})
	// In-flight legality: what the interrupted op touched is in one of its
	// legal intermediate states.
	if inflight != nil {
		step("inflight", func() { checkInflight(f2, th2, m, modelAfter(ops, res.completed+1), inflight) })
	}

	// Usability: the recovered file system must accept new work.
	step("usability", func() { usable(f2, th2) })
}

// guarded runs fn and fails invariant with whatever fn panics with: a panic
// during a check is a violation, not a crash of the checker. It reports
// whether fn returned.
func guarded(fail func(string, string), invariant string, fn func()) (ok bool) {
	defer func() {
		if r := recover(); r != nil {
			fail(invariant, fmt.Sprint(r))
		}
	}()
	fn()
	return true
}

// usable panics unless a recovered file system accepts new work: a probe
// file is created, written, read back and unlinked.
func usable(fs vfs.FileSystem, th *proc.Thread) {
	const probe = "/crashmc.probe"
	h, err := fs.Create(th, probe, 0o600)
	if err != nil {
		panic(fmt.Sprintf("post-recovery create: %v", err))
	}
	data := payload(0xC0FFEE, 5000)
	if _, err := h.WriteAt(th, data, 0); err != nil {
		panic(fmt.Sprintf("post-recovery write: %v", err))
	}
	buf := make([]byte, len(data))
	if _, err := h.ReadAt(th, buf, 0); err != nil || !bytes.Equal(buf, data) {
		panic(fmt.Sprintf("post-recovery read back: err=%v match=%v", err, bytes.Equal(buf, data)))
	}
	if err := h.Close(th); err != nil {
		panic(err)
	}
	if err := fs.Unlink(th, probe); err != nil {
		panic(fmt.Sprintf("post-recovery unlink: %v", err))
	}
}

// remount boots a fresh kernel over dev, its volatile state dropped as by a
// crash, with a root process mounted on it.
func remount(dev *nvm.Device) (*kernfs.KernFS, *proc.Thread, error) {
	zofs.ResetShared(dev)
	k, err := kernfs.Mount(dev)
	if err != nil {
		return nil, nil, err
	}
	th := proc.NewProcess(dev, 0, 0).NewThread()
	return k, th, k.FSMount(th)
}

// failFindings fails every finding zofs.Check left unrepaired under its own
// invariant, and a coffer the traversal could not walk under walk. It reports
// whether the traversal walked every coffer.
func failFindings(found *zofs.Report, walk string, fail func(string, string)) bool {
	walked := true
	for _, fd := range found.Findings {
		switch {
		case fd.Repaired:
		case fd.Invariant == zofs.InvariantFsck:
			walked = false
			fail(walk, fd.Detail)
		default:
			fail(fd.Invariant, fd.Detail)
		}
	}
	return walked
}

// fixpoint runs zofs.Check a second time: over a repaired image the
// traversal must walk every coffer and find nothing to repair and no lease to
// clear.
func fixpoint(k *kernfs.KernFS, th *proc.Thread) error {
	again := zofs.Check(k, th)
	for _, fd := range again.Findings {
		if fd.Invariant == zofs.InvariantFsck {
			return fmt.Errorf("second fsck pass: %s", fd)
		}
	}
	for _, c := range again.Coffers {
		if c.LeasesCleared > 0 {
			return fmt.Errorf("second fsck pass cleared %d leases in coffer %d", c.LeasesCleared, c.ID)
		}
	}
	return nil
}

// checkInflight verifies the paths the interrupted op was touching are in
// one of that op's legal intermediate states, between the models before and
// after it.
func checkInflight(fs vfs.FileSystem, th *proc.Thread, before, after *vfs.Model, op *vfs.Op) {
	// holds panics unless the file at path reads back as m has it.
	holds := func(m *vfs.Model, path, state string) {
		if err := m.Check(fs, th, func(p string) bool { return p != path }); err != nil {
			panic(fmt.Sprintf("mid-%s %s: %v", state, path, err))
		}
	}
	exists := func(path string) bool { _, err := fs.Stat(th, path); return err == nil }
	switch op.Kind {
	case vfs.OpWrite:
		checkInflightWrite(fs, th, before, after, op, holds)
	case vfs.OpRename:
		// Legal states: old name only, both names (new dentry committed,
		// old not yet cleared), new name only. Every present name must
		// read the full pre-op content.
		src, dst := exists(op.Path), exists(op.Dst)
		if src {
			holds(before, op.Path, "rename")
		}
		if dst {
			holds(after, op.Dst, "rename")
		}
		if !src && !dst {
			panic(fmt.Sprintf("mid-rename %s -> %s: file vanished under both names", op.Path, op.Dst))
		}
	case vfs.OpUnlink:
		if exists(op.Path) { // fully unlinked is legal too
			holds(before, op.Path, "unlink")
		}
	case vfs.OpCreate:
		// The new entry may exist, as an empty regular file, or not.
		fi, err := fs.Stat(th, op.Path)
		if err == nil && (fi.Type != vfs.TypeRegular || fi.Size != 0) {
			panic(fmt.Sprintf("mid-create %s: type=%v size=%d, want empty regular file", op.Path, fi.Type, fi.Size))
		}
	case vfs.OpMkdir:
		fi, err := fs.Stat(th, op.Path)
		if err == nil && fi.Type != vfs.TypeDir {
			panic(fmt.Sprintf("mid-mkdir %s: type=%v, want directory", op.Path, fi.Type))
		}
	}
}

// checkInflightWrite encodes ZoFS's write ordering: data and block
// pointers persist before the size word, so a post-crash file either shows
// the full new size with the full new content, or the old size with every
// overlapped byte holding its old or new value and everything outside the
// write window untouched.
func checkInflightWrite(fs vfs.FileSystem, th *proc.Thread, before, after *vfs.Model, op *vfs.Op,
	holds func(m *vfs.Model, path, state string)) {
	path := op.Path
	old, _ := before.Data(path)
	newC, _ := after.Data(path)
	fi, err := fs.Stat(th, path)
	if err != nil {
		panic(fmt.Sprintf("mid-write %s lost: %v", path, err))
	}
	if fi.Size != int64(len(old)) && fi.Size != int64(len(newC)) {
		panic(fmt.Sprintf("mid-write %s size %d, want %d or %d", path, fi.Size, len(old), len(newC)))
	}
	if len(newC) > len(old) && fi.Size == int64(len(newC)) {
		// The size word is the write's commit point: once it shows the
		// extended length, all data must be the new content.
		holds(after, path, "write, size committed,")
		return
	}
	h, err := fs.Open(th, path, vfs.O_RDONLY)
	if err != nil {
		panic(fmt.Sprintf("mid-write %s: open: %v", path, err))
	}
	got := make([]byte, fi.Size)
	n, err := h.ReadAt(th, got, 0)
	h.Close(th)
	if n != len(got) {
		panic(fmt.Sprintf("mid-write %s: read %d of %d bytes: %v", path, n, len(got), err))
	}
	end := op.Off + int64(len(op.Data))
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

// checkBaselineMedia verifies the baselines' durability story without a
// remount (their namespaces are volatile): every block a completed write
// flushed must still exist somewhere on the device image, whatever the
// media model did to the in-flight op's dirty lines. The engine itself is
// not reused after the crash — the panic may have unwound it mid-lock.
func (c *crashState) checkBaselineMedia() {
	dev, ops, res, fail := c.dev, c.ops, c.res, c.fail
	m := modelAfter(ops, res.completed)
	var inflight *vfs.Op
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
		idx[binary.LittleEndian.Uint64(buf[:8])] = append(idx[binary.LittleEndian.Uint64(buf[:8])], pg)
	}
	for i := range m.Len() {
		path := m.Path(i)
		if inflight != nil && (path == inflight.Path || path == inflight.Dst) {
			continue // the interrupted op's own blocks have no durability claim
		}
		want, _ := m.Data(path)
		for off := int64(0); off < int64(len(want)); off += pageSize {
			blk := want[off:min(off+pageSize, int64(len(want)))]
			if len(blk) < 8 {
				continue // too short to identify robustly
			}
			found := false
			for _, pg := range idx[binary.LittleEndian.Uint64(blk[:8])] {
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
