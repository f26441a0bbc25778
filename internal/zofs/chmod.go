package zofs

import (
	"math"

	"zofs/internal/byteflow"
	"zofs/internal/coffer"
	"zofs/internal/proc"
	"zofs/internal/vfs"
)

// Permission changes (paper §6.4, Table 9).
//
// Changing the permission of a coffer root is cheap: one kernel call
// updates the root page. Changing the permission of a file *inside* a
// coffer forces a coffer_split: every page of the file is retagged in the
// kernel's allocation table and the parent dentry becomes a cross-coffer
// reference — "the split procedure will change the coffer of all file
// pages, which takes a long time". The ZoFS-1coffer variant skips all of
// this and rewrites the inode's mode word in user space.

// collectTreePages appends to pages every page of an in-coffer subtree rooted
// at ino (the inode page itself, data and indirect pages, directory structure
// pages, and in-coffer descendants; cross-coffer children are untouched). One
// list is passed down the recursion: callers start it from the thread's
// scratch and store back what it grew to. The caller holds the window open on
// the owning coffer.
func (f *FS) collectTreePages(th *proc.Thread, ino int64, typ vfs.FileType, pages []int64) []int64 {
	pages = append(pages, ino)
	switch typ {
	case vfs.TypeRegular:
		pages = f.filePages(th, ino, pages)
	case vfs.TypeDir:
		// One walk for the structure pages; the children to descend into
		// come off the index (without it, off that same walk).
		var children []dentry
		f.dirList(th, ino, math.MaxInt, func(pg int64) { pages = append(pages, pg) }, func(ents []cachedDe) {
			for i := range ents {
				if ents[i].de.cofferID == 0 {
					children = append(children, ents[i].de)
				}
			}
		})
		for _, c := range children {
			pages = f.collectTreePages(th, c.inode, vfs.FileType(c.typ), pages)
		}
	}
	return pages
}

// setPerm implements chmod and chown.
func (f *FS) setPerm(th *proc.Thread, path string, mode coffer.Mode, uid, gid uint32, chown bool) error {
	dir, base := vfs.SplitPath(path)

	// Coffer root (including "/"): one kernel metadata update.
	if id, ok := f.kern.LookupPath(th.Clk, path); ok {
		rp, _ := f.kern.Info(id)
		newMode, newUID, newGID := rp.Mode, rp.UID, rp.GID
		if chown {
			newUID, newGID = uid, gid
		} else {
			newMode = mode
		}
		if err := errno(f.kern.SetCofferMeta(th, id, newMode, newUID, newGID)); err != nil || path == "/" {
			return err
		}
		f.maybeMergeBack(th, dir, base, id)
		return nil
	}

	pos, err := f.walk(th, dir, true, true)
	if err != nil {
		return err
	}
	defer pos.close()
	if pos.typ != vfs.TypeDir {
		return vfs.ErrNotDir
	}
	bk := f.lockDirBucket(th, pos.ino, base)
	defer f.unlockDirBucket(th, bk)
	de, loc, err := f.dirLookup(th, pos.ino, base)
	if err != nil {
		return err
	}
	if de.cofferID != 0 {
		// Cross-coffer child: root-page update.
		target := coffer.ID(de.cofferID)
		rp, ok := f.kern.Info(target)
		if !ok {
			return vfs.ErrCorrupted
		}
		newMode, newUID, newGID := rp.Mode, rp.UID, rp.GID
		if chown {
			newUID, newGID = uid, gid
		} else {
			newMode = mode
		}
		if err := errno(f.kern.SetCofferMeta(th, target, newMode, newUID, newGID)); err != nil {
			return err
		}
		// If the child re-entered its parent's permission class, fold it
		// back: coffer_merge retags its pages into the parent and the
		// dentry becomes an ordinary in-coffer reference (Table 5).
		parentRP, _ := f.kern.Info(pos.m.id)
		if !f.opts.OneCoffer && f.sameCofferPerm(parentRP, newMode, newUID, newGID) {
			if tm, err := f.ensureMapped(th, target, true); err == nil {
				if f.kern.CofferMerge(th, pos.m.id, target) == nil {
					f.window(th, pos.m, true)
					f.dirUpdateCoffer(th, pos.ino, base, loc, 0, de.inode)
					f.mergedInto(th, pos.m, tm)
				}
			}
		}
		return nil
	}

	// In-coffer target.
	rp, _ := f.kern.Info(pos.m.id)
	hdr := f.readInodeHeader(th, de.inode)
	newMode, newUID, newGID := modeOf(hdr), u32at(hdr, inoUIDOff), u32at(hdr, inoGIDOff)
	if chown {
		newUID, newGID = uid, gid
	} else {
		newMode = mode
	}
	// Only the owner (or root) may change permissions.
	if u := th.Proc.UID(); u != 0 && u != rp.UID {
		return vfs.ErrPerm
	}

	writeInodePerm := func() {
		prev := th.Clk.SwapWriteClass(uint8(byteflow.ClassInode))
		defer th.Clk.SetWriteClass(prev)
		b := make([]byte, 12)
		putU32(b, 0, uint32(newMode))
		putU32(b, 4, newUID)
		putU32(b, 8, newGID)
		th.WriteNT(de.inode*pageSize+inoModeOff, b)
		th.Fence()
	}

	if f.opts.OneCoffer || f.sameCofferPerm(rp, newMode, newUID, newGID) {
		// Still the coffer's permission class (or the single-coffer
		// variant): a pure user-space inode update.
		writeInodePerm()
		return nil
	}

	// The expensive path: split the subtree into its own coffer.
	pages := f.collectTreePages(th, de.inode, vfs.FileType(de.typ), th.Scratch.Pages[:0])
	custom, err := f.allocPage(th, pos.m, classMeta)
	if err != nil {
		return err
	}
	pages = append(pages, custom)
	th.Scratch.Pages = pages
	writeInodePerm()
	newID, err := f.kern.CofferSplit(th, pos.m.id, path, newMode, newUID, newGID, pages, de.inode, custom)
	if err != nil {
		return errno(err)
	}
	f.dirUpdateCoffer(th, pos.ino, base, loc, uint32(newID), de.inode)
	return nil
}

// Chmod changes a file's permission bits.
func (f *FS) Chmod(th *proc.Thread, path string, mode coffer.Mode) error {
	return f.setPerm(th, path, mode, 0, 0, false)
}

// Chown changes a file's ownership.
func (f *FS) Chown(th *proc.Thread, path string, uid, gid uint32) error {
	return f.setPerm(th, path, 0, uid, gid, true)
}

// EnsureRootDir initializes the root coffer's root inode as a directory on
// first use (mkfs formats the kernel structures; the µFS owns the coffer
// interior). Requires write access to "/", i.e. root.
func (f *FS) EnsureRootDir(th *proc.Thread) error {
	m, err := f.ensureMapped(th, f.kern.RootCoffer(), true)
	if err != nil {
		return err
	}
	cl := f.window(th, m, true)
	defer cl.close()
	var magic [4]byte
	th.Read(m.root*pageSize, magic[:])
	if u32at(magic[:], 0) != inoMagic {
		rp, _ := f.kern.Info(m.id)
		f.initInode(th, m.root, vfs.TypeDir, uint32(rp.Mode), rp.UID, rp.GID)
	}
	return nil
}

// maybeMergeBack folds a coffer whose root permission re-entered its
// parent's class back into the parent coffer (Table 5: coffer_merge) and
// rewrites the parent dentry to an ordinary in-coffer reference.
// Best-effort: any failure leaves the split coffer in place, which is
// always a correct state — merging is an optimization, not an invariant.
func (f *FS) maybeMergeBack(th *proc.Thread, dir, base string, target coffer.ID) {
	if f.opts.OneCoffer {
		return
	}
	rp, ok := f.kern.Info(target)
	if !ok {
		return
	}
	pos, err := f.walk(th, dir, true, true)
	if err != nil {
		return
	}
	defer pos.close()
	if pos.typ != vfs.TypeDir {
		return
	}
	parentRP, ok := f.kern.Info(pos.m.id)
	if !ok || !f.sameCofferPerm(parentRP, rp.Mode, rp.UID, rp.GID) {
		return
	}
	bk := f.lockDirBucket(th, pos.ino, base)
	defer f.unlockDirBucket(th, bk)
	de, loc, err := f.dirLookup(th, pos.ino, base)
	if err != nil || coffer.ID(de.cofferID) != target {
		return
	}
	tm, err := f.ensureMapped(th, target, true)
	if err != nil {
		return
	}
	if f.kern.CofferMerge(th, pos.m.id, target) != nil {
		return
	}
	f.window(th, pos.m, true)
	f.dirUpdateCoffer(th, pos.ino, base, loc, 0, de.inode)
	// Back in-coffer, stat reads the inode's own permission words (the
	// root page is gone) — sync them with what the root page said.
	prev := th.Clk.SwapWriteClass(uint8(byteflow.ClassInode))
	defer th.Clk.SetWriteClass(prev)
	b := make([]byte, 12)
	putU32(b, 0, uint32(rp.Mode))
	putU32(b, 4, rp.UID)
	putU32(b, 8, rp.GID)
	th.WriteNT(de.inode*pageSize+inoModeOff, b)
	th.Fence()
	f.mergedInto(th, pos.m, tm)
}

// mergedInto finishes a successful coffer_merge of src into parent: src's
// mapping is gone, and its allocator pool page — retagged to the parent with
// every other page but referenced by nothing there — goes back on the
// parent's metadata list instead of leaking one page per split/merge cycle.
// The caller has the window open on parent.
func (f *FS) mergedInto(th *proc.Thread, parent, src *mount) {
	f.forgetMount(src.id)
	if debugPool {
		// A coffer_new pool page was placed by the kernel, not by allocPage.
		debugFree.Store(src.custom, 2)
	}
	f.freePage(th, parent, classMeta, src.custom)
}
