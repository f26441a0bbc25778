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
// scratch and store back what it grew to. A looping directory chain ends the
// collection with its error. The caller holds the window open on the owning
// coffer.
func (f *FS) collectTreePages(th *proc.Thread, ino int64, typ vfs.FileType, pages []int64) ([]int64, error) {
	pages = append(pages, ino)
	switch typ {
	case vfs.TypeRegular:
		pages = f.filePages(th, ino, pages)
	case vfs.TypeDir:
		// One walk for the structure pages; the children to descend into
		// come off the index (without it, off that same walk).
		var children []dentry
		err := f.dirList(th, ino, math.MaxInt, func(pg int64) { pages = append(pages, pg) }, func(ents []cachedDe) {
			for i := range ents {
				if ents[i].de.cofferID == 0 {
					children = append(children, ents[i].de)
				}
			}
		})
		for i := 0; err == nil && i < len(children); i++ {
			pages, err = f.collectTreePages(th, children[i].inode, vfs.FileType(children[i].typ), pages)
		}
		return pages, err
	}
	return pages, nil
}

// perm is a permission: the mode and the owning user and group.
type perm struct {
	mode     coffer.Mode
	uid, gid uint32
}

// changed is p after a chmod to mode, or with chown a chown to uid and gid.
func (p perm) changed(mode coffer.Mode, uid, gid uint32, chown bool) perm {
	if chown {
		p.uid, p.gid = uid, gid
	} else {
		p.mode = mode
	}
	return p
}

// writeInodePerm persists an inode's permission words, the ones stat reads
// for a file that is not a coffer root.
func (f *FS) writeInodePerm(th *proc.Thread, ino int64, p perm) {
	prev := th.Clk.SwapWriteClass(uint8(byteflow.ClassInode))
	defer th.Clk.SetWriteClass(prev)
	var b [12]byte
	putU32(b[:], 0, uint32(p.mode))
	putU32(b[:], 4, p.uid)
	putU32(b[:], 8, p.gid)
	th.WriteNT(ino*pageSize+inoModeOff, b[:])
	th.Fence()
}

// setPerm implements chmod and chown. A coffer root, found by its path or
// by its parent's cross-coffer dentry, changes in the kernel (chmodCoffer).
// A file inside a coffer changes its inode's words while it stays in the
// coffer's permission class, and is split into a coffer of its own when it
// leaves it.
func (f *FS) setPerm(th *proc.Thread, path string, mode coffer.Mode, uid, gid uint32, chown bool) error {
	if id, ok := f.kern.LookupPath(th.Clk, path); ok {
		rp, _ := f.kern.Info(id)
		p := perm{rp.Mode, rp.UID, rp.GID}.changed(mode, uid, gid, chown)
		return f.chmodCoffer(th, path, id, p, nil, dentry{}, deLoc{})
	}

	dir, base := vfs.SplitPath(path)
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
	id, err := f.target(de, path)
	if err != nil {
		return err
	}
	if id != 0 {
		rp, _ := f.kern.Info(id)
		p := perm{rp.Mode, rp.UID, rp.GID}.changed(mode, uid, gid, chown)
		return f.chmodCoffer(th, path, id, p, &pos, de, loc)
	}

	// In-coffer target.
	rp, _ := f.kern.Info(pos.m.id)
	hdr := f.readInodeHeader(th, de.inode)
	old := perm{modeOf(hdr), u32at(hdr, inoUIDOff), u32at(hdr, inoGIDOff)}
	p := old.changed(mode, uid, gid, chown)
	// Only the owner (or root) may change permissions.
	if u := th.Proc.UID(); u != 0 && u != rp.UID {
		return vfs.ErrPerm
	}
	if f.opts.OneCoffer || f.sameCofferPerm(rp, p.mode, p.uid, p.gid) {
		// Still the coffer's permission class (or the single-coffer
		// variant): a pure user-space inode update.
		f.writeInodePerm(th, de.inode, p)
		return nil
	}
	// The expensive path: split the subtree into its own coffer.
	pages, err := f.collectTreePages(th, de.inode, vfs.FileType(de.typ), th.Scratch.Pages[:0])
	if err != nil {
		return err
	}
	newID, err := f.split(th, pos.m, path, pages, de.inode, p, &old)
	if err != nil {
		return err
	}
	f.dirUpdateCoffer(th, pos.ino, base, loc, uint32(newID), de.inode)
	return nil
}

// split is the one coffer_split: the subtree rooted at inode root, whose
// pages the caller collected into the thread's scratch, leaves coffer m for
// a new coffer at path with permission p. The new coffer's allocator pool
// page comes off m's metadata list. With old set (a chmod), the root inode's
// permission words take p before the kernel call; a crash between the two
// leaves them saying p inside the old coffer. A refused split (not the
// owner, the path taken, no page for the new root) moved nothing: the words
// take old back and the pool page, still m's, goes back too.
func (f *FS) split(th *proc.Thread, m *mount, path string, pages []int64, root int64, p perm, old *perm) (coffer.ID, error) {
	custom, err := f.allocPage(th, m, classMeta)
	if err != nil {
		return 0, err
	}
	pages = append(pages, custom)
	th.Scratch.Pages = pages
	if old != nil {
		f.writeInodePerm(th, root, p)
	}
	id, err := f.kern.CofferSplit(th, m.id, path, p.mode, p.uid, p.gid, pages, root, custom)
	if err != nil {
		if old != nil {
			f.writeInodePerm(th, root, *old)
		}
		if owner, _ := f.kern.OwnerOf(custom); owner == m.id {
			f.freePage(th, m, classMeta, custom)
		}
		return 0, errno(err)
	}
	return id, nil
}

// chmodCoffer is the one permission change of a coffer root: coffer id's
// root page takes p, and if p re-entered the permission class of the coffer
// holding the root's dentry, the coffer folds back into that one (Table 5:
// coffer_merge), its dentry becomes an ordinary in-coffer reference, the
// root inode's own permission words take p — stat reads them once the root
// page is gone — and the pool page goes back (mergedInto). parent is that
// dentry's directory, walked and bucket-locked by the caller, which found
// the dentry de at loc; nil when the coffer was found by its path, and the
// merge-back walks to the dentry itself. The merge-back is best-effort: any
// failure leaves the split coffer in place, which is always a correct state.
func (f *FS) chmodCoffer(th *proc.Thread, path string, id coffer.ID, p perm, parent *walkPos, de dentry, loc deLoc) error {
	if err := errno(f.kern.SetCofferMeta(th, id, p.mode, p.uid, p.gid)); err != nil || path == "/" || f.opts.OneCoffer {
		return err
	}
	dir, base := vfs.SplitPath(path)
	byPath := parent == nil
	if byPath {
		pos, err := f.walk(th, dir, true, true)
		if err != nil {
			return nil
		}
		defer pos.close()
		if pos.typ != vfs.TypeDir {
			return nil
		}
		parent = &pos
	}
	if prp, ok := f.kern.Info(parent.m.id); !ok || !f.sameCofferPerm(prp, p.mode, p.uid, p.gid) {
		return nil
	}
	if byPath {
		bk := f.lockDirBucket(th, parent.ino, base)
		defer f.unlockDirBucket(th, bk)
		var err error
		if de, loc, err = f.dirLookup(th, parent.ino, base); err != nil {
			return nil
		}
		if named, err := f.target(de, path); err != nil || named != id {
			return nil
		}
	}
	tm, err := f.ensureMapped(th, id, true)
	if err != nil || f.kern.CofferMerge(th, parent.m.id, id) != nil {
		return nil
	}
	f.window(th, parent.m, true)
	f.dirUpdateCoffer(th, parent.ino, base, loc, 0, de.inode)
	f.writeInodePerm(th, de.inode, p)
	f.mergedInto(th, parent.m, tm)
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

// mergedInto finishes a successful coffer_merge of src into parent: src's
// mapping is gone, and its allocator pool page — retagged to the parent with
// every other page but referenced by nothing there — goes back on the
// parent's metadata list instead of leaking one page per split/merge cycle.
// ZoFS writes a pool page only over its magic word and slots, so that much is
// scrubbed. Whoever could write src can write parent too (a merge requires
// identical permissions), so the page's tail exposes nothing new. The caller
// has the window open on parent.
func (f *FS) mergedInto(th *proc.Thread, parent, src *mount) {
	f.forgetMount(src.id)
	if debugPool {
		// A coffer_new pool page was placed by the kernel, not by allocPage.
		debugFree.Store(src.custom, 2)
	}
	f.scrub(th, src.custom*pageSize, poolOff+poolSlots*slotSize)
	f.pushFree(th, parent, classMeta, src.custom)
}
