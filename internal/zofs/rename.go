package zofs

import (
	"zofs/internal/kernfs"
	"zofs/internal/perfmodel"
	"zofs/internal/proc"
	"zofs/internal/vfs"
)

// Rename moves a file or directory. Renames within one coffer are pure
// user-space dentry moves; renames that cross coffers must move every page
// of the file through the kernel (MovePages / coffer_split), which is the
// worst case measured in Table 9. A replaced file goes as remove takes a
// name (unname); both names' dentries must pass the naming rule (target).
func (f *FS) Rename(th *proc.Thread, oldPath, newPath string) error {
	oldDir, oldBase := vfs.SplitPath(oldPath)
	newDir, newBase := vfs.SplitPath(newPath)
	if oldBase == "" || newBase == "" {
		return vfs.ErrInvalid
	}
	if len(newBase) > MaxNameLen {
		return vfs.ErrNameTooLong
	}
	if oldPath == newPath {
		return nil
	}

	src, err := f.walk(th, oldDir, true, true)
	if err != nil {
		return err
	}
	defer src.close()
	if src.typ != vfs.TypeDir {
		return vfs.ErrNotDir
	}
	dst, err := f.walk(th, newDir, true, true)
	if err != nil {
		return err
	}
	defer dst.close()
	if dst.typ != vfs.TypeDir {
		return vfs.ErrNotDir
	}

	// Lock both name buckets in key order (one lock if they coincide).
	lo, hi := bucketKey(src.ino, oldBase), bucketKey(dst.ino, newBase)
	if hi < lo {
		lo, hi = hi, lo
	}
	f.sh.lockOf(lo).Lock(th.Clk)
	defer f.sh.lockOf(lo).Unlock(th.Clk)
	if hi != lo {
		f.sh.lockOf(hi).Lock(th.Clk)
		defer f.sh.lockOf(hi).Unlock(th.Clk)
	}
	th.CPU(4 * perfmodel.CPULockAcquire) // bucket lease acquisitions

	f.window(th, src.m, true)
	de, srcLoc, err := f.dirLookup(th, src.ino, oldBase)
	if err != nil {
		return err
	}
	id, err := f.target(de, oldPath)
	if err != nil {
		return err
	}
	if id != 0 {
		if rp, _ := f.kern.Info(id); !kernfs.MayRename(rp, th.Proc.UID()) {
			return vfs.ErrPerm // the kernel would refuse: nothing is touched
		}
	}
	crosses := id == 0 && src.m.id != dst.m.id // an in-coffer child changes coffer
	if crosses && vfs.FileType(de.typ) == vfs.TypeDir {
		// Moving a plain directory between coffers would require moving an
		// arbitrary subtree through the kernel; like a cross-device rename,
		// callers must copy instead.
		return vfs.ErrCrossDevice
	}

	// A file at the destination goes first, the way remove takes a name.
	f.window(th, dst.m, true)
	if old, oldLoc, err := f.dirLookup(th, dst.ino, newBase); err == nil {
		if vfs.FileType(old.typ) == vfs.TypeDir {
			return vfs.ErrExist
		}
		if _, err := f.unname(th, dst, newPath, old, oldLoc, false); err != nil {
			return err
		}
		f.reclaim(th, dst.m, old, 0)
	}

	cid := uint32(id)
	if crosses {
		// A file or symlink changes coffer: its pages are retagged into the
		// destination's, or with another permission split into their own.
		rpSrc, _ := f.kern.Info(src.m.id)
		rpDst, _ := f.kern.Info(dst.m.id)
		f.window(th, src.m, true)
		pages, _ := f.collectTreePages(th, de.inode, vfs.FileType(de.typ), th.Scratch.Pages[:0]) // a file's: no walk to fail
		th.Scratch.Pages = pages
		if execMask(rpSrc.Mode) == execMask(rpDst.Mode) && rpSrc.UID == rpDst.UID && rpSrc.GID == rpDst.GID {
			if err := errno(f.kern.MovePages(th, src.m.id, dst.m.id, pages)); err != nil {
				return err
			}
		} else {
			newID, err := f.split(th, src.m, newPath, pages, de.inode, perm{rpSrc.Mode, rpSrc.UID, rpSrc.GID}, nil)
			if err != nil {
				return err
			}
			cid = uint32(newID)
		}
		f.window(th, dst.m, true)
	}

	// The name moves: inserted at the destination, then killed at the source.
	if err := f.dirInsert(th, dst.m, dst.ino, newBase, de.typ, cid, de.inode); err != nil {
		return err
	}
	if id != 0 || crosses {
		f.window(th, src.m, true)
	}
	f.dirRemove(th, src.ino, oldBase, srcLoc)
	switch {
	case id != 0:
		// The kernel moves the coffer's path tree. If it refuses (a chown
		// raced the check above), the name goes back: in at the source, out
		// at the destination.
		err := errno(f.kern.RenameCoffer(th, oldPath, newPath))
		if err != nil && f.dirInsert(th, src.m, src.ino, oldBase, de.typ, cid, de.inode) == nil {
			f.window(th, dst.m, true)
			if _, loc, lerr := f.dirLookup(th, dst.ino, newBase); lerr == nil {
				f.dirRemove(th, dst.ino, newBase, loc)
			}
		}
		return err
	case vfs.FileType(de.typ) == vfs.TypeDir:
		// Keep descendant coffer paths consistent.
		return errno(f.kern.RenamePrefix(th, oldPath, newPath))
	}
	return nil
}
