package zofs

import (
	"zofs/internal/coffer"
	"zofs/internal/perfmodel"
	"zofs/internal/proc"
	"zofs/internal/vfs"
)

// Rename moves a file or directory. Renames within one coffer are pure
// user-space dentry moves; renames that cross coffers must move every page
// of the file through the kernel (MovePages / coffer_split), which is the
// worst case measured in Table 9.
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
	kSrc := bucketKey(src.ino, oldBase)
	kDst := bucketKey(dst.ino, newBase)
	switch {
	case kSrc == kDst:
		f.sh.lockOf(kSrc).Lock(th.Clk)
		defer f.sh.lockOf(kSrc).Unlock(th.Clk)
	case kSrc < kDst:
		f.sh.lockOf(kSrc).Lock(th.Clk)
		defer f.sh.lockOf(kSrc).Unlock(th.Clk)
		f.sh.lockOf(kDst).Lock(th.Clk)
		defer f.sh.lockOf(kDst).Unlock(th.Clk)
	default:
		f.sh.lockOf(kDst).Lock(th.Clk)
		defer f.sh.lockOf(kDst).Unlock(th.Clk)
		f.sh.lockOf(kSrc).Lock(th.Clk)
		defer f.sh.lockOf(kSrc).Unlock(th.Clk)
	}
	th.CPU(4 * perfmodel.CPULockAcquire) // bucket lease acquisitions

	f.window(th, src.m, true)
	de, srcLoc, err := f.dirLookup(th, src.ino, oldBase)
	if err != nil {
		return err
	}

	// Clear the destination name if it exists (files only).
	f.window(th, dst.m, true)
	if old, oldLoc, err := f.dirLookup(th, dst.ino, newBase); err == nil {
		if vfs.FileType(old.typ) == vfs.TypeDir {
			return vfs.ErrExist
		}
		f.dirRemove(th, dst.ino, newBase, oldLoc)
		if old.cofferID != 0 {
			if err := f.deleteCoffer(th, coffer.ID(old.cofferID)); err != nil {
				return err
			}
		} else if !f.sh.orphan(old.inode, old.typ) {
			f.freeInode(th, dst.m, old.inode, vfs.FileType(old.typ))
		}
	}

	switch {
	case de.cofferID != 0:
		// The child is a coffer root: move the dentry and let the kernel
		// rewrite the coffer path tree.
		if err := f.dirInsert(th, dst.m, dst.ino, newBase, de.typ, de.cofferID, de.inode); err != nil {
			return err
		}
		f.window(th, src.m, true)
		f.dirRemove(th, src.ino, oldBase, srcLoc)
		return errno(f.kern.RenameCoffer(th, oldPath, newPath))

	case src.m.id == dst.m.id:
		// Pure in-coffer move: two atomic dentry updates.
		if err := f.dirInsert(th, dst.m, dst.ino, newBase, de.typ, 0, de.inode); err != nil {
			return err
		}
		f.dirRemove(th, src.ino, oldBase, srcLoc)
		if vfs.FileType(de.typ) == vfs.TypeDir {
			// Keep descendant coffer paths consistent.
			return errno(f.kern.RenamePrefix(th, oldPath, newPath))
		}
		return nil

	case vfs.FileType(de.typ) == vfs.TypeDir:
		// Moving a plain directory between coffers would require moving an
		// arbitrary subtree through the kernel; like a cross-device rename,
		// callers must copy instead.
		return vfs.ErrCrossDevice

	default:
		// Regular file or symlink moving between two coffers.
		rpSrc, _ := f.kern.Info(src.m.id)
		rpDst, _ := f.kern.Info(dst.m.id)
		f.window(th, src.m, true)
		pages, _ := f.collectTreePages(th, de.inode, vfs.FileType(de.typ), th.Scratch.Pages[:0]) // a file's: no walk to fail
		th.Scratch.Pages = pages
		if execMask(rpSrc.Mode) == execMask(rpDst.Mode) && rpSrc.UID == rpDst.UID && rpSrc.GID == rpDst.GID {
			// Same permission: retag the pages into the destination coffer.
			if err := errno(f.kern.MovePages(th, src.m.id, dst.m.id, pages)); err != nil {
				return err
			}
			f.window(th, dst.m, true)
			if err := f.dirInsert(th, dst.m, dst.ino, newBase, de.typ, 0, de.inode); err != nil {
				return err
			}
			f.window(th, src.m, true)
			f.dirRemove(th, src.ino, oldBase, srcLoc)
			return nil
		}
		// Different permission: the file becomes its own coffer at the new
		// path (split), referenced by a cross-coffer dentry.
		newID, err := f.split(th, src.m, newPath, pages, de.inode, perm{rpSrc.Mode, rpSrc.UID, rpSrc.GID}, nil)
		if err != nil {
			return err
		}
		f.window(th, dst.m, true)
		if err := f.dirInsert(th, dst.m, dst.ino, newBase, de.typ, uint32(newID), de.inode); err != nil {
			return err
		}
		f.window(th, src.m, true)
		f.dirRemove(th, src.ino, oldBase, srcLoc)
		return nil
	}
}
