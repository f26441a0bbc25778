package vfs

import (
	"bytes"
	"fmt"

	"zofs/internal/coffer"
	"zofs/internal/proc"
)

// OpKind names one operation of the vocabulary every checker shares: the
// conformance scripts, the crash checker's workload and the ZoFS property
// test each run Ops on a file system (Do) and record them in a Model (Apply).
type OpKind uint8

const (
	OpCreate   OpKind = iota // creat(2) Path with Mode
	OpMkdir                  // make directory Path with Mode
	OpWrite                  // write Data at Off into Path
	OpAppend                 // append Data to Path; it must land at Off
	OpFsync                  // sync Path
	OpTruncate               // cut or zero-extend Path to Size bytes
	OpOpen                   // open Path with Flags and close it
	OpRead                   // read Path at Off into a buffer of Size bytes, or len(Data) if more: exactly Data
	OpStat                   // Path is a regular file of Size bytes
	OpReadlink               // Path is a symlink to Dst
	OpRename                 // move Path, and all below it, to Dst
	OpUnlink                 // remove the file or symlink Path
	OpRmdir                  // remove the empty directory Path
	OpChmod                  // set Path's permission bits to Mode
	OpChown                  // set Path's owner to UID and GID
	OpSymlink                // make Path a symlink to Dst
)

var opNames = [...]string{"create", "mkdir", "write", "append", "fsync", "truncate", "open", "read",
	"stat", "readlink", "rename", "unlink", "rmdir", "chmod", "chown", "symlink"}

func (k OpKind) String() string {
	if int(k) < len(opNames) {
		return opNames[k]
	}
	return "?"
}

// Op is one operation on a file system: the fields its kind names, the rest
// zero. Opens, reads and stats follow symlinks, as the dispatcher does; the
// other kinds act on Path itself. A read whose Size exceeds len(Data) states
// where the file ends: the read must come back short, with Data alone.
type Op struct {
	Kind     OpKind
	Path     string
	Dst      string // rename destination, symlink target
	Off      int64
	Size     int64
	Data     []byte
	Mode     coffer.Mode
	Flags    int // OpOpen's flags; of them the model records O_TRUNC
	UID, GID uint32
}

func (op Op) String() string {
	switch op.Kind {
	case OpWrite, OpAppend, OpRead:
		return fmt.Sprintf("%v %s off=%d len=%d", op.Kind, op.Path, op.Off, len(op.Data))
	case OpRename, OpSymlink, OpReadlink:
		return fmt.Sprintf("%v %s -> %s", op.Kind, op.Path, op.Dst)
	case OpTruncate, OpStat:
		return fmt.Sprintf("%v %s size=%d", op.Kind, op.Path, op.Size)
	case OpChmod:
		return fmt.Sprintf("%v %s %o", op.Kind, op.Path, op.Mode)
	case OpOpen:
		return fmt.Sprintf("%v %s flags=%#x", op.Kind, op.Path, op.Flags)
	case OpChown:
		return fmt.Sprintf("%v %s %d:%d", op.Kind, op.Path, op.UID, op.GID)
	default:
		return op.Kind.String() + " " + op.Path
	}
}

// Do runs the op on fs as th. It returns the file system's error, or one of
// its own when what the file system returned differs from what the op states:
// an append landing elsewhere than Off, a read, stat or readlink result other
// than the op's.
func (op Op) Do(fs FileSystem, th *proc.Thread) error {
	switch op.Kind {
	case OpCreate:
		h, err := fs.Create(th, op.Path, op.Mode)
		if err != nil {
			return err
		}
		return h.Close(th)
	case OpMkdir:
		return fs.Mkdir(th, op.Path, op.Mode)
	case OpTruncate:
		return fs.Truncate(th, op.Path, op.Size)
	case OpStat:
		return op.statIs(Follow(op.Path, func(p string) (FileInfo, error) { return fs.Stat(th, p) }))
	case OpReadlink:
		target, err := fs.Readlink(th, op.Path)
		if err == nil && target != op.Dst {
			return fmt.Errorf("%v: target %s", op, target)
		}
		return err
	case OpRename:
		return fs.Rename(th, op.Path, op.Dst)
	case OpUnlink:
		return fs.Unlink(th, op.Path)
	case OpRmdir:
		return fs.Rmdir(th, op.Path)
	case OpChmod:
		return fs.Chmod(th, op.Path, op.Mode)
	case OpChown:
		return fs.Chown(th, op.Path, op.UID, op.GID)
	case OpSymlink:
		return fs.Symlink(th, op.Dst, op.Path)
	}
	// The rest act through a handle.
	flags := O_RDWR
	switch op.Kind {
	case OpOpen:
		flags = op.Flags
	case OpRead:
		flags = O_RDONLY
	}
	h, err := Follow(op.Path, func(p string) (Handle, error) { return fs.Open(th, p, flags) })
	if err != nil {
		return err
	}
	if err := op.DoOn(th, h); err != nil {
		h.Close(th)
		return err
	}
	return h.Close(th)
}

// DoOn runs a write, append, fsync, read, stat or open op through h, a
// handle open on op.Path, as Do does through a handle it opens and closes
// itself (a stat through h, Do through the path). A caller holding h across
// other ops checks what a handle opened before them sees.
func (op Op) DoOn(th *proc.Thread, h Handle) error {
	switch op.Kind {
	case OpWrite:
		n, err := h.WriteAt(th, op.Data, op.Off)
		if err == nil && n != len(op.Data) {
			return fmt.Errorf("%v: wrote %d bytes", op, n)
		}
		return err
	case OpAppend:
		off, err := h.Append(th, op.Data)
		if err == nil && off != op.Off {
			return fmt.Errorf("%v: landed at %d", op, off)
		}
		return err
	case OpFsync:
		return h.Sync(th)
	case OpRead:
		got := make([]byte, max(op.Size, int64(len(op.Data)))) // room past the end of Data
		n, err := h.ReadAt(th, got, op.Off)
		if err == nil && !bytes.Equal(got[:n], op.Data) {
			return fmt.Errorf("%v: read %d bytes that differ", op, n)
		}
		return err
	case OpStat:
		return op.statIs(h.Stat(th))
	case OpOpen:
		return nil
	}
	return fmt.Errorf("vfs: unknown op kind %d", op.Kind)
}

// statIs returns a stat's error, or one of its own when fi is not a regular
// file of op.Size bytes.
func (op Op) statIs(fi FileInfo, err error) error {
	if err == nil && (fi.Type != TypeRegular || fi.Size != op.Size) {
		return fmt.Errorf("%v: a %v of %d bytes", op, fi.Type, fi.Size)
	}
	return err
}

// Apply records an op the file system completed. Fsync, read, stat and
// readlink change nothing; an open records only O_TRUNC.
func (m *Model) Apply(op Op) {
	switch op.Kind {
	case OpCreate:
		m.Create(op.Path, op.Mode)
	case OpMkdir:
		m.Mkdir(op.Path)
	case OpWrite, OpAppend:
		m.Write(op.Path, op.Data, op.Off)
	case OpTruncate:
		m.Truncate(op.Path, op.Size)
	case OpOpen:
		if op.Flags&O_TRUNC != 0 {
			m.Truncate(op.Path, 0)
		}
	case OpRename:
		m.Rename(op.Path, op.Dst)
	case OpUnlink:
		m.Unlink(op.Path)
	case OpRmdir:
		m.Rmdir(op.Path)
	case OpChmod:
		m.Chmod(op.Path, op.Mode)
	case OpChown:
		m.Chown(op.Path, op.UID, op.GID)
	case OpSymlink:
		m.Symlink(op.Dst, op.Path)
	}
}
