// Package vfs defines the file system interface implemented by every file
// system in this repository — ZoFS and the four baselines (Ext4-DAX, PMFS,
// NOVA, Strata) — so that the benchmark workloads (FxMark, Filebench,
// db_bench, TPC-C) and the FSLibs dispatcher can drive any of them
// interchangeably.
package vfs

import (
	"errors"
	"fmt"

	"zofs/internal/coffer"
	"zofs/internal/proc"
)

// Open flags (a subset of POSIX).
const (
	O_RDONLY = 0x0
	O_WRONLY = 0x1
	O_RDWR   = 0x2
	O_ACCESS = 0x3 // mask for the access mode
	O_CREATE = 0x40
	O_EXCL   = 0x80
	O_TRUNC  = 0x200
	O_APPEND = 0x400
)

// FileType distinguishes inode types.
type FileType uint8

const (
	TypeRegular FileType = iota + 1
	TypeDir
	TypeSymlink
)

func (t FileType) String() string {
	switch t {
	case TypeRegular:
		return "file"
	case TypeDir:
		return "dir"
	case TypeSymlink:
		return "symlink"
	default:
		return "?"
	}
}

// FileInfo is the stat result.
type FileInfo struct {
	Type   FileType
	Mode   coffer.Mode
	UID    uint32
	GID    uint32
	Size   int64
	Nlink  uint32
	Mtime  int64 // virtual ns
	Inode  int64 // implementation-defined inode identifier
	Coffer coffer.ID
}

// DirEntry is one readdir result.
type DirEntry struct {
	Name   string
	Type   FileType
	Inode  int64
	Coffer coffer.ID
}

// Error sentinels (errno analogues).
var (
	ErrNotExist    = errors.New("vfs: no such file or directory")
	ErrExist       = errors.New("vfs: file exists")
	ErrIsDir       = errors.New("vfs: is a directory")
	ErrNotDir      = errors.New("vfs: not a directory")
	ErrNotEmpty    = errors.New("vfs: directory not empty")
	ErrPerm        = errors.New("vfs: permission denied")
	ErrNoSpace     = errors.New("vfs: no space left on device")
	ErrNameTooLong = errors.New("vfs: file name too long")
	ErrInvalid     = errors.New("vfs: invalid argument")
	ErrBadFD       = errors.New("vfs: bad file descriptor")
	ErrCorrupted   = errors.New("vfs: file system structure corrupted")
	ErrIO          = errors.New("vfs: input/output error")
	ErrCrossDevice = errors.New("vfs: cross-device link")

	// Failure-path typed errors (graceful degradation, DESIGN.md §13).
	// ErrLeaseTimeout: a lease acquisition exhausted its retry deadline
	// budget behind a live foreign holder. ErrStaleLease: a resurrected
	// holder's publish was fenced off because its lease epoch was
	// superseded by a steal. ErrReadOnlyCoffer / ErrOfflineCoffer: the op
	// targeted a quarantined coffer (writes rejected / all access
	// rejected); other coffers keep serving.
	ErrLeaseTimeout   = errors.New("vfs: lease acquisition timed out")
	ErrStaleLease     = errors.New("vfs: stale lease epoch")
	ErrReadOnlyCoffer = errors.New("vfs: coffer quarantined read-only")
	ErrOfflineCoffer  = errors.New("vfs: coffer quarantined offline")
)

// SymlinkError is returned when a path walk expands a symbolic link: the
// µFS reports the rewritten path to the dispatcher, which re-dispatches the
// request (§4.2 "whenever one symlink is expanded in a µFS, the new path
// will be returned to the dispatcher"). The error may be the calling thread's
// own reusable one (ZoFS keeps it in proc.Thread.Scratch): read Path before
// the thread next calls into a file system, and do not keep the error.
type SymlinkError struct {
	// Path is the remaining path after expanding the link.
	Path string
}

func (e *SymlinkError) Error() string { return fmt.Sprintf("vfs: symlink expansion to %q", e.Path) }

// Handle is an open file. It is dead at Close: the file system may hand the
// value to the next open, so a caller drops every copy it holds when it calls
// Close and neither uses nor closes it again. (A file system that can tell —
// ZoFS, until the value is reused — answers a late call with ErrBadFD and a
// late Close with nil.) Calls other than Close may run concurrently; Close
// runs after all of them have returned.
type Handle interface {
	// ReadAt reads len(p) bytes from offset off, returning short counts at
	// end of file.
	ReadAt(th *proc.Thread, p []byte, off int64) (int, error)
	// WriteAt writes p at offset off, extending the file as needed.
	WriteAt(th *proc.Thread, p []byte, off int64) (int, error)
	// Append atomically appends p at the end of file, returning the offset
	// at which it landed.
	Append(th *proc.Thread, p []byte) (int64, error)
	// Stat returns current metadata.
	Stat(th *proc.Thread) (FileInfo, error)
	// Sync persists pending data (a no-op for the synchronous FSs).
	Sync(th *proc.Thread) error
	// Close releases the handle.
	Close(th *proc.Thread) error
}

// FileSystem is the interface every file system implements. Paths are
// absolute, slash-separated, already cleaned by the dispatcher.
type FileSystem interface {
	Name() string

	Create(th *proc.Thread, path string, mode coffer.Mode) (Handle, error)
	Open(th *proc.Thread, path string, flags int) (Handle, error)
	Mkdir(th *proc.Thread, path string, mode coffer.Mode) error
	Unlink(th *proc.Thread, path string) error
	Rmdir(th *proc.Thread, path string) error
	Rename(th *proc.Thread, oldPath, newPath string) error
	Stat(th *proc.Thread, path string) (FileInfo, error)
	Chmod(th *proc.Thread, path string, mode coffer.Mode) error
	Chown(th *proc.Thread, path string, uid, gid uint32) error
	Symlink(th *proc.Thread, target, link string) error
	Readlink(th *proc.Thread, path string) (string, error)
	// ReadDir lists a directory. As with readdir(3), the result may alias
	// storage owned by th and is valid until th's next ReadDir; a caller
	// that keeps it longer, or lists again while ranging over it, clones it.
	ReadDir(th *proc.Thread, path string) ([]DirEntry, error)
	Truncate(th *proc.Thread, path string, size int64) error
}

// SplitPath returns the parent directory and base name of a cleaned
// absolute path ("/a/b/c" -> "/a/b", "c"; "/x" -> "/", "x").
func SplitPath(p string) (dir, base string) {
	if p == "/" || p == "" {
		return "/", ""
	}
	i := len(p) - 1
	for i >= 0 && p[i] != '/' {
		i--
	}
	if i <= 0 {
		return "/", p[i+1:]
	}
	return p[:i], p[i+1:]
}

// Clean lexically normalizes a path: collapses "//", resolves "." and
// "..". Absolute paths stay absolute. A path that is already clean — what
// every caller on an op's hot path passes — is returned as it came, after one
// scan and with no allocation; anything else is rebuilt in one buffer.
func Clean(p string) string {
	if isClean(p) {
		return p
	}
	buf := make([]byte, 0, len(p)) // the result is never longer than p
	abs := len(p) > 0 && p[0] == '/'
	if abs {
		buf = append(buf, '/')
	}
	root := len(buf) // what ".." may not pop
	for i := 0; i <= len(p); {
		j := i
		for j < len(p) && p[j] != '/' {
			j++
		}
		c := p[i:j]
		i = j + 1
		if c == "" || c == "." {
			continue
		}
		if c == ".." {
			last := len(buf) // start of the last component kept so far
			for last > root && buf[last-1] != '/' {
				last--
			}
			if len(buf) > root && string(buf[last:]) != ".." {
				buf = buf[:max(last-1, root)]
				continue
			}
			if abs {
				continue
			}
		}
		if len(buf) > root {
			buf = append(buf, '/')
		}
		buf = append(buf, c...)
	}
	if len(buf) == 0 {
		return "."
	}
	return string(buf)
}

// isClean reports whether Clean(p) == p, for the paths it can tell in one
// scan: "/", ".", and any path whose components are all non-empty and none of
// them "." or "..".
func isClean(p string) bool {
	if p == "/" || p == "." {
		return true
	}
	i := 0
	if len(p) > 0 && p[0] == '/' {
		i = 1
	}
	for {
		j := i
		for j < len(p) && p[j] != '/' {
			j++
		}
		switch c := p[i:j]; c {
		case "", ".", "..":
			return false
		}
		if j == len(p) {
			return true
		}
		i = j + 1
	}
}

// Join concatenates a directory and a name.
func Join(dir, name string) string {
	if dir == "/" {
		return "/" + name
	}
	return dir + "/" + name
}
