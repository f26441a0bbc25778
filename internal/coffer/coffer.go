// Package coffer defines the coffer abstraction (paper §3.1): the on-NVM
// layout of a coffer root page, coffer types, page extents, and the
// permission model shared by KernFS (which writes root pages and enforces
// permissions) and µFSs (which read root pages through read-only mappings).
//
// A coffer is a collection of NVM pages sharing one permission. Its root
// page is kernel-managed metadata: the coffer's identity, type, permission,
// path, and the entry points (root-file inode page and a per-coffer custom
// page) that the owning µFS uses.
package coffer

import (
	"encoding/binary"
	"fmt"

	"zofs/internal/nvm"
)

// ID identifies a coffer: the page number of its root page (§4.1 "Treasury
// uses the relative address of the root page (i.e., the coffer-ID)").
// ID 0 means "no coffer" / free page in the allocation table.
type ID uint32

// KernelID tags pages owned by KernFS metadata (superblock, allocation
// table, path table) in the allocation table.
const KernelID ID = 0xFFFFFFFF

// Type distinguishes which µFS manages a coffer's interior (§3.2: "different
// types of coffers are distinguished by the coffer type in the coffer
// metadata").
type Type uint32

const (
	// TypeNone marks an uninitialized coffer.
	TypeNone Type = iota
	// TypeZoFS is the example µFS of §5.
	TypeZoFS
)

// Extent is a contiguous run of pages.
type Extent struct {
	Start int64 // first page number
	Count int64 // number of pages
}

// End returns one past the last page.
func (e Extent) End() int64 { return e.Start + e.Count }

func (e Extent) String() string { return fmt.Sprintf("[%d+%d)", e.Start, e.Count) }

// Mode is a Unix-style permission word (lower 9 bits rwxrwxrwx; the
// execution bit is recorded but not enforced — §2.3, §4.3).
type Mode uint32

// Access implements the coffer-granularity permission check KernFS performs
// on coffer_map (§3.1): may a process with (uid, gid) read (write=false) or
// write (write=true) a coffer owned by (owner, group) with mode m?
// Root (uid 0) bypasses the check as in Unix.
func Access(m Mode, owner, group, uid, gid uint32, write bool) bool {
	if uid == 0 {
		return true
	}
	var shift uint
	switch {
	case uid == owner:
		shift = 6
	case gid == group:
		shift = 3
	default:
		shift = 0
	}
	bits := uint32(m) >> shift
	if write {
		return bits&0o2 != 0
	}
	return bits&0o4 != 0
}

// Class is a permission class: a mode without the execution bits, recorded
// but not enforced (§2.3), and the owning user and group. A file shares its
// parent's coffer only in its class (§3.1); the survey groups files by it.
type Class struct {
	Mode     Mode
	UID, GID uint32
}

// ClassOf is the permission class of mode m owned by (uid, gid).
func ClassOf(m Mode, uid, gid uint32) Class { return Class{m &^ 0o111, uid, gid} }

// Class is the coffer's permission class.
func (rp *RootPage) Class() Class { return ClassOf(rp.Mode, rp.UID, rp.GID) }

// Root page layout. The root page is the first page of every coffer,
// written only by KernFS and mapped read-only into user space.
const (
	rpMagicOff     = 0  // u64
	rpIDOff        = 8  // u32
	rpTypeOff      = 12 // u32
	rpModeOff      = 16 // u32
	rpUIDOff       = 20 // u32
	rpGIDOff       = 24 // u32
	rpFlagsOff     = 28 // u32
	rpRootInodeOff = 32 // u64 page number of the root-file inode page
	rpCustomOff    = 40 // u64 page number of the per-coffer custom page
	rpLeaseOff     = 48 // u64 recovery lease expiry (virtual ns)
	rpPathLenOff   = 56 // u16
	rpSplitFromOff = 60 // u32 coffer a split took the pages from, or 0
	rpPathOff      = 64 // path bytes

	// RootPageMagic identifies a valid coffer root page.
	RootPageMagic = 0x5A6F46535F435250 // "ZoFS_CRP"

	// FlagInRecovery marks a coffer under recovery (§3.5).
	FlagInRecovery = 1 << 0

	// FlagReadOnly marks a coffer quarantined read-only (DESIGN.md §13):
	// repeated MPK violations pointed at it, so KernFS refuses write
	// mappings and enlarges while reads keep serving. Persistent — set and
	// cleared only through the kernel's quarantine calls.
	FlagReadOnly = 1 << 1

	// FlagOffline marks a coffer quarantined offline: fsck found
	// unrepairable damage, so every mapping is refused until an operator
	// (or a successful re-recovery) lifts the quarantine. Other coffers
	// keep serving — the paper's containment claim made operational.
	FlagOffline = 1 << 2

	// MaxPathLen bounds coffer paths so they fit in the root page.
	MaxPathLen = nvm.PageSize - rpPathOff
)

// RootPage is the decoded, volatile view of a coffer root page.
type RootPage struct {
	ID        ID
	Type      Type
	Mode      Mode
	UID, GID  uint32
	Flags     uint32
	RootInode int64 // page number
	Custom    int64 // page number
	Lease     uint64
	// SplitFrom is the coffer coffer_split took this coffer's pages from,
	// which still names them until the split publishes; coffer_delete
	// clears it. Mount gives the pages of an unpublished coffer back to it.
	// Zero (no coffer's ID: page 0 is the superblock) otherwise.
	SplitFrom ID
	Path      string
}

// EncodeRootPage serializes a root page into the caller's page buffer
// (normally a stack variable), overwriting all of it.
func EncodeRootPage(buf *[nvm.PageSize]byte, rp *RootPage) {
	if len(rp.Path) > MaxPathLen {
		panic(fmt.Sprintf("coffer: path too long (%d bytes)", len(rp.Path)))
	}
	clear(buf[:])
	binary.LittleEndian.PutUint64(buf[rpMagicOff:], RootPageMagic)
	binary.LittleEndian.PutUint32(buf[rpIDOff:], uint32(rp.ID))
	binary.LittleEndian.PutUint32(buf[rpTypeOff:], uint32(rp.Type))
	binary.LittleEndian.PutUint32(buf[rpModeOff:], uint32(rp.Mode))
	binary.LittleEndian.PutUint32(buf[rpUIDOff:], rp.UID)
	binary.LittleEndian.PutUint32(buf[rpGIDOff:], rp.GID)
	binary.LittleEndian.PutUint32(buf[rpFlagsOff:], rp.Flags)
	binary.LittleEndian.PutUint64(buf[rpRootInodeOff:], uint64(rp.RootInode))
	binary.LittleEndian.PutUint64(buf[rpCustomOff:], uint64(rp.Custom))
	binary.LittleEndian.PutUint64(buf[rpLeaseOff:], rp.Lease)
	binary.LittleEndian.PutUint16(buf[rpPathLenOff:], uint16(len(rp.Path)))
	binary.LittleEndian.PutUint32(buf[rpSplitFromOff:], uint32(rp.SplitFrom))
	copy(buf[rpPathOff:], rp.Path)
}

// RootPageLen is how many leading bytes of an encoded root page carry a path
// of pathLen bytes: the header and the path, rounded up to whole 8-byte words.
// Everything after them is zero.
func RootPageLen(pathLen int) int { return (rpPathOff + pathLen + 7) &^ 7 }

// DecodeRootPage parses a root page buffer. It returns an error (not a
// panic) because corrupted root pages are an expected recovery input.
func DecodeRootPage(buf []byte) (*RootPage, error) {
	if len(buf) < nvm.PageSize {
		return nil, fmt.Errorf("coffer: root page buffer too small (%d)", len(buf))
	}
	if binary.LittleEndian.Uint64(buf[rpMagicOff:]) != RootPageMagic {
		return nil, fmt.Errorf("coffer: bad root page magic")
	}
	pl := int(binary.LittleEndian.Uint16(buf[rpPathLenOff:]))
	if pl > MaxPathLen {
		return nil, fmt.Errorf("coffer: corrupt path length %d", pl)
	}
	return &RootPage{
		ID:        ID(binary.LittleEndian.Uint32(buf[rpIDOff:])),
		Type:      Type(binary.LittleEndian.Uint32(buf[rpTypeOff:])),
		Mode:      Mode(binary.LittleEndian.Uint32(buf[rpModeOff:])),
		UID:       binary.LittleEndian.Uint32(buf[rpUIDOff:]),
		GID:       binary.LittleEndian.Uint32(buf[rpGIDOff:]),
		Flags:     binary.LittleEndian.Uint32(buf[rpFlagsOff:]),
		RootInode: int64(binary.LittleEndian.Uint64(buf[rpRootInodeOff:])),
		Custom:    int64(binary.LittleEndian.Uint64(buf[rpCustomOff:])),
		Lease:     binary.LittleEndian.Uint64(buf[rpLeaseOff:]),
		SplitFrom: ID(binary.LittleEndian.Uint32(buf[rpSplitFromOff:])),
		Path:      string(buf[rpPathOff : rpPathOff+pl]),
	}, nil
}
