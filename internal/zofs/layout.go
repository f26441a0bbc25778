// Package zofs implements the example µFS of paper §5: a synchronous
// user-space NVM file system managing the interior of ZoFS-type coffers.
//
// On-NVM structures (all 4KB-page granularity, §5.1):
//
//   - Inodes occupy a full page: a 64-byte header, then one indirect and
//     one double-indirect pointer, then 392 direct block pointers
//     (Ext4-style; an unlink reads the two indirect words and the direct
//     slots the file's size covers as one run). Symlink targets live
//     inside the inode page; a directory inode points to its first-level
//     hash page.
//   - Directories are adaptive two-level hash tables: a first-level page of
//     512 pointers to second-level pages; each second-level page holds 16
//     inline dentries in its first half and a 256-bucket hash table in its
//     second half, each bucket heading a linked list of dentry chain pages.
//     New dentries go to the inline area first; pages are allocated on
//     demand.
//   - Each dentry carries the filename hash, the name, the coffer-ID of a
//     cross-coffer child (0 = same coffer) and the inode pointer. Its first
//     8 bytes are the atomic commit word.
//   - The coffer's custom page holds the shared pool of leased per-thread
//     free-list structures (§5.2, Figure 6); free pages are chained through
//     their first 8 bytes.
package zofs

import (
	"encoding/binary"
	"hash/fnv"

	"zofs/internal/nvm"
)

// pageSize aliases the device page size for brevity.
const pageSize = nvm.PageSize

// Inode page layout.
const (
	inoMagic    = 0x5A494E4F // "ZINO"
	inoMagicOff = 0          // u32
	inoTypeOff  = 4          // u32 (vfs.FileType)
	inoModeOff  = 8          // u32
	inoUIDOff   = 12         // u32
	inoGIDOff   = 16         // u32
	inoNlinkOff = 20         // u32
	inoSizeOff  = 24         // u64
	inoMtimeOff = 32         // u64
	inoCtimeOff = 40         // u64
	inoLeaseOff = 48         // u64 lease lock word {tid:16 | epoch:8 | expiry:40}
	inoDirL1Off = 56         // u64 (directories: first-level hash page)

	inoHeaderLen = 64 // bytes read as "the inode header"

	inoSymLenOff = 64 // u16 (symlinks: target length)
	inoSymTgtOff = 66 // symlink target bytes (max symMaxLen)
	symMaxLen    = 1024

	// Regular files: the indirect and double-indirect words sit directly
	// behind the header and the direct slots follow them, so the pointers
	// a file's size covers are one run from the header on.
	inoIndirectOff = 64  // u64
	inoDIndirOff   = 72  // u64
	inoDirectOff   = 80  // u64 x inoDirectCnt
	inoDirectCnt   = 392 // slots end at inoInlineFlag

	// Inline data (§5.1's "embedding file data in the inode page", the
	// paper's future-work optimization, enabled by Options.InlineData):
	// small files live entirely in the tail of their inode page.
	inoInlineFlag = 3216 // u64: 1 = data is inline
	inoInlineOff  = 3224
	inlineCap     = nvm.PageSize - inoInlineOff // 872 bytes

	ptrsPerPage = nvm.PageSize / 8 // 512
)

// maxBlocks is the largest block index + 1 a file can map.
const maxBlocks = inoDirectCnt + ptrsPerPage + ptrsPerPage*ptrsPerPage

// Dentry layout (128 bytes; first 8 bytes are the atomic commit word:
// state, name length and name hash — §5.3's ordered update commit point).
const (
	dentrySize  = 128
	deCommitOff = 0  // u64: state u8 | nameLen u8 | pad u16 | hash u32
	deCofferOff = 8  // u32 cross-coffer target (0 = same coffer)
	deInodeOff  = 16 // u64 inode page (cross-coffer: target's root inode)
	deNameOff   = 24
	MaxNameLen  = dentrySize - deNameOff // 104
	deStateFree = 0
	deStateLive = 1
)

// Directory page geometry (§5.1).
const (
	dirL1Slots     = 512                                        // first-level hash pointers
	l2InlineCnt    = 16                                         // inline dentries in a second-level page
	l2BucketOff    = l2InlineCnt * dentrySize                   // 2048
	l2Buckets      = 256                                        // second-level hash buckets
	chainNextOff   = 0                                          // u64 next chain page
	chainFirstDe   = 64                                         // dentries start here in a chain page
	chainDentryCnt = (nvm.PageSize - chainFirstDe) / dentrySize // 31
)

// Custom (per-coffer) page: the allocator pool (§5.2, Figure 6).
const (
	customMagic    = 0x5A435553544F4D00 // "ZCUSTOM\0"
	customMagicOff = 0
	poolOff        = 64
	slotSize       = 32 // {tid u64, lease u64 (expiry ns), head u64, count u64}
	poolSlots      = 62 // 62*32 = 1984 bytes, fits the page comfortably
	slotTIDOff     = 0
	slotLeaseOff   = 8
	slotHeadOff    = 16
	slotCountOff   = 24
)

// leaseDuration is the validity window of allocator and inode leases in
// virtual nanoseconds.
const leaseDuration = 100_000_000 // 100ms

// nameHash hashes a file name once; the three hash consumers (first-level
// index, second-level bucket, dentry check word) take different bit ranges.
func nameHash(name string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(name))
	return h.Sum64()
}

func l1Index(h uint64) int64    { return int64(h % dirL1Slots) }
func l2Bucket(h uint64) int64   { return int64((h >> 16) % l2Buckets) }
func checkHash(h uint64) uint32 { return uint32(h) }

// dentryCommit packs the commit word: state, name length, file type and
// name hash all publish in one atomic 8-byte store.
func dentryCommit(state uint8, nameLen int, typ uint8, hash uint32) uint64 {
	return uint64(state) | uint64(nameLen)<<8 | uint64(typ)<<16 | uint64(hash)<<32
}

// unpackCommit splits the commit word.
func unpackCommit(w uint64) (state uint8, nameLen int, typ uint8, hash uint32) {
	return uint8(w), int(uint8(w >> 8)), uint8(w >> 16), uint32(w >> 32)
}

// leaseWord packs an allocator-slot lease lock value: owner tid in the top
// 16 bits, expiry virtual time (ns) in the low 48.
func leaseWord(tid int, expiry int64) uint64 {
	return uint64(tid&0xffff)<<48 | uint64(expiry)&0xffffffffffff
}

// unpackLease splits a slot lease word.
func unpackLease(w uint64) (tid int, expiry int64) {
	return int(w >> 48), int64(w & 0xffffffffffff)
}

// inoLeaseWord packs an inode lease lock value: owner tid (top 16 bits), a
// fencing epoch (8 bits, bumped on every steal so a resurrected stale
// holder's publishes are rejected, and never back to 0: nextEpoch) and the expiry virtual time in the low
// 40 bits (~18 virtual minutes of range — campaigns run milliseconds).
func inoLeaseWord(tid, epoch int, expiry int64) uint64 {
	return uint64(tid&0xffff)<<48 | uint64(epoch&0xff)<<40 | uint64(expiry)&0xffffffffff
}

// unpackInoLease splits an inode lease word.
func unpackInoLease(w uint64) (tid, epoch int, expiry int64) {
	return int(w >> 48), int(uint8(w >> 40)), int64(w & 0xffffffffff)
}

// u64at / putU64 are little helpers over little-endian encoding.
func u64at(b []byte, off int) uint64     { return binary.LittleEndian.Uint64(b[off:]) }
func u32at(b []byte, off int) uint32     { return binary.LittleEndian.Uint32(b[off:]) }
func putU64(b []byte, off int, v uint64) { binary.LittleEndian.PutUint64(b[off:], v) }
func putU32(b []byte, off int, v uint32) { binary.LittleEndian.PutUint32(b[off:], v) }
