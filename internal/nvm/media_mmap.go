//go:build linux && !race

package nvm

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"syscall"
	"unsafe"
)

// media is a device's backing memory: one anonymous private mapping over the
// whole chunk table, as the kernel maps NVM into a process. The kernel hands
// out zero pages on first touch, so materializing a chunk is storing a
// pointer into the mapping — no Go allocation, no memclr, nothing for the
// collector to pace itself around — and untouched space costs no memory.
// MAP_NORESERVE keeps a large device out of the commit charge; huge pages
// make first touch one fault per 2 MiB instead of one per 4 KiB.
type media struct{ mem []byte }

// mappedBytes counts media mapped and not yet released, over every device.
var mappedBytes atomic.Int64

func newMedia(chunks int64) *media {
	mem, err := syscall.Mmap(-1, 0, int(chunks*chunkBytes), syscall.PROT_READ|syscall.PROT_WRITE,
		syscall.MAP_PRIVATE|syscall.MAP_ANONYMOUS|syscall.MAP_NORESERVE)
	if err != nil {
		panic(fmt.Sprintf("nvm: mapping %d bytes of device media: %v", chunks*chunkBytes, err))
	}
	// A kernel without transparent huge pages refuses the hint; the mapping
	// then works with 4 KiB pages.
	_ = syscall.Madvise(mem, syscall.MADV_HUGEPAGE)
	mappedBytes.Add(int64(len(mem)))
	m := &media{mem: mem}
	// The finalizer sits on media, not on the Device: one on a Device would
	// never run if the Device sat in a reference cycle (a Volatile attachment
	// pointing back at it), and media holds no Go pointer to be in one.
	runtime.SetFinalizer(m, (*media).release)
	return m
}

// chunk returns chunk idx of the mapping.
func (m *media) chunk(idx int64) *chunk {
	return (*chunk)(unsafe.Pointer(&m.mem[idx*chunkBytes]))
}

func (m *media) release() {
	if err := syscall.Munmap(m.mem); err != nil {
		panic(fmt.Sprintf("nvm: unmapping device media: %v", err))
	}
	mappedBytes.Add(-int64(len(m.mem)))
}
