// Package perfmodel holds every calibrated cost parameter used by the
// virtual-time simulation, in one place. The values are taken from the
// paper's own measurements where it gives them (Table 1 for media costs,
// §3.4.1 for WRPKRU) and otherwise calibrated so the breakdown experiments
// (Table 2, Figure 8) reproduce the paper's relative gaps.
package perfmodel

// CPU clock of the evaluation platform (two Xeon Gold 5215M at 2.50 GHz).
const (
	CPUGHz = 2.5

	// Cycles converts a cycle count to virtual nanoseconds.
	nsPerCycleX1000 = 1000 / CPUGHz // 400
)

// Cycles converts CPU cycles to virtual nanoseconds at the platform clock.
func Cycles(n int64) int64 { return n * nsPerCycleX1000 / 1000 }

// Media parameters (paper Table 1, Optane DC PM and DDR4 DRAM).
const (
	// NVMReadLatency is the idle read latency of one cacheline (ns).
	NVMReadLatency = 305
	// NVMWriteLatency is the latency to the ADR/WPQ domain for one line (ns).
	NVMWriteLatency = 94
	// NVMReadBandwidth in bytes/second (39 GB/s).
	NVMReadBandwidth = 39e9
	// NVMWriteBandwidth in bytes/second (14 GB/s).
	NVMWriteBandwidth = 14e9

	// DRAMReadLatency / DRAMWriteLatency (ns) and bandwidths, for Table 1.
	DRAMReadLatency   = 81
	DRAMWriteLatency  = 86
	DRAMReadBandwidth = 115e9
	DRAMWriteBand     = 79e9

	// CachelineSize in bytes.
	CachelineSize = 64
	// PageSize is the only allocation granularity ZoFS supports (§5.1).
	PageSize = 4096
)

// Sequential-access amortization: after the first line of a streaming access
// the device pipeline hides most of the latency, so subsequent lines in the
// same call cost only their bandwidth share. These factors scale the
// latency charged to non-first lines.
const (
	// CLWBCost is the cost of a clwb instruction itself (ns); the real
	// persistence wait is charged by the fence.
	CLWBCost = 10
	// FenceCost is the cost of an sfence draining the store buffer (ns).
	FenceCost = 20
	// NTStoreExtra is extra per-line cost of a non-temporal store vs a
	// cached store (ns); non-temporal writes skip the read-for-ownership,
	// which is why PMFS-nocache beats stock PMFS in Figure 8.
	NTStoreExtra = 0
	// CachedWriteRFO is the read-for-ownership penalty charged per line for
	// cached (write-back) stores to NVM followed by clwb: the line must be
	// fetched before it can be modified.
	CachedWriteRFO = NVMReadLatency / 2
)

// Kernel/user boundary costs. Calibrated so that Figure 8's three groups
// (user-space ZoFS; ZoFS-sysempty just below; kernel implementations well
// below) reproduce, and so Table 2's NOVA-vs-ZoFS gap (~1µs for a 4KB
// append) holds.
const (
	// SyscallCost is the direct entry/exit cost of one system call (ns).
	SyscallCost = 400
	// SyscallPollution is the indirect cost (cacheline and TLB pollution)
	// amortized per syscall (ns). The paper names this as a major source of
	// ZoFS's advantage (§6.1).
	SyscallPollution = 250
	// ContextSwitch is a full process context switch, used for IPC-style
	// interactions (Aerie-style RPCs, Strata digestion wakeups) (ns).
	ContextSwitch = 3000
	// VFSOverhead is extra generic-VFS path cost charged by Ext4-DAX on
	// every operation (ns).
	VFSOverhead = 300
)

// Syscall is the total charge for entering and leaving the kernel once.
const Syscall = SyscallCost + SyscallPollution

// MPK costs (§3.4.1: "about 16 cycles on our platform").
const (
	WRPKRUCycles = 16
)

// WRPKRUCost is the virtual-ns cost of one PKRU update.
func WRPKRUCost() int64 { return Cycles(WRPKRUCycles) }

// Software-path costs for file system internals (CPU work, charged in
// addition to media accesses the work performs).
const (
	// CPUHashLookup is one hash computation + bucket probe (ns).
	CPUHashLookup = 30
	// DCacheLookup is one kernel dcache path-component resolution: hash,
	// lockref acquisition and permission check (ns).
	DCacheLookup = 120
	// CPUPathComponent is parsing/compare cost per path component (ns).
	CPUPathComponent = 25
	// CPUSmallOp is a generic small bookkeeping step (ns).
	CPUSmallOp = 15
	// CPUDentryScan is the per-slot cost of examining one 128-byte dentry
	// during a linear directory scan (decode the commit word, compare the
	// check hash, occasionally memcmp the name). Charged by the scan-based
	// lookup/insert paths on top of the media reads they perform, and once
	// per entry served by the index-backed directory listing (zofs.dirList),
	// beside that entry's cache-hit verification read.
	CPUDentryScan = 4
	// CPULockAcquire is the cost of an uncontended lock/lease acquisition
	// including its timestamp read (vDSO clock_gettime) (ns).
	CPULockAcquire = 30
	// JournalEntry is the CPU cost of forming one journal/log record,
	// excluding the media writes it performs (ns).
	JournalEntry = 40
)

// Kernel page-grant costs inside coffer_enlarge (charged under the kernel
// lock, hence serialized — the source of the Fig. 7(d)/(g) scalability
// knees). Metadata grants are zeroed by the kernel before they become
// visible (their pages hold structures parsed by other processes); bulk
// data grants are not.
const (
	// PTEUpdate is the per-page cost of installing a page-table entry in
	// one process (ns).
	PTEUpdate = 90
)

// Strata digestion model (§2.2, Table 2): when a second process needs the
// latest state of a shared file/dir, the owner's log must be digested by the
// kernel worker before the operation can proceed.
const (
	// DigestWakeup is the cost of signalling the kernel digestion thread
	// and switching to it and back.
	DigestWakeup = 2 * ContextSwitch
	// DigestPerEntryCPU is the CPU cost of applying one log entry during
	// digestion (the media copy is charged separately — the double write).
	DigestPerEntryCPU = 300
	// LeaseHandoff is the kernel-arbitrated lease transfer between two
	// processes sharing a file in Strata.
	LeaseHandoff = 2000
)

// WriteBWDegradation returns the effective write-bandwidth multiplier for n
// concurrently writing threads. Optane write bandwidth peaks at a small
// thread count and then declines (Izraelevitz et al., cited as [25]); this
// table makes DWOL (Fig. 7e) roll off after ~12 threads as in the paper.
func WriteBWDegradation(n int) float64 {
	switch {
	case n <= 8:
		return 1.0
	case n <= 12:
		return 0.97
	case n <= 16:
		return 0.88
	default:
		return 0.80
	}
}
