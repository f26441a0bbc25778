// Package fxmark reimplements the FxMark microbenchmark suite (Min et al.,
// USENIX ATC'16) used in the paper's Figure 7: file system operations at
// three sharing levels (Low = private files/dirs, Medium = shared file,
// different blocks, High = same block) for data reads (DRB*), data writes
// (DWAL/DWOL/DWOM) and metadata operations (MWCL/MWUL/MWRL).
//
// Each simulated thread has its own virtual clock. A run steps the threads
// on the calling goroutine, one operation at a time on the thread with the
// earliest clock (proc.Process.RunThreads), until every clock passes the
// target virtual duration; throughput is total operations divided by the slowest
// thread's virtual time — exactly how wall-clock throughput behaves. The
// interleaving is a function of virtual time alone, so every cell
// reproduces exactly.
package fxmark

import (
	"fmt"
	"math/rand"

	"zofs/internal/proc"
	"zofs/internal/vfs"
)

// Workload names follow FxMark.
type Workload string

const (
	DRBL Workload = "DRBL" // data read block, low contention (private files)
	DRBM Workload = "DRBM" // data read block, medium (shared file, random blocks)
	DRBH Workload = "DRBH" // data read block, high (shared file, same block)
	DWAL Workload = "DWAL" // data write append, low (private files)
	DWOL Workload = "DWOL" // data write overwrite, low (private files)
	DWOM Workload = "DWOM" // data write overwrite, medium (shared file)
	MWCL Workload = "MWCL" // metadata write create, low (private dirs)
	MWUL Workload = "MWUL" // metadata write unlink, low (private dirs)
	MWRL Workload = "MWRL" // metadata write rename, low (private dirs)
)

// All lists every workload in Figure 7 order.
var All = []Workload{DRBL, DRBM, DRBH, DWAL, DWOL, DWOM, MWCL, MWUL, MWRL}

const blockSize = 4096 // "Each data operation accesses files in 4 KB units."

// Env is a freshly prepared file system under test.
type Env struct {
	FS vfs.FileSystem
	// Proc is the process all simulated threads belong to.
	Proc *proc.Process
	// SetConcurrency informs the device cost model of the active thread
	// count (write-bandwidth degradation); may be nil.
	SetConcurrency func(threads int)
}

// Factory builds a fresh Env for one (workload, threads) cell.
type Factory func() (*Env, error)

// Result is one cell of Figure 7.
type Result struct {
	Workload Workload
	Threads  int
	Ops      int64
	// VirtualNS is the slowest thread's virtual time.
	VirtualNS int64
	// MopsPerSec is throughput in million operations per second.
	MopsPerSec float64
}

// Run executes one workload cell: threads simulated threads for target
// virtual nanoseconds each.
func Run(env *Env, w Workload, threads int, targetNS int64) (Result, error) {
	if env.SetConcurrency != nil {
		env.SetConcurrency(threads)
	}
	setup := env.Proc.NewThread()
	workers, err := prepare(env, setup, w, threads, targetNS)
	if err != nil {
		return Result{}, err
	}
	// Workers start once the file-set preparation has fully drained in
	// virtual time, so setup transients (bandwidth queues, lock release
	// times) do not bleed into the measurement window.
	ops := make([]int64, threads)
	var total int64
	vns, err := env.Proc.RunThreads(setup, threads, targetNS, func(i int, th *proc.Thread) error {
		if err := workers[i](th, ops[i]); err != nil {
			return fmt.Errorf("thread %d op %d: %w", i, ops[i], err)
		}
		ops[i]++
		total++
		return nil
	})
	if err != nil {
		return Result{}, err
	}
	r := Result{Workload: w, Threads: threads, Ops: total, VirtualNS: vns}
	if r.VirtualNS > 0 {
		r.MopsPerSec = float64(total) / (float64(r.VirtualNS) / 1e9) / 1e6
	}
	return r, nil
}

// opFn performs one benchmark operation for a thread; n is the op index.
type opFn func(th *proc.Thread, n int64) error

// prepare builds the file set for a workload and returns one opFn per
// thread.
func prepare(env *Env, th *proc.Thread, w Workload, threads int, targetNS int64) ([]opFn, error) {
	fs := env.FS
	workers := make([]opFn, threads)
	block := make([]byte, blockSize)
	for i := range block {
		block[i] = byte(i)
	}

	// Conservative upper bound of ops a thread can issue, for pre-created
	// file sets (unlink/rename).
	maxOps := targetNS / 800
	if maxOps < 64 {
		maxOps = 64
	}

	switch w {
	case DRBL, DWOL, DWAL:
		// Private file per thread; DRBL/DWOL need a preallocated block.
		for i := 0; i < threads; i++ {
			path := fmt.Sprintf("/f%d", i)
			h, err := fs.Create(th, path, 0o644)
			if err != nil {
				return nil, err
			}
			if w != DWAL {
				if _, err := h.WriteAt(th, block, 0); err != nil {
					return nil, err
				}
			}
			hh := h
			switch w {
			case DRBL:
				workers[i] = func(th *proc.Thread, _ int64) error {
					buf := make([]byte, blockSize)
					_, err := hh.ReadAt(th, buf, 0)
					return err
				}
			case DWOL:
				workers[i] = func(th *proc.Thread, _ int64) error {
					_, err := hh.WriteAt(th, block, 0)
					return err
				}
			case DWAL:
				workers[i] = func(th *proc.Thread, _ int64) error {
					_, err := hh.Append(th, block)
					return err
				}
			}
		}

	case DRBM, DRBH, DWOM:
		// One shared file, preallocated with enough blocks.
		const sharedBlocks = 1024
		h, err := fs.Create(th, "/shared", 0o644)
		if err != nil {
			return nil, err
		}
		big := make([]byte, 64*blockSize)
		for off := int64(0); off < sharedBlocks*blockSize; off += int64(len(big)) {
			if _, err := h.WriteAt(th, big, off); err != nil {
				return nil, err
			}
		}
		for i := 0; i < threads; i++ {
			rng := rand.New(rand.NewSource(int64(i)*7919 + 13))
			switch w {
			case DRBM:
				workers[i] = func(th *proc.Thread, _ int64) error {
					buf := make([]byte, blockSize)
					_, err := h.ReadAt(th, buf, int64(rng.Intn(sharedBlocks))*blockSize)
					return err
				}
			case DRBH:
				workers[i] = func(th *proc.Thread, _ int64) error {
					buf := make([]byte, blockSize)
					_, err := h.ReadAt(th, buf, 0)
					return err
				}
			case DWOM:
				workers[i] = func(th *proc.Thread, _ int64) error {
					_, err := h.WriteAt(th, block, int64(rng.Intn(sharedBlocks))*blockSize)
					return err
				}
			}
		}

	case MWCL:
		for i := 0; i < threads; i++ {
			dir := fmt.Sprintf("/d%d", i)
			if err := fs.Mkdir(th, dir, 0o755); err != nil {
				return nil, err
			}
			d := dir
			workers[i] = func(th *proc.Thread, n int64) error {
				h, err := fs.Create(th, fmt.Sprintf("%s/f%08d", d, n), 0o644)
				if err != nil {
					return err
				}
				return h.Close(th)
			}
		}

	case MWUL:
		for i := 0; i < threads; i++ {
			dir := fmt.Sprintf("/d%d", i)
			if err := fs.Mkdir(th, dir, 0o755); err != nil {
				return nil, err
			}
			for n := int64(0); n < maxOps; n++ {
				h, err := fs.Create(th, fmt.Sprintf("%s/f%08d", dir, n), 0o644)
				if err != nil {
					return nil, err
				}
				h.Close(th)
			}
			d := dir
			workers[i] = func(th *proc.Thread, n int64) error {
				if n >= maxOps {
					// File set exhausted: recreate one and unlink it.
					p := fmt.Sprintf("%s/x%08d", d, n)
					if h, err := fs.Create(th, p, 0o644); err != nil {
						return err
					} else {
						h.Close(th)
					}
					return fs.Unlink(th, p)
				}
				return fs.Unlink(th, fmt.Sprintf("%s/f%08d", d, n))
			}
		}

	case MWRL:
		for i := 0; i < threads; i++ {
			dir := fmt.Sprintf("/d%d", i)
			if err := fs.Mkdir(th, dir, 0o755); err != nil {
				return nil, err
			}
			h, err := fs.Create(th, dir+"/a", 0o644)
			if err != nil {
				return nil, err
			}
			h.Close(th)
			d := dir
			workers[i] = func(th *proc.Thread, n int64) error {
				if n%2 == 0 {
					return fs.Rename(th, d+"/a", d+"/b")
				}
				return fs.Rename(th, d+"/b", d+"/a")
			}
		}

	default:
		return nil, fmt.Errorf("fxmark: unknown workload %q", w)
	}
	return workers, nil
}
