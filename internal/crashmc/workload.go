// Package crashmc is a deterministic crash-state model checker for the
// file systems in this repository. It runs a scripted workload on a
// persistence-tracked device, enumerates the workload's persistence points
// from the device's store counter, and at sampled points materializes
// post-crash images under three media models (drop, subset, torn), then
// remounts, recovers and checks invariants: fsynced data survives
// verbatim, the tree matches the workload's vfs.Model, and every
// auditor-reported lost line maps to an fsck repair site. A separate
// fault-injection mode corrupts metadata bits and plants dead-process
// leases, asserting graceful degradation instead of crash consistency.
package crashmc

import (
	"fmt"
	"math/rand"

	"zofs/internal/nvm"
	"zofs/internal/proc"
	"zofs/internal/vfs"
)

// fileMode is the mode the workload creates every file with.
const fileMode = 0o644

// GenWorkload builds a deterministic create/write/fsync/rename/unlink
// script of n ops. Each op is applied to a model of the namespace as it is
// generated, so every op is valid when executed in order: writes target live
// files at offsets within the current size (no holes), renames move to fresh
// names, unlinks keep a minimum population. Picks index the model's creation
// order, which is deterministic where a map's iteration is not. A write's
// payload comes from a seed the generator draws (payload).
func GenWorkload(seed int64, n int) []vfs.Op {
	rng := rand.New(rand.NewSource(seed))
	m := vfs.NewModel()
	next := 0
	ops := make([]vfs.Op, 0, n)
	for len(ops) < n {
		dirs := m.Dirs()
		var op vfs.Op
		switch roll := rng.Intn(100); {
		case roll < 30 || m.Len() == 0:
			d := dirs[rng.Intn(len(dirs))]
			op = vfs.Op{Kind: vfs.OpCreate, Path: vfs.Join(d, fmt.Sprintf("f%03d", next)), Mode: fileMode}
			next++
		case roll < 65:
			p := m.Path(rng.Intn(m.Len()))
			data, _ := m.Data(p)
			off := int64(0)
			if len(data) > 0 {
				off = rng.Int63n(int64(len(data)) + 1)
			}
			ln := 16 + rng.Intn(6000)
			op = vfs.Op{Kind: vfs.OpWrite, Path: p, Off: off, Data: payload(rng.Uint32(), ln)}
		case roll < 75:
			op = vfs.Op{Kind: vfs.OpFsync, Path: m.Path(rng.Intn(m.Len()))}
		case roll < 82 && len(dirs) < 4:
			op = vfs.Op{Kind: vfs.OpMkdir, Path: vfs.Join("/", fmt.Sprintf("d%03d", next)), Mode: 0o755}
			next++
		case roll < 92:
			p := m.Path(rng.Intn(m.Len()))
			d := dirs[rng.Intn(len(dirs))]
			op = vfs.Op{Kind: vfs.OpRename, Path: p, Dst: vfs.Join(d, fmt.Sprintf("r%03d", next))}
			next++
		default:
			if m.Len() < 3 {
				continue
			}
			op = vfs.Op{Kind: vfs.OpUnlink, Path: m.Path(rng.Intn(m.Len()))}
		}
		ops = append(ops, op)
		m.Apply(op)
	}
	return ops
}

// payload is n pseudo-random bytes generated from seed.
func payload(seed uint32, n int) []byte {
	buf := make([]byte, n)
	x := uint64(seed) | 1
	for i := range buf {
		x = x*6364136223846793005 + 1442695040888963407
		buf[i] = byte(x >> 33)
	}
	return buf
}

// modelAfter replays the first n ops of the script into a fresh model: the
// durable tree a crash after them must leave.
func modelAfter(ops []vfs.Op, n int) *vfs.Model {
	m := vfs.NewModel()
	for _, op := range ops[:n] {
		m.Apply(op)
	}
	return m
}

// runResult reports how far a workload replay got before the injected
// crash (if any) unwound it.
type runResult struct {
	completed int   // ops that fully finished
	crashed   bool  // an injected crash fired
	err       error // a non-crash op failure (a checker violation)
}

// runOps executes the script in order, stopping at the first error or
// injected crash. Only nvm's injected-crash panic is absorbed; any other
// panic propagates (it would be a bug in the system under test during
// normal operation, not a post-crash state).
func runOps(fs vfs.FileSystem, th *proc.Thread, ops []vfs.Op) (res runResult) {
	defer func() {
		if r := recover(); r != nil {
			if nvm.IsInjectedCrash(r) {
				res.crashed = true
				return
			}
			panic(r)
		}
	}()
	for i := range ops {
		if err := ops[i].Do(fs, th); err != nil {
			res.err = fmt.Errorf("op %d (%s): %w", i, ops[i].String(), err)
			return
		}
		res.completed = i + 1
	}
	return
}
