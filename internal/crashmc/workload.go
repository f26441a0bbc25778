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

// OpKind enumerates workload operations.
type OpKind uint8

const (
	OpCreate OpKind = iota
	OpMkdir
	OpWrite
	OpFsync
	OpRename
	OpUnlink
)

func (k OpKind) String() string {
	switch k {
	case OpCreate:
		return "create"
	case OpMkdir:
		return "mkdir"
	case OpWrite:
		return "write"
	case OpFsync:
		return "fsync"
	case OpRename:
		return "rename"
	case OpUnlink:
		return "unlink"
	default:
		return "?"
	}
}

// fileMode is the mode the workload creates every file with.
const fileMode = 0o644

// Op is one scripted workload operation. Write data is derived from Seed,
// never stored, so the model can be recomputed for any op prefix.
type Op struct {
	Kind OpKind
	Path string
	Dst  string // rename destination
	Off  int64  // write offset
	Len  int    // write length
	Seed uint32 // write content seed
}

func (op Op) String() string {
	switch op.Kind {
	case OpWrite:
		return fmt.Sprintf("write %s off=%d len=%d", op.Path, op.Off, op.Len)
	case OpRename:
		return fmt.Sprintf("rename %s -> %s", op.Path, op.Dst)
	default:
		return op.Kind.String() + " " + op.Path
	}
}

// GenWorkload builds a deterministic create/write/fsync/rename/unlink
// script of n ops. Each op is applied to a model of the namespace as it is
// generated, so every op is valid when executed in order: writes target live
// files at offsets within the current size (no holes), renames move to fresh
// names, unlinks keep a minimum population. Picks index the model's creation
// order, which is deterministic where a map's iteration is not.
func GenWorkload(seed int64, n int) []Op {
	rng := rand.New(rand.NewSource(seed))
	m := vfs.NewModel()
	next := 0
	ops := make([]Op, 0, n)
	for len(ops) < n {
		dirs := m.Dirs()
		var op Op
		switch roll := rng.Intn(100); {
		case roll < 30 || m.Len() == 0:
			d := dirs[rng.Intn(len(dirs))]
			op = Op{Kind: OpCreate, Path: vfs.Join(d, fmt.Sprintf("f%03d", next))}
			next++
		case roll < 65:
			p := m.Path(rng.Intn(m.Len()))
			data, _ := m.Data(p)
			off := int64(0)
			if len(data) > 0 {
				off = rng.Int63n(int64(len(data)) + 1)
			}
			ln := 16 + rng.Intn(6000)
			op = Op{Kind: OpWrite, Path: p, Off: off, Len: ln, Seed: rng.Uint32()}
		case roll < 75:
			op = Op{Kind: OpFsync, Path: m.Path(rng.Intn(m.Len()))}
		case roll < 82 && len(dirs) < 4:
			op = Op{Kind: OpMkdir, Path: vfs.Join("/", fmt.Sprintf("d%03d", next))}
			next++
		case roll < 92:
			p := m.Path(rng.Intn(m.Len()))
			d := dirs[rng.Intn(len(dirs))]
			op = Op{Kind: OpRename, Path: p, Dst: vfs.Join(d, fmt.Sprintf("r%03d", next))}
			next++
		default:
			if m.Len() < 3 {
				continue
			}
			op = Op{Kind: OpUnlink, Path: m.Path(rng.Intn(m.Len()))}
		}
		ops = append(ops, op)
		op.applyTo(m)
	}
	return ops
}

// opData regenerates an op's write payload from its seed.
func opData(op *Op) []byte {
	buf := make([]byte, op.Len)
	x := uint64(op.Seed) | 1
	for i := range buf {
		x = x*6364136223846793005 + 1442695040888963407
		buf[i] = byte(x >> 33)
	}
	return buf
}

// applyTo records the op in a model of the tree, as the file system must
// once the op has completed.
func (op *Op) applyTo(m *vfs.Model) {
	switch op.Kind {
	case OpCreate:
		m.Create(op.Path, fileMode)
	case OpMkdir:
		m.Mkdir(op.Path)
	case OpWrite:
		m.Write(op.Path, opData(op), op.Off)
	case OpRename:
		m.Rename(op.Path, op.Dst)
	case OpUnlink:
		m.Unlink(op.Path)
	}
}

// modelAfter replays the first n ops of the script into a fresh model: the
// durable tree a crash after them must leave.
func modelAfter(ops []Op, n int) *vfs.Model {
	m := vfs.NewModel()
	for i := range ops[:n] {
		ops[i].applyTo(m)
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
func runOps(fs vfs.FileSystem, th *proc.Thread, ops []Op) (res runResult) {
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
		if err := execOp(fs, th, &ops[i]); err != nil {
			res.err = fmt.Errorf("op %d (%s): %w", i, ops[i].String(), err)
			return
		}
		res.completed = i + 1
	}
	return
}

func execOp(fs vfs.FileSystem, th *proc.Thread, op *Op) error {
	switch op.Kind {
	case OpCreate:
		h, err := fs.Create(th, op.Path, fileMode)
		if err != nil {
			return err
		}
		return h.Close(th)
	case OpMkdir:
		return fs.Mkdir(th, op.Path, 0o755)
	case OpWrite:
		h, err := fs.Open(th, op.Path, vfs.O_RDWR)
		if err != nil {
			return err
		}
		if _, err := h.WriteAt(th, opData(op), op.Off); err != nil {
			h.Close(th)
			return err
		}
		return h.Close(th)
	case OpFsync:
		h, err := fs.Open(th, op.Path, vfs.O_RDWR)
		if err != nil {
			return err
		}
		if err := h.Sync(th); err != nil {
			h.Close(th)
			return err
		}
		return h.Close(th)
	case OpRename:
		return fs.Rename(th, op.Path, op.Dst)
	case OpUnlink:
		return fs.Unlink(th, op.Path)
	default:
		return fmt.Errorf("crashmc: unknown op kind %d", op.Kind)
	}
}
