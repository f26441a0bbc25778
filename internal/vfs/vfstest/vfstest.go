// Package vfstest is the conformance suite every file system in this
// repository passes: ZoFS and its variants, the baselines, LogFS, and the
// FSLibs dispatcher in front of ZoFS. Benchmarks compare these systems, so
// they must agree on semantics first. Each case plays vfs.Ops, each with the
// error it must return, into a vfs.Model and ends in its Check, the crash
// checker's and chaos's statement; chaos runs its Ops through FSLibs too.
package vfstest

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"zofs/internal/proc"
	"zofs/internal/sysfactory"
	"zofs/internal/vfs"
)

// Factory builds a fresh file system and a root thread for one subtest.
type Factory func(t *testing.T) (vfs.FileSystem, *proc.Thread)

// On returns a factory that builds sys on a fresh 256 MiB device.
func On(sys sysfactory.System) Factory {
	return func(t *testing.T) (vfs.FileSystem, *proc.Thread) {
		in, err := sys.New(256<<20, false)
		if err != nil {
			t.Fatal(err)
		}
		return in.FS, in.Proc.NewThread()
	}
}

// step is one op of a script and the error it must return. A held step runs
// through a handle the script keeps open on its path from the first held
// step on, across the ops between. It is opened read-write, with a held
// open's flags added.
type step struct {
	op   vfs.Op
	err  error
	held bool
}

func (s step) fails(err error) step { s.err = err; return s }
func (s step) viaHeld() step        { s.held = true; return s }

// toEOF makes a read state that the file ends where its Data does.
func (s step) toEOF() step { s.op.Size = int64(len(s.op.Data)) + 1; return s }

// Constructors for the common shapes of step.
func do(kind vfs.OpKind, p string) step { return step{op: vfs.Op{Kind: kind, Path: p}} }
func create(p string) step              { return step{op: vfs.Op{Kind: vfs.OpCreate, Path: p, Mode: 0o644}} }
func mkdir(p string) step               { return step{op: vfs.Op{Kind: vfs.OpMkdir, Path: p, Mode: 0o755}} }
func sized(kind vfs.OpKind, p string, n int64) step {
	return step{op: vfs.Op{Kind: kind, Path: p, Size: n}}
}
func to(kind vfs.OpKind, p, dst string) step { return step{op: vfs.Op{Kind: kind, Path: p, Dst: dst}} }
func at(kind vfs.OpKind, p string, off int64, data []byte) step {
	return step{op: vfs.Op{Kind: kind, Path: p, Off: off, Data: data}}
}

// Case is one conformance case. Run drives a fresh file system as th and
// returns how it departed from what the case states, nil if it did not.
type Case struct {
	Name string
	Run  func(fs vfs.FileSystem, th *proc.Thread) error
}

// Cases lists the suite in order: scripts of ops, then two cases whose
// threads run on goroutines of their own.
func Cases() []Case {
	payload, nines, x4 := []byte("conformance payload"), bytes.Repeat([]byte{9}, 10000), []byte("xxxx")
	pattern := make([]byte, 3*4096+123)
	for i := range pattern {
		pattern[i] = byte(i * 7)
	}
	readDir := []step{mkdir("/ls")}
	for i := range 25 {
		readDir = append(readDir, create(fmt.Sprintf("/ls/f%02d", i)))
	}
	readDir = append(readDir, mkdir("/ls/sub"), mkdir("/ls/gone"), do(vfs.OpUnlink, "/ls/f03"),
		do(vfs.OpUnlink, "/ls/f17"), to(vfs.OpRename, "/ls/f05", "/ls/moved"), do(vfs.OpRmdir, "/ls/gone"))
	// Bytes cut off by a shrink stay gone whichever way the file grows back
	// over them, also to a handle opened before the shrink: truncate up, or
	// a write past EOF (here a zero byte, so the whole of [100, 20000) must
	// read zeros).
	shrink := []step{create("/tr"), at(vfs.OpWrite, "/tr", 0, nines).viaHeld(), sized(vfs.OpTruncate, "/tr", 100)}
	grown := at(vfs.OpRead, "/tr", 0, append(nines[:100:100], make([]byte, 19900)...)).toEOF().viaHeld()
	return []Case{
		scripted("CreateReadWrite", create("/f"), at(vfs.OpWrite, "/f", 0, payload).viaHeld(),
			at(vfs.OpRead, "/f", 0, payload).toEOF().viaHeld(), sized(vfs.OpStat, "/f", int64(len(payload))).viaHeld(),
			do(vfs.OpFsync, "/f").viaHeld()),
		scripted("OpenMissing", do(vfs.OpOpen, "/missing").fails(vfs.ErrNotExist),
			sized(vfs.OpStat, "/missing", 0).fails(vfs.ErrNotExist)),
		scripted("OpenCreateTrunc", create("/t"), at(vfs.OpWrite, "/t", 0, []byte("0123456789")),
			step{op: vfs.Op{Kind: vfs.OpOpen, Path: "/t", Flags: vfs.O_TRUNC}}.viaHeld(),
			sized(vfs.OpStat, "/t", 0).viaHeld()),
		scripted("AppendReturnsOffset", create("/a"), at(vfs.OpAppend, "/a", 0, x4).viaHeld(),
			at(vfs.OpAppend, "/a", 4, x4).viaHeld(), at(vfs.OpAppend, "/a", 8, x4),
			at(vfs.OpAppend, "/a", 12, x4).viaHeld(), at(vfs.OpAppend, "/a", 16, x4)),
		scripted("ReadPastEOF", create("/e"), at(vfs.OpWrite, "/e", 0, []byte("abc")),
			at(vfs.OpRead, "/e", 0, []byte("abc")).toEOF(), at(vfs.OpRead, "/e", 100, nil).toEOF()),
		scripted("SparseHolesReadZero", create("/s"), at(vfs.OpWrite, "/s", 10000, []byte("end")),
			at(vfs.OpRead, "/s", 4096, make([]byte, 100))),
		scripted("MultiPageFile", create("/big"), at(vfs.OpWrite, "/big", 0, pattern),
			at(vfs.OpWrite, "/big", 5000, []byte("OVERWRITE"))),
		scripted("MkdirTree", mkdir("/d1"), mkdir("/d1/d2"), mkdir("/d1/d2/d3"), mkdir("/d1").fails(vfs.ErrExist),
			mkdir("/nope/x").fails(vfs.ErrNotExist), create("/d1/d2/d3/leaf")),
		scripted("ReadDir", readDir...),
		scripted("UnlinkRmdir", mkdir("/u"), create("/u/f"), do(vfs.OpRmdir, "/u").fails(vfs.ErrNotEmpty),
			do(vfs.OpUnlink, "/u").fails(vfs.ErrIsDir), do(vfs.OpRmdir, "/u/f").fails(vfs.ErrNotDir),
			do(vfs.OpUnlink, "/u/f"), do(vfs.OpRmdir, "/u"), sized(vfs.OpStat, "/u", 0).fails(vfs.ErrNotExist)),
		scripted("Rename", mkdir("/r1"), mkdir("/r2"), create("/r1/x"), at(vfs.OpWrite, "/r1/x", 0, []byte("move")),
			to(vfs.OpRename, "/r1/x", "/r2/y"), create("/r2/z"), to(vfs.OpRename, "/r2/y", "/r2/z"), create("/r2/w"),
			to(vfs.OpRename, "/r2/w", "/r1").fails(vfs.ErrExist)),
		scripted("RenameDir", mkdir("/old"), mkdir("/old/sub"), create("/old/sub/kid"),
			at(vfs.OpWrite, "/old/sub/kid", 0, payload), to(vfs.OpRename, "/old", "/new")),
		scripted("Symlink", mkdir("/tgt"), create("/tgt/file"), at(vfs.OpWrite, "/tgt/file", 0, []byte("linked")),
			to(vfs.OpSymlink, "/ln", "/tgt/file"), to(vfs.OpReadlink, "/ln", "/tgt/file"), sized(vfs.OpStat, "/ln", 6),
			to(vfs.OpSymlink, "/dl", "/tgt"), at(vfs.OpRead, "/dl/file", 0, []byte("linked")).toEOF(),
			to(vfs.OpReadlink, "/tgt/file", "").fails(vfs.ErrInvalid)),
		scripted("Truncate", append(shrink, sized(vfs.OpStat, "/tr", 100), at(vfs.OpRead, "/tr", 0, nines[:100]).toEOF(),
			sized(vfs.OpTruncate, "/tr", 20000), at(vfs.OpRead, "/tr", 15000, make([]byte, 50)).viaHeld())...),
		scripted("ShrinkThenExtendByTruncate", append(shrink, sized(vfs.OpTruncate, "/tr", 20000), grown)...),
		scripted("ShrinkThenExtendByWriteAt", append(shrink, at(vfs.OpWrite, "/tr", 19999, []byte{0}).viaHeld(), grown)...),
		scripted("ChmodChown", create("/perm"), step{op: vfs.Op{Kind: vfs.OpChmod, Path: "/perm", Mode: 0o600}},
			step{op: vfs.Op{Kind: vfs.OpChown, Path: "/perm", UID: 7, GID: 8}}),
		{"ConcurrentWritersDistinctFiles", concurrentWriters},
		{"ConcurrentAppendSharedFile", concurrentAppends},
	}
}

// scripted is the case that plays script on a fresh model and checks the
// file system against it.
func scripted(name string, script ...step) Case {
	return Case{name, func(fs vfs.FileSystem, th *proc.Thread) error {
		m := vfs.NewModel()
		if err := play(fs, th, m, script); err != nil {
			return err
		}
		return m.Check(fs, th, nil)
	}}
}

// play runs a script on fs as th: each op must return its step's error, and
// m records each op that succeeds.
func play(fs vfs.FileSystem, th *proc.Thread, m *vfs.Model, script []step) error {
	held := map[string]vfs.Handle{}
	defer func() {
		for _, h := range held {
			h.Close(th)
		}
	}()
	for i, s := range script {
		var err error
		switch {
		case s.held && held[s.op.Path] == nil:
			h, err := fs.Open(th, s.op.Path, vfs.O_RDWR|s.op.Flags)
			if err != nil {
				return fmt.Errorf("step %d, %v: open: %w", i, s.op, err)
			}
			held[s.op.Path] = h
			fallthrough
		case s.held:
			err = s.op.DoOn(th, held[s.op.Path])
		default:
			err = s.op.Do(fs, th)
		}
		if !errors.Is(err, s.err) {
			return fmt.Errorf("step %d, %v: %v, want %v", i, s.op, err, s.err)
		}
		if s.err == nil {
			m.Apply(s.op)
		}
	}
	return nil
}

// Run executes the conformance suite against the factory.
func Run(t *testing.T, factory Factory) {
	for _, c := range Cases() {
		t.Run(c.Name, func(t *testing.T) {
			fs, th := factory(t)
			if err := c.Run(fs, th); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// concurrentWriters: four threads each create a file and append 20 pages to
// it.
func concurrentWriters(fs vfs.FileSystem, th *proc.Thread) error {
	const workers, pages = 4, 20
	scripts, m := make([][]step, workers), vfs.NewModel()
	for w := range scripts {
		p, page := fmt.Sprintf("/w%d", w), bytes.Repeat([]byte{byte(w + 1)}, 4096)
		scripts[w] = []step{create(p)}
		for i := range pages {
			scripts[w] = append(scripts[w], at(vfs.OpAppend, p, int64(i*len(page)), page))
		}
		for _, s := range scripts[w] {
			m.Apply(s.op)
		}
	}
	if err := inParallel(th, workers, func(w int, wt *proc.Thread) error {
		return play(fs, wt, vfs.NewModel(), scripts[w])
	}); err != nil {
		return err
	}
	return m.Check(fs, th, nil)
}

// concurrentAppends: four threads append to one shared handle; no append may
// be lost.
func concurrentAppends(fs vfs.FileSystem, th *proc.Thread) error {
	h, err := fs.Create(th, "/shared", 0o644)
	if err != nil {
		return err
	}
	const workers, per, size = 4, 25, 64
	err = inParallel(th, workers, func(_ int, wt *proc.Thread) error {
		for range per {
			if _, err := h.Append(wt, make([]byte, size)); err != nil {
				return err
			}
		}
		return nil
	})
	if err := errors.Join(err, h.Close(th)); err != nil {
		return err
	}
	m := vfs.NewModel()
	m.Create("/shared", 0o644)
	m.Truncate("/shared", workers*per*size)
	return m.Check(fs, th, nil)
}

// inParallel runs fn for workers 0 to n-1, each on a goroutine and a thread
// of th's process of its own, and joins their errors.
func inParallel(th *proc.Thread, n int, fn func(w int, wt *proc.Thread) error) error {
	done := make(chan error, n)
	for w := range n {
		go func(wt *proc.Thread) { done <- fn(w, wt) }(th.Proc.NewThread())
	}
	var err error
	for range n {
		err = errors.Join(err, <-done)
	}
	return err
}
