package chaos

import (
	"errors"
	"fmt"

	"zofs/internal/retry"
	"zofs/internal/vfs"
	"zofs/internal/zofs"
)

// op is one scheduled client operation: a vfs.Op in a coffer. Every random
// draw, the payload and what a read or stat must return happen at generation
// time, so execution is a pure function of the op and the device state.
type op struct {
	vfs.Op
	cof *cofferState
	// steal marks the forced write that must wait out a planted lease and
	// steal it — its success is the lease-steal proof.
	steal bool
}

// payload derives a deterministic byte string from a seed (splitmix64
// stream, shared with the retry jitter PRNG).
func payload(seed int64, n int) []byte {
	b := make([]byte, n)
	x := uint64(seed)
	for i := range b {
		x = retry.Mix(x)
		b[i] = byte(x >> 33)
	}
	return b
}

// draw returns a payload whose size it draws from [least, least+span), then
// its seed.
func (e *engine) draw(least, span int) []byte {
	n := least + e.rng.Intn(span)
	return payload(e.rng.Int63(), n)
}

// genCreate generates a create op in the given coffer; Data is what its one
// open writes at offset 0.
func (e *engine) genCreate(cof *cofferState) op {
	cof.seq++
	name := fmt.Sprintf("%s/f%04d", cof.path, cof.seq)
	return op{Op: vfs.Op{Kind: vfs.OpCreate, Path: name, Mode: fileMode, Data: e.draw(128, 897)}, cof: cof}
}

// genOp draws one operation from the seeded mix. Victim coffers stay in the
// rotation on purpose: after quarantine their ops are the typed-error
// probes the availability score is about.
func (e *engine) genOp() op {
	cof := e.coffers[e.rng.Intn(len(e.coffers))]
	m := cof.model
	r := e.rng.Intn(10)
	switch {
	case m.Len() == 0 || (r < 3 && m.Len() < maxFilesPerCoffer):
		return e.genCreate(cof)
	case r < 6: // covers the create-at-cap overflow too
		name := m.Path(e.rng.Intn(m.Len()))
		off := e.rng.Intn(cof.size(name) + 1)
		return cof.write(name, off, e.draw(64, 1985))
	case r < 8:
		name := m.Path(e.rng.Intn(m.Len()))
		data, _ := m.Data(name)
		return op{Op: vfs.Op{Kind: vfs.OpRead, Path: name, Data: data}, cof: cof}
	case r == 8:
		name := m.Path(e.rng.Intn(m.Len()))
		return op{Op: vfs.Op{Kind: vfs.OpStat, Path: name, Size: int64(cof.size(name))}, cof: cof}
	default:
		if m.Len() < 2 {
			name := m.Path(0)
			return cof.write(name, cof.size(name), e.draw(64, 1985))
		}
		return op{Op: vfs.Op{Kind: vfs.OpUnlink, Path: m.Path(e.rng.Intn(m.Len()))}, cof: cof}
	}
}

// size is the model's length of a file in the coffer.
func (cof *cofferState) size(name string) int {
	data, _ := cof.model.Data(name)
	return len(data)
}

// write is the op that writes data at off into the coffer's file name.
func (cof *cofferState) write(name string, off int, data []byte) op {
	return op{Op: vfs.Op{Kind: vfs.OpWrite, Path: name, Off: int64(off), Data: data}, cof: cof}
}

// forceWrite queues an append to the given file as the very next scheduled
// op — the survivor that must wait out a planted lease and steal it.
func (e *engine) forceWrite(cof *cofferState, name string) {
	o := cof.write(name, cof.size(name), payload(e.rng.Int63(), 256))
	o.steal = true
	e.forced = append(e.forced, o)
}

// execute runs one op on one client, with the dispatcher-level re-dispatch
// retry (one re-attempt after a guard-recovered fault), then classifies the
// outcome and checks the bounded-wait invariant.
func (e *engine) execute(c *client, o op) {
	start := c.th.Clk.Now()
	err := o.apply(c)
	retried := false
	if err != nil && errors.Is(err, vfs.ErrIO) {
		// The guard converted a fault into ErrIO and invalidated the stale
		// mounts; one re-dispatch either succeeds (healthy coffer) or
		// surfaces the typed quarantine error (victim coffer).
		retried = true
		err = o.apply(c)
	}
	dur := c.th.Clk.Now() - start
	if dur > e.rep.MaxOpNS {
		e.rep.MaxOpNS = dur
	}
	if bound := zofs.LeaseBudget() + leaseSlackNS(); dur > bound {
		e.violate("bounded_wait", fmt.Sprintf("%s %s took %dns > budget+slack %dns",
			o.Kind, o.Path, dur, bound))
	}
	degraded := (retried && err == nil) || dur >= zofs.LeaseDurationNS()/2
	if err == nil {
		if o.steal {
			e.rep.LeaseSteals++
		}
		o.record()
	}
	e.classify(o, err, degraded)
}

// apply performs the op through the client's FSLibs dispatcher. A create
// writes its payload through the descriptor it opened: one open, as an
// application's creat(2) and write(2).
func (o op) apply(c *client) error {
	fs := c.lib.FS()
	if o.Kind != vfs.OpCreate {
		return o.Do(fs, c.th)
	}
	h, err := fs.Create(c.th, o.Path, o.Mode)
	if err != nil {
		return err
	}
	if err := o.firstWrite().DoOn(c.th, h); err != nil {
		h.Close(c.th)
		return err
	}
	return h.Close(c.th)
}

// firstWrite is the write a create op makes through the descriptor it opened.
func (o op) firstWrite() vfs.Op {
	return vfs.Op{Kind: vfs.OpWrite, Path: o.Path, Data: o.Data}
}

// record applies one successful op to its coffer's model.
func (o op) record() {
	o.cof.model.Apply(o.Op)
	if o.Kind == vfs.OpCreate {
		o.cof.model.Apply(o.firstWrite())
	}
}

// mutates reports whether the op kind writes.
func (o op) mutates() bool {
	return o.Kind == vfs.OpCreate || o.Kind == vfs.OpWrite || o.Kind == vfs.OpUnlink
}

// classify scores one completed op against the containment invariants and
// updates the per-coffer scoreboard.
func (e *engine) classify(o op, err error, degraded bool) {
	cof := o.cof
	var out outcomeClass
	switch {
	case err == nil && cof.offline:
		// Nothing may succeed against an offline coffer.
		e.violate("offline_leak", fmt.Sprintf("%s %s succeeded on offline coffer", o.Kind, o.Path))
		out = outFailed
	case err == nil && cof.readOnly && o.mutates():
		e.violate("readonly_leak", fmt.Sprintf("%s %s mutated read-only coffer", o.Kind, o.Path))
		out = outFailed
	case err == nil && degraded:
		out = outDegraded
	case err == nil:
		out = outSucceeded
	case cof.offline:
		if errors.Is(err, vfs.ErrOfflineCoffer) || errors.Is(err, vfs.ErrIO) {
			out = outCorrectFail
		} else {
			e.violate("victim_unexpected_error",
				fmt.Sprintf("%s %s on offline coffer: %v", o.Kind, o.Path, err))
			out = outFailed
		}
	case cof.readOnly && o.mutates():
		if errors.Is(err, vfs.ErrReadOnlyCoffer) || errors.Is(err, vfs.ErrIO) {
			out = outCorrectFail
		} else {
			e.violate("victim_unexpected_error",
				fmt.Sprintf("%s %s on read-only coffer: %v", o.Kind, o.Path, err))
			out = outFailed
		}
	default:
		// Healthy coffer (or a read on a read-only one, which the
		// quarantine is required to keep serving): any error is a
		// containment violation.
		e.violate("healthy_op_failed", fmt.Sprintf("%s %s (%s): %v", o.Kind, o.Path, cof.role, err))
		out = outFailed
	}

	e.rep.OpsByKind[o.Kind.String()]++
	cof.overall.add(out)
	if e.quarActive {
		cof.durQuar.add(out)
		if cof.role == roleHealthy {
			e.rep.HealthyOpsDuringQuarantine++
		}
	}
}
