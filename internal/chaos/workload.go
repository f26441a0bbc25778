package chaos

import (
	"bytes"
	"errors"
	"fmt"

	"zofs/internal/retry"
	"zofs/internal/vfs"
	"zofs/internal/zofs"
)

// opKind enumerates the client operations the campaign mixes.
type opKind int

const (
	opCreate opKind = iota
	opWrite
	opRead
	opStat
	opUnlink
)

func (k opKind) String() string {
	switch k {
	case opCreate:
		return "create"
	case opWrite:
		return "write"
	case opRead:
		return "read"
	case opStat:
		return "stat"
	case opUnlink:
		return "unlink"
	}
	return "?"
}

// op is one scheduled client operation. All random draws happen at
// generation time so execution is a pure function of the op and the
// device state.
type op struct {
	kind  opKind
	cof   *cofferState
	name  string
	off   int
	size  int
	pseed int64
	// steal marks the forced write that must wait out a planted lease and
	// steal it — its success is the lease-steal proof.
	steal bool
}

// errMismatch reports read-back content that disagrees with the model —
// the one error that is never acceptable anywhere.
var errMismatch = errors.New("chaos: content disagrees with the model")

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

// genCreate generates a create op in the given coffer.
func (e *engine) genCreate(cof *cofferState) op {
	cof.seq++
	return op{
		kind:  opCreate,
		cof:   cof,
		name:  fmt.Sprintf("%s/f%04d", cof.path, cof.seq),
		size:  128 + e.rng.Intn(897),
		pseed: e.rng.Int63(),
	}
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
		return op{
			kind:  opWrite,
			cof:   cof,
			name:  name,
			off:   e.rng.Intn(cof.size(name) + 1),
			size:  64 + e.rng.Intn(1985),
			pseed: e.rng.Int63(),
		}
	case r < 8:
		return op{kind: opRead, cof: cof, name: m.Path(e.rng.Intn(m.Len()))}
	case r == 8:
		return op{kind: opStat, cof: cof, name: m.Path(e.rng.Intn(m.Len()))}
	default:
		if m.Len() < 2 {
			name := m.Path(0)
			return op{kind: opWrite, cof: cof, name: name, off: cof.size(name),
				size: 64 + e.rng.Intn(1985), pseed: e.rng.Int63()}
		}
		return op{kind: opUnlink, cof: cof, name: m.Path(e.rng.Intn(m.Len()))}
	}
}

// size is the model's length of a file in the coffer.
func (cof *cofferState) size(name string) int {
	data, _ := cof.model.Data(name)
	return len(data)
}

// forceWrite queues an append to the given file as the very next scheduled
// op — the survivor that must wait out a planted lease and steal it.
func (e *engine) forceWrite(cof *cofferState, name string) {
	e.forced = append(e.forced, op{
		kind:  opWrite,
		cof:   cof,
		name:  name,
		off:   cof.size(name),
		size:  256,
		pseed: e.rng.Int63(),
		steal: true,
	})
}

// execute runs one op on one client, with the dispatcher-level re-dispatch
// retry (one re-attempt after a guard-recovered fault), then classifies the
// outcome and checks the bounded-wait invariant.
func (e *engine) execute(c *client, o op) {
	start := c.th.Clk.Now()
	err := e.apply(c, o)
	retried := false
	if err != nil && errors.Is(err, vfs.ErrIO) {
		// The guard converted a fault into ErrIO and invalidated the stale
		// mounts; one re-dispatch either succeeds (healthy coffer) or
		// surfaces the typed quarantine error (victim coffer).
		retried = true
		err = e.apply(c, o)
	}
	dur := c.th.Clk.Now() - start
	if dur > e.rep.MaxOpNS {
		e.rep.MaxOpNS = dur
	}
	if bound := zofs.LeaseBudget() + leaseSlackNS(); dur > bound {
		e.violate("bounded_wait", fmt.Sprintf("%s %s took %dns > budget+slack %dns",
			o.kind, o.name, dur, bound))
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

// apply performs the operation through the client's FSLibs dispatcher.
func (e *engine) apply(c *client, o op) error {
	th := c.th
	switch o.kind {
	case opCreate, opWrite:
		flags := vfs.O_WRONLY
		if o.kind == opCreate {
			flags = vfs.O_CREATE | vfs.O_TRUNC | vfs.O_RDWR
		}
		// fileMode exec-masks equal to the coffer's 0o700, so the file lives
		// INSIDE its coffer (§5: same-permission rule) — quarantining the
		// coffer must therefore govern every campaign file in it, which is
		// exactly the containment the campaign asserts.
		fd, err := c.lib.Open(th, o.name, flags, fileMode)
		if err != nil {
			return err
		}
		_, werr := c.lib.Pwrite(th, fd, payload(o.pseed, o.size), int64(o.off))
		cerr := c.lib.Close(th, fd)
		if werr != nil {
			return werr
		}
		return cerr
	case opRead:
		want, _ := o.cof.model.Data(o.name)
		fd, err := c.lib.Open(th, o.name, vfs.O_RDONLY, 0)
		if err != nil {
			return err
		}
		buf := make([]byte, len(want))
		n, rerr := c.lib.Pread(th, fd, buf, 0)
		cerr := c.lib.Close(th, fd)
		if rerr != nil {
			return rerr
		}
		if n != len(want) || !bytes.Equal(buf[:n], want) {
			return errMismatch
		}
		return cerr
	case opStat:
		want, _ := o.cof.model.Data(o.name)
		fi, err := c.lib.Stat(th, o.name)
		if err != nil {
			return err
		}
		if fi.Size != int64(len(want)) {
			return errMismatch
		}
		return nil
	case opUnlink:
		return c.lib.Unlink(th, o.name)
	}
	return fmt.Errorf("chaos: unknown op kind %d", o.kind)
}

// record applies one successful op to its coffer's model.
func (o op) record() {
	m := o.cof.model
	switch o.kind {
	case opCreate:
		m.Create(o.name, fileMode)
		m.Write(o.name, payload(o.pseed, o.size), 0)
	case opWrite:
		m.Write(o.name, payload(o.pseed, o.size), int64(o.off))
	case opUnlink:
		m.Unlink(o.name)
	}
}

// mutates reports whether the op kind writes.
func (o op) mutates() bool {
	return o.kind == opCreate || o.kind == opWrite || o.kind == opUnlink
}

// classify scores one completed op against the containment invariants and
// updates the per-coffer scoreboard.
func (e *engine) classify(o op, err error, degraded bool) {
	cof := o.cof
	var out outcomeClass
	switch {
	case err == nil && cof.offline:
		// Nothing may succeed against an offline coffer.
		e.violate("offline_leak", fmt.Sprintf("%s %s succeeded on offline coffer", o.kind, o.name))
		out = outFailed
	case err == nil && cof.readOnly && o.mutates():
		e.violate("readonly_leak", fmt.Sprintf("%s %s mutated read-only coffer", o.kind, o.name))
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
				fmt.Sprintf("%s %s on offline coffer: %v", o.kind, o.name, err))
			out = outFailed
		}
	case cof.readOnly && o.mutates():
		if errors.Is(err, vfs.ErrReadOnlyCoffer) || errors.Is(err, vfs.ErrIO) {
			out = outCorrectFail
		} else {
			e.violate("victim_unexpected_error",
				fmt.Sprintf("%s %s on read-only coffer: %v", o.kind, o.name, err))
			out = outFailed
		}
	default:
		// Healthy coffer (or a read on a read-only one, which the
		// quarantine is required to keep serving): any error is a
		// containment violation.
		e.violate("healthy_op_failed", fmt.Sprintf("%s %s (%s): %v", o.kind, o.name, cof.role, err))
		out = outFailed
	}

	e.rep.OpsByKind[o.kind.String()]++
	cof.overall.add(out)
	if e.quarActive {
		cof.durQuar.add(out)
		if cof.role == roleHealthy {
			e.rep.HealthyOpsDuringQuarantine++
		}
	}
}
