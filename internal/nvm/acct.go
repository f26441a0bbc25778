package nvm

import (
	"sync/atomic"

	"zofs/internal/byteflow"
	"zofs/internal/simclock"
)

// Byte-flow accounting: an optional per-device ledger that attributes every
// issued write byte to the byte-class carried by the issuing thread's clock
// (see simclock.Clock.SetWriteClass) and maintains per-page write/flush
// counters — the wear heatmap. Disabled (the default) it costs one atomic
// pointer load and a predicted branch per write, mirroring the telemetry
// recorder's nil-sink discipline.

// acctState is one accounting interval's counters. A fresh state is
// installed on enable/reset so readers never race a partial zeroing.
type acctState struct {
	app    atomic.Int64
	total  atomic.Int64 // every issued byte, counted independently of the class split
	fences atomic.Int64
	flush  atomic.Int64

	issued [byteflow.NumClasses]atomic.Int64
	nt     [byteflow.NumClasses]atomic.Int64
	lines  [byteflow.NumClasses]atomic.Int64

	pageWrites  []atomic.Int64
	pageBytes   []atomic.Int64
	pageFlushes []atomic.Int64
}

func newAcctState(pages int64) *acctState {
	return &acctState{
		pageWrites:  make([]atomic.Int64, pages),
		pageBytes:   make([]atomic.Int64, pages),
		pageFlushes: make([]atomic.Int64, pages),
	}
}

// EnableAccounting starts (or restarts) byte-flow accounting on the device
// with zeroed counters.
func (d *Device) EnableAccounting() { d.acct.Store(newAcctState(d.Pages())) }

// DisableAccounting stops byte-flow accounting and drops the counters.
func (d *Device) DisableAccounting() { d.acct.Store(nil) }

// ResetAccounting zeroes the ledger if accounting is enabled (no-op
// otherwise).
func (d *Device) ResetAccounting() {
	if d.acct.Load() != nil {
		d.acct.Store(newAcctState(d.Pages()))
	}
}

// AccountingEnabled reports whether the byte-flow ledger is active.
// Nil-receiver safe (callers may hold a nil device when the wrapped FS does
// not expose one).
func (d *Device) AccountingEnabled() bool { return d != nil && d.acct.Load() != nil }

// AddAppBytes credits n application-payload bytes to the ledger. File
// systems call it with the byte count actually written on behalf of the
// application (not FS-generated metadata).
func (d *Device) AddAppBytes(n int64) {
	if d == nil {
		return
	}
	if a := d.acct.Load(); a != nil && n > 0 {
		a.app.Add(n)
	}
}

// clkClass reads the issuing thread's byte-class tag, clamping unknown
// values into the residual class so a stray tag can never corrupt the sum.
func clkClass(clk *simclock.Clock) byteflow.Class {
	c := byteflow.Class(clk.WriteClass())
	if int(c) >= byteflow.NumClasses {
		return byteflow.ClassOther
	}
	return c
}

// acctWrite records one issued write of n bytes at off. persisted marks the
// nt-store family (persistent at issue); fenced marks writes that fold a
// trailing fence in.
func (d *Device) acctWrite(clk *simclock.Clock, off, n int64, persisted, fenced bool) {
	d.acctWriteClass(clkClass(clk), off, n, persisted, fenced)
}

// acctWriteClass is acctWrite with the byte class resolved by the caller
// (WriteNTClass, ZeroClass).
func (d *Device) acctWriteClass(cls byteflow.Class, off, n int64, persisted, fenced bool) {
	a := d.acct.Load()
	if a == nil || n <= 0 {
		return
	}
	if int(cls) >= byteflow.NumClasses {
		cls = byteflow.ClassOther
	}
	a.total.Add(n)
	a.issued[cls].Add(n)
	if persisted {
		a.nt[cls].Add(n)
	}
	if fenced {
		a.fences.Add(1)
	}
	for pg := off / PageSize; pg <= (off+n-1)/PageSize; pg++ {
		a.pageWrites[pg].Add(1)
		lo, hi := pg*PageSize, (pg+1)*PageSize
		if off > lo {
			lo = off
		}
		if off+n < hi {
			hi = off + n
		}
		a.pageBytes[pg].Add(hi - lo)
	}
}

// acctFlush records one Flush over [off, off+n): the flushed cache lines
// are charged to the issuing thread's class and the touched pages' flush
// counters.
func (d *Device) acctFlush(clk *simclock.Clock, off, n int64) {
	a := d.acct.Load()
	if a == nil {
		return
	}
	a.lines[clkClass(clk)].Add(lines(off, n))
	a.flush.Add(1)
	a.fences.Add(1)
	for pg := off / PageSize; pg <= (off+max64(n, 1)-1)/PageSize; pg++ {
		a.pageFlushes[pg].Add(1)
	}
}

// acctFence records a bare Fence.
func (d *Device) acctFence() {
	if a := d.acct.Load(); a != nil {
		a.fences.Add(1)
	}
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

// FlowSnapshot copies the ledger into a byteflow.Flow. Returns nil when
// accounting is disabled.
func (d *Device) FlowSnapshot() *byteflow.Flow {
	a := d.acct.Load()
	if a == nil {
		return nil
	}
	f := &byteflow.Flow{
		App:      a.app.Load(),
		Total:    a.total.Load(),
		Flushes:  a.flush.Load(),
		Fences:   a.fences.Load(),
		LineSize: LineSize,
	}
	for i := 0; i < byteflow.NumClasses; i++ {
		f.Issued[i] = a.issued[i].Load()
		f.NT[i] = a.nt[i].Load()
		f.Lines[i] = a.lines[i].Load()
	}
	return f
}

// WearSnapshot returns the wear record of every page with activity since
// accounting was enabled/reset, in ascending page order. Returns nil when
// accounting is disabled.
func (d *Device) WearSnapshot() []byteflow.PageWear {
	a := d.acct.Load()
	if a == nil {
		return nil
	}
	var out []byteflow.PageWear
	for pg := range a.pageWrites {
		w, b, fl := a.pageWrites[pg].Load(), a.pageBytes[pg].Load(), a.pageFlushes[pg].Load()
		if w == 0 && fl == 0 {
			continue
		}
		out = append(out, byteflow.PageWear{Page: int64(pg), Writes: w, Bytes: b, Flushes: fl})
	}
	return out
}
