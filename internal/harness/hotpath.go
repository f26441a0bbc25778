package harness

import (
	"fmt"

	"zofs/internal/obsfs"
	"zofs/internal/sysfactory"
	"zofs/internal/telemetry"
	"zofs/internal/vfs"
)

// hotpathRun is hotpathRunOn on a fresh instance of sys.
func hotpathRun(sys sysfactory.System, opts Options, n int) (map[string]float64, error) {
	in, err := sys.New(opts.DeviceBytes)
	if err != nil {
		return nil, err
	}
	return hotpathRunOn(in, nil, n)
}

// hotpathRunOn runs the seven hot-path cells on an instance the caller
// built (and may have instrumented, e.g. enabled byte-flow accounting on)
// and returns simulated kops/s per cell. It is the workload the spans,
// series and wa gates share: each runs it with its collector off and on and
// compares. The first five cells run over one directory large enough to
// exercise both the inline dentry area and the bucket chains:
//
//	create  — empty-file creates (allocator + dentry insert path)
//	lookup  — stat by path (directory lookup path)
//	read4k  — open + 4KB pread + close (open/read path)
//	readdir — list the directory; an op is one name listed
//	unlink  — remove every file, one 4KB block each (dentry kill, the
//	          inode's pointer read, page frees)
//	read64k — 64KB preads through open handles at block-aligned offsets
//	          of 1MB files written front to back (one device access per
//	          physically contiguous run)
//	truncate — truncate each of those 1MB files to nothing (one read and
//	          one clear per pointer array, 256 page frees)
//
// rec, when non-nil, receives per-op telemetry from the obsfs wrap — the
// series gate passes one so the cumulative histograms and the windowed
// series observe the identical op stream.
func hotpathRunOn(in *sysfactory.Instance, rec *telemetry.Recorder, n int) (map[string]float64, error) {
	th := in.Proc.NewThread()
	// With span collection active the wrapper opens a root span per op; with
	// everything off (and no telemetry recorder passed) this returns in.FS
	// unchanged.
	fs := obsfs.Wrap(in.FS, rec)
	if err := fs.Mkdir(th, "/hot", 0o755); err != nil {
		return nil, err
	}
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("/hot/f-%06d", i)
	}
	kops := func(ops int, vns int64) float64 {
		return float64(ops) / float64(vns) * 1e6
	}
	res := map[string]float64{}

	// Cell 1: small-file create.
	start := th.Clk.Now()
	for _, nm := range names {
		h, err := fs.Create(th, nm, 0o644)
		if err != nil {
			return nil, err
		}
		h.Close(th)
	}
	res["create"] = kops(n, th.Clk.Now()-start)

	// Populate 4KB of content for the read cell (untimed).
	buf := make([]byte, 4096)
	for _, nm := range names {
		h, err := fs.Open(th, nm, vfs.O_RDWR)
		if err != nil {
			return nil, err
		}
		if _, err := h.WriteAt(th, buf, 0); err != nil {
			return nil, err
		}
		h.Close(th)
	}

	// And the data cells' 1MB files, written front to back (untimed) while
	// the allocator still hands out fresh grants: after the unlink cell the
	// free list holds 4KB pages in the order the names were removed.
	const bigFiles, bigBlocks = 64, 256
	big := make([]vfs.Handle, bigFiles)
	bigName := func(i int) string { return fmt.Sprintf("/big-%02d", i) }
	mb := make([]byte, bigBlocks*4096)
	for i := range big {
		h, err := fs.Create(th, bigName(i), 0o644)
		if err != nil {
			return nil, err
		}
		if _, err := h.WriteAt(th, mb, 0); err != nil {
			return nil, err
		}
		big[i] = h
	}

	// Cell 2: lookup (stat by path, strided so neighbours don't share
	// hash buckets).
	start = th.Clk.Now()
	for i := 0; i < n; i++ {
		if _, err := fs.Stat(th, names[i*7919%n]); err != nil {
			return nil, err
		}
	}
	res["lookup"] = kops(n, th.Clk.Now()-start)

	// Cell 3: open + 4KB read + close.
	start = th.Clk.Now()
	for i := 0; i < n; i++ {
		h, err := fs.Open(th, names[i*104729%n], vfs.O_RDONLY)
		if err != nil {
			return nil, err
		}
		if _, err := h.ReadAt(th, buf, 0); err != nil {
			return nil, err
		}
		h.Close(th)
	}
	res["read4k"] = kops(n, th.Clk.Now()-start)

	// Cell 4: list the directory; each name listed counts as one op.
	const listings = 4
	start = th.Clk.Now()
	for i := 0; i < listings; i++ {
		ents, err := fs.ReadDir(th, "/hot")
		if err != nil {
			return nil, err
		}
		if len(ents) != n {
			return nil, fmt.Errorf("readdir listed %d of %d names", len(ents), n)
		}
	}
	res["readdir"] = kops(listings*n, th.Clk.Now()-start)

	// Cell 5: unlink every file, strided like the lookups.
	start = th.Clk.Now()
	for i := 0; i < n; i++ {
		if err := fs.Unlink(th, names[i*7919%n]); err != nil {
			return nil, err
		}
	}
	res["unlink"] = kops(n, th.Clk.Now()-start)

	// Cell 6: 64KB preads, strided over files and offsets.
	kb64 := mb[:64<<10]
	start = th.Clk.Now()
	for i := 0; i < n; i++ {
		off := int64(i*7919%(bigBlocks-15)) * 4096
		if got, err := big[i%bigFiles].ReadAt(th, kb64, off); err != nil || got != len(kb64) {
			return nil, fmt.Errorf("read64k: %d, %v", got, err)
		}
	}
	res["read64k"] = kops(n, th.Clk.Now()-start)

	// Cell 7: truncate every 1MB file to nothing.
	start = th.Clk.Now()
	for i := range big {
		if err := fs.Truncate(th, bigName(i), 0); err != nil {
			return nil, err
		}
	}
	res["truncate"] = kops(bigFiles, th.Clk.Now()-start)
	for _, h := range big {
		h.Close(th)
	}
	return res, nil
}
