// Package filebench reimplements the four Filebench personalities the
// paper evaluates (Table 6, Figures 9–10): fileserver, webserver, webproxy
// and varmail, with the published parameters (file counts, directory
// widths, mean file sizes, read/write ratios).
//
// Directory width shapes the namespace exactly as in Filebench: a width of
// 1,000,000 puts every file in one flat directory (the webproxy/varmail
// configuration whose huge directories separate ZoFS from PMFS/NOVA in
// Figure 9), while a width of 20 produces a deep tree (the
// ZoFS-20dirwidth / Figure 10(b) configuration, where ZoFS's backwards
// path parsing pays for long paths).
package filebench

import (
	"errors"
	"fmt"
	"math/rand"

	"zofs/internal/proc"
	"zofs/internal/simclock"
	"zofs/internal/vfs"
)

// Personality identifies a workload.
type Personality string

const (
	Fileserver Personality = "fileserver"
	Webserver  Personality = "webserver"
	Webproxy   Personality = "webproxy"
	Varmail    Personality = "varmail"
)

// All lists the personalities of Table 6.
var All = []Personality{Fileserver, Webserver, Webproxy, Varmail}

// Config are the Table 6 parameters.
type Config struct {
	Personality Personality
	Files       int
	DirWidth    int
	FileSize    int64
	// IOSize is the unit of appends/reads within a flow.
	IOSize int64
}

// Default returns the paper's configuration for a personality (Table 6).
func Default(p Personality) Config {
	switch p {
	case Fileserver:
		return Config{Personality: p, Files: 10000, DirWidth: 20, FileSize: 128 << 10, IOSize: 16 << 10}
	case Webserver:
		return Config{Personality: p, Files: 1000, DirWidth: 20, FileSize: 16 << 10, IOSize: 16 << 10}
	case Webproxy:
		return Config{Personality: p, Files: 10000, DirWidth: 1000000, FileSize: 16 << 10, IOSize: 16 << 10}
	case Varmail:
		return Config{Personality: p, Files: 1000, DirWidth: 1000000, FileSize: 16 << 10, IOSize: 16 << 10}
	default:
		panic("filebench: unknown personality " + string(p))
	}
}

// Result is one cell of Figure 9/10.
type Result struct {
	Personality Personality
	Threads     int
	Ops         int64
	VirtualNS   int64
	KopsPerSec  float64
}

// fileSet holds the pre-created namespace.
type fileSet struct {
	cfg   Config
	dirs  []string // leaf directories
	paths []string // file paths
}

// buildTree creates a directory tree where no directory exceeds width
// children, mirroring Filebench's fileset dirwidth parameter.
func buildTree(fs vfs.FileSystem, th *proc.Thread, cfg Config) (*fileSet, error) {
	set := &fileSet{cfg: cfg}
	root := "/" + string(cfg.Personality)
	if err := fs.Mkdir(th, root, 0o755); err != nil {
		return nil, err
	}
	// Number of leaf dirs needed so each holds <= width files.
	width := cfg.DirWidth
	if width <= 0 {
		width = 20
	}
	nLeaf := (cfg.Files + width - 1) / width
	// Build intermediate levels so no dir has more than width children.
	level := []string{root}
	for len(level)*width < nLeaf {
		var next []string
		for _, d := range level {
			for i := 0; i < width && len(next) < nLeaf; i++ {
				nd := fmt.Sprintf("%s/m%d", d, i)
				if err := fs.Mkdir(th, nd, 0o755); err != nil {
					return nil, err
				}
				next = append(next, nd)
			}
		}
		level = next
	}
	// Leaf dirs.
	for i := 0; i < nLeaf; i++ {
		parent := level[i%len(level)]
		d := fmt.Sprintf("%s/d%04d", parent, i)
		if err := fs.Mkdir(th, d, 0o755); err != nil {
			return nil, err
		}
		set.dirs = append(set.dirs, d)
	}
	// Files with the mean size.
	buf := make([]byte, cfg.FileSize)
	for i := 0; i < cfg.Files; i++ {
		p := fmt.Sprintf("%s/f%06d", set.dirs[i%len(set.dirs)], i)
		h, err := fs.Create(th, p, 0o644)
		if err != nil {
			return nil, err
		}
		if _, err := h.WriteAt(th, buf, 0); err != nil {
			return nil, err
		}
		h.Close(th)
		set.paths = append(set.paths, p)
	}
	return set, nil
}

// flow is one personality's operation sequence; returns ops performed.
type flow func(th *proc.Thread, rng *rand.Rand, seq int64) (int64, error)

// makeFlow builds the per-thread flow function for a personality,
// following the canonical Filebench definitions.
func makeFlow(fs vfs.FileSystem, set *fileSet, tid int) flow {
	cfg := set.cfg
	io := make([]byte, cfg.IOSize)
	whole := make([]byte, cfg.FileSize)

	pick := func(rng *rand.Rand) string { return set.paths[rng.Intn(len(set.paths))] }
	dirOf := func(rng *rand.Rand) string { return set.dirs[rng.Intn(len(set.dirs))] }

	// Reads tolerate ErrNotExist: webproxy/varmail threads delete and
	// re-create files concurrently, so a victim may vanish mid-flow.
	readWhole := func(th *proc.Thread, p string) error {
		h, err := open(fs, th, p, vfs.O_RDONLY)
		if errors.Is(err, vfs.ErrNotExist) {
			return nil
		}
		if err != nil {
			return err
		}
		_, err = h.ReadAt(th, whole, 0)
		h.Close(th)
		if errors.Is(err, vfs.ErrNotExist) || errors.Is(err, vfs.ErrIO) {
			return nil
		}
		return err
	}

	switch cfg.Personality {
	case Fileserver:
		// createfile → writewholefile → append → readwholefile → delete
		// → stat (R/W 1:2).
		return func(th *proc.Thread, rng *rand.Rand, seq int64) (int64, error) {
			p := fmt.Sprintf("%s/new-%d-%d", dirOf(rng), tid, seq)
			h, err := fs.Create(th, p, 0o644)
			if err != nil {
				return 0, err
			}
			if _, err := h.WriteAt(th, whole, 0); err != nil {
				return 0, err
			}
			if _, err := h.Append(th, io); err != nil {
				return 0, err
			}
			h.Close(th)
			if err := readWhole(th, pick(rng)); err != nil {
				return 0, err
			}
			if err := fs.Unlink(th, p); err != nil {
				return 0, err
			}
			if _, err := stat(fs, th, pick(rng)); err != nil && !errors.Is(err, vfs.ErrNotExist) {
				return 0, err
			}
			return 6, nil
		}

	case Webserver:
		// 10 × (open, readwholefile, close) + 1 log append (R/W 10:1).
		logPath := fmt.Sprintf("/%s/weblog-%d", cfg.Personality, tid)
		return func(th *proc.Thread, rng *rand.Rand, seq int64) (int64, error) {
			for i := 0; i < 10; i++ {
				if err := readWhole(th, pick(rng)); err != nil {
					return 0, err
				}
			}
			lh, err := open(fs, th, logPath, vfs.O_WRONLY|vfs.O_CREATE)
			if err != nil {
				return 0, err
			}
			if _, err := lh.Append(th, io); err != nil {
				return 0, err
			}
			lh.Close(th)
			return 11, nil
		}

	case Webproxy:
		// delete, create+append, then 5 × read, plus log append (5:1).
		logPath := fmt.Sprintf("/%s/proxylog-%d", cfg.Personality, tid)
		return func(th *proc.Thread, rng *rand.Rand, seq int64) (int64, error) {
			victim := pick(rng)
			_ = fs.Unlink(th, victim) // may race with re-creation by another thread
			h, err := fs.Create(th, victim, 0o644)
			if err != nil {
				return 0, err
			}
			if _, err := h.Append(th, whole); err != nil {
				return 0, err
			}
			h.Close(th)
			for i := 0; i < 5; i++ {
				if err := readWhole(th, pick(rng)); err != nil {
					return 0, err
				}
			}
			lh, err := open(fs, th, logPath, vfs.O_WRONLY|vfs.O_CREATE)
			if err != nil {
				return 0, err
			}
			if _, err := lh.Append(th, io); err != nil {
				return 0, err
			}
			lh.Close(th)
			return 8, nil
		}

	case Varmail:
		// delete, create+append+fsync, open+read+append+fsync, open+read
		// (R/W 1:1).
		return func(th *proc.Thread, rng *rand.Rand, seq int64) (int64, error) {
			victim := pick(rng)
			_ = fs.Unlink(th, victim)
			h, err := fs.Create(th, victim, 0o644)
			if err != nil {
				return 0, err
			}
			if _, err := h.Append(th, io); err != nil {
				return 0, err
			}
			h.Sync(th)
			h.Close(th)
			p2 := pick(rng)
			h2, err := open(fs, th, p2, vfs.O_RDWR)
			if errors.Is(err, vfs.ErrNotExist) {
				return 5, nil
			}
			if err != nil {
				return 0, err
			}
			if _, err := h2.ReadAt(th, io, 0); err != nil {
				return 0, err
			}
			if _, err := h2.Append(th, io); err != nil {
				return 0, err
			}
			h2.Sync(th)
			h2.Close(th)
			if err := readWhole(th, pick(rng)); err != nil {
				return 0, err
			}
			return 9, nil
		}
	}
	panic("unreachable")
}

// open and stat re-dispatch on symlink expansion like the FSLibs dispatcher.
func open(fs vfs.FileSystem, th *proc.Thread, p string, flags int) (vfs.Handle, error) {
	return vfs.Follow(p, func(p string) (vfs.Handle, error) { return fs.Open(th, p, flags) })
}

func stat(fs vfs.FileSystem, th *proc.Thread, p string) (vfs.FileInfo, error) {
	return vfs.Follow(p, func(p string) (vfs.FileInfo, error) { return fs.Stat(th, p) })
}

// Run prepares the file set and executes the personality with the given
// thread count for targetNS virtual nanoseconds per thread.
func Run(fs vfs.FileSystem, p *proc.Process, cfg Config, threads int, targetNS int64) (Result, error) {
	setup := p.NewThread()
	set, err := buildTree(fs, setup, cfg)
	if err != nil {
		return Result{}, fmt.Errorf("filebench %s setup: %w", cfg.Personality, err)
	}
	start := setup.Clk.Now()
	deadline := start + targetNS

	// The threads run one flow at a time on this goroutine, the earliest
	// clock first (simclock.Earliest), until every clock passes the deadline.
	ths := make([]*proc.Thread, threads)
	flows := make([]flow, threads)
	rngs := make([]*rand.Rand, threads)
	seqs := make([]int64, threads)
	for i := range ths {
		ths[i] = p.NewThread()
		ths[i].Clk.AdvanceTo(start)
		flows[i] = makeFlow(fs, set, i)
		rngs[i] = rand.New(rand.NewSource(int64(i)*2654435761 + 1))
	}
	clock := func(th *proc.Thread) *simclock.Clock { return th.Clk }
	var total int64
	for {
		i := simclock.Earliest(ths, clock)
		if i < 0 || ths[i].Clk.Now() >= deadline {
			break
		}
		k, err := flows[i](ths[i], rngs[i], seqs[i])
		if err != nil {
			return Result{}, fmt.Errorf("%s thread %d: %w", cfg.Personality, i, err)
		}
		seqs[i]++
		total += k
	}
	var maxEnd int64
	for _, th := range ths {
		maxEnd = max(maxEnd, th.Clk.Now())
	}
	r := Result{Personality: cfg.Personality, Threads: threads, Ops: total, VirtualNS: maxEnd - start}
	if r.VirtualNS > 0 {
		r.KopsPerSec = float64(total) / (float64(r.VirtualNS) / 1e9) / 1e3
	}
	return r, nil
}
