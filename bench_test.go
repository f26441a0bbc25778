package zofs_test

// One benchmark per experiment of harness.Experiments — the tables and
// figures of the paper's evaluation (§6) and the repository's own campaigns
// — plus ablation benchmarks for the design decisions DESIGN.md calls out.
// The experiment benchmarks wrap the harness drivers (printing is discarded;
// go test -bench regenerates the numbers, `zofs-bench` prints them); the
// micro and ablation benchmarks report virtual nanoseconds per operation
// via the "vns/op" metric — the simulation's performance currency.

import (
	"fmt"
	"io"
	"testing"

	"zofs/internal/filebench"
	"zofs/internal/fxmark"
	"zofs/internal/harness"
	"zofs/internal/lsmdb"
	"zofs/internal/sysfactory"
	"zofs/internal/tpcc"
	"zofs/internal/vfs"
	"zofs/internal/zofs"
)

func benchOpts() harness.Options {
	return harness.Options{Quick: true, DeviceBytes: 2 << 30, Threads: []int{1, 2, 4}, TargetNS: 2_000_000}
}

// ---- one benchmark per experiment ----------------------------------------------

// BenchmarkExperiments runs every entry of the one experiment list, in a
// scratch directory (some record a BENCH_*.json where they run).
func BenchmarkExperiments(b *testing.B) {
	for _, e := range harness.Experiments {
		b.Run(e.Name, func(b *testing.B) {
			b.Chdir(b.TempDir())
			for i := 0; i < b.N; i++ {
				if _, err := e.Run(io.Discard, benchOpts()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// ---- per-operation micro benchmarks (real ns/op + virtual vns/op) --------------

// microFS builds a ZoFS instance for op benchmarks.
func microFS(b *testing.B, opts zofs.Options) (*sysfactory.Instance, func() *instThread) {
	b.Helper()
	in, err := sysfactory.NewZoFS("ZoFS", opts).New(4 << 30)
	if err != nil {
		b.Fatal(err)
	}
	return in, func() *instThread { return &instThread{in: in} }
}

type instThread struct{ in *sysfactory.Instance }

func BenchmarkZoFSCreate(b *testing.B) {
	in, _ := microFS(b, zofs.Options{})
	th := in.Proc.NewThread()
	if err := in.FS.Mkdir(th, "/d", 0o755); err != nil {
		b.Fatal(err)
	}
	start := th.Clk.Now()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h, err := in.FS.Create(th, fmt.Sprintf("/d/f%09d", i), 0o644)
		if err != nil {
			b.Fatal(err)
		}
		h.Close(th)
	}
	b.ReportMetric(float64(th.Clk.Now()-start)/float64(b.N), "vns/op")
}

func BenchmarkZoFSAppend4K(b *testing.B) {
	in, _ := microFS(b, zofs.Options{})
	th := in.Proc.NewThread()
	h, err := in.FS.Create(th, "/log", 0o644)
	if err != nil {
		b.Fatal(err)
	}
	buf := make([]byte, 4096)
	// Rotate the log before it hits the per-file block-map limit (~1GB):
	// a real log would be rotated long before that anyway.
	const rotateEvery = 200_000
	start := th.Clk.Now()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%rotateEvery == rotateEvery-1 {
			if err := in.FS.Truncate(th, "/log", 0); err != nil {
				b.Fatal(err)
			}
		}
		if _, err := h.Append(th, buf); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(th.Clk.Now()-start)/float64(b.N), "vns/op")
}

func BenchmarkZoFSOverwrite4K(b *testing.B) {
	in, _ := microFS(b, zofs.Options{})
	th := in.Proc.NewThread()
	h, _ := in.FS.Create(th, "/f", 0o644)
	buf := make([]byte, 4096)
	h.WriteAt(th, buf, 0)
	start := th.Clk.Now()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := h.WriteAt(th, buf, 0); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(th.Clk.Now()-start)/float64(b.N), "vns/op")
}

func BenchmarkZoFSRead4K(b *testing.B) {
	in, _ := microFS(b, zofs.Options{})
	th := in.Proc.NewThread()
	h, _ := in.FS.Create(th, "/f", 0o644)
	buf := make([]byte, 4096)
	h.WriteAt(th, buf, 0)
	start := th.Clk.Now()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := h.ReadAt(th, buf, 0); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(th.Clk.Now()-start)/float64(b.N), "vns/op")
}

func BenchmarkZoFSStat(b *testing.B) {
	in, _ := microFS(b, zofs.Options{})
	th := in.Proc.NewThread()
	if _, err := in.FS.Create(th, "/target", 0o644); err != nil {
		b.Fatal(err)
	}
	start := th.Clk.Now()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := in.FS.Stat(th, "/target"); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(th.Clk.Now()-start)/float64(b.N), "vns/op")
}

// ---- ablation benchmarks (DESIGN.md §4) ----------------------------------------

// BenchmarkAblationEnlargeBatch sweeps the coffer_enlarge batch size — the
// knob behind the Figure 7(d)/(g) scalability knee.
func BenchmarkAblationEnlargeBatch(b *testing.B) {
	for _, batch := range []int64{8, 32, 128, 512} {
		batch := batch
		b.Run(fmt.Sprintf("meta=%d", batch), func(b *testing.B) {
			sys := sysfactory.NewZoFS("ZoFS", zofs.Options{MetaEnlargeBatch: batch})
			var v float64
			for i := 0; i < b.N; i++ {
				in, err := sys.New(2 << 30)
				if err != nil {
					b.Fatal(err)
				}
				env := &fxmark.Env{FS: in.FS, Proc: in.Proc, SetConcurrency: in.SetConcurrency}
				r, err := fxmark.Run(env, fxmark.MWCL, 4, 2_000_000)
				if err != nil {
					b.Fatal(err)
				}
				v = r.MopsPerSec
			}
			b.ReportMetric(v, "Mops/s")
		})
	}
}

// BenchmarkAblationPathDepth measures the backwards path parse on deep
// trees (the ZoFS-20dirwidth effect, §6.2).
func BenchmarkAblationPathDepth(b *testing.B) {
	for _, depth := range []int{1, 4, 8, 12} {
		depth := depth
		b.Run(fmt.Sprintf("depth=%d", depth), func(b *testing.B) {
			in, _ := microFS(b, zofs.Options{})
			th := in.Proc.NewThread()
			path := ""
			for d := 0; d < depth; d++ {
				path += fmt.Sprintf("/d%d", d)
				if err := in.FS.Mkdir(th, path, 0o755); err != nil {
					b.Fatal(err)
				}
			}
			target := path + "/leaf"
			if _, err := in.FS.Create(th, target, 0o644); err != nil {
				b.Fatal(err)
			}
			start := th.Clk.Now()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := in.FS.Stat(th, target); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(th.Clk.Now()-start)/float64(b.N), "vns/op")
		})
	}
}

// BenchmarkAblationDirectoryScale measures point lookups as a directory
// grows past the inline dentry area into hash-bucket chains (§5.1).
func BenchmarkAblationDirectoryScale(b *testing.B) {
	for _, files := range []int{16, 256, 4096} {
		files := files
		b.Run(fmt.Sprintf("files=%d", files), func(b *testing.B) {
			in, _ := microFS(b, zofs.Options{})
			th := in.Proc.NewThread()
			if err := in.FS.Mkdir(th, "/dir", 0o755); err != nil {
				b.Fatal(err)
			}
			for i := 0; i < files; i++ {
				if _, err := in.FS.Create(th, fmt.Sprintf("/dir/f%06d", i), 0o644); err != nil {
					b.Fatal(err)
				}
			}
			start := th.Clk.Now()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := in.FS.Stat(th, fmt.Sprintf("/dir/f%06d", i%files)); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(th.Clk.Now()-start)/float64(b.N), "vns/op")
		})
	}
}

// BenchmarkAblationInlineData measures §5.1's future-work optimization:
// small-file create+write with data embedded in the inode page vs paged.
func BenchmarkAblationInlineData(b *testing.B) {
	for _, sys := range []sysfactory.System{sysfactory.ZoFS, sysfactory.ZoFSInline} {
		sys := sys
		b.Run(sys.Name, func(b *testing.B) {
			in, err := sys.New(4 << 30)
			if err != nil {
				b.Fatal(err)
			}
			th := in.Proc.NewThread()
			buf := make([]byte, 256)
			start := th.Clk.Now()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				h, err := in.FS.Create(th, fmt.Sprintf("/s%09d", i), 0o644)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := h.WriteAt(th, buf, 0); err != nil {
					b.Fatal(err)
				}
				h.Close(th)
			}
			b.ReportMetric(float64(th.Clk.Now()-start)/float64(b.N), "vns/op")
		})
	}
}

// BenchmarkAblationAllocatorSharing contrasts the leased per-thread
// allocator against forced cross-thread slot churn (tiny lease pools are
// not configurable, so this compares 1-thread vs 8-thread DWAL allocation
// pressure on one coffer).
func BenchmarkAblationAllocatorSharing(b *testing.B) {
	for _, threads := range []int{1, 4, 8} {
		threads := threads
		b.Run(fmt.Sprintf("threads=%d", threads), func(b *testing.B) {
			var v float64
			for i := 0; i < b.N; i++ {
				in, err := sysfactory.ZoFS.New(4 << 30)
				if err != nil {
					b.Fatal(err)
				}
				env := &fxmark.Env{FS: in.FS, Proc: in.Proc, SetConcurrency: in.SetConcurrency}
				r, err := fxmark.Run(env, fxmark.DWAL, threads, 2_000_000)
				if err != nil {
					b.Fatal(err)
				}
				v = r.MopsPerSec
			}
			b.ReportMetric(v, "Mops/s")
		})
	}
}

// ---- application-level composite benchmarks -------------------------------------

func BenchmarkLevelDBFillSeqZoFS(b *testing.B) {
	in, err := sysfactory.ZoFS.New(2 << 30)
	if err != nil {
		b.Fatal(err)
	}
	th := in.Proc.NewThread()
	db, err := lsmdb.Open(in.FS, th, lsmdb.Options{})
	if err != nil {
		b.Fatal(err)
	}
	val := make([]byte, 100)
	start := th.Clk.Now()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := db.Put(th, fmt.Sprintf("%016d", i), val); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(th.Clk.Now()-start)/float64(b.N), "vns/op")
}

func BenchmarkTPCCNewOrderZoFS(b *testing.B) {
	in, err := sysfactory.ZoFS.New(2 << 30)
	if err != nil {
		b.Fatal(err)
	}
	th := in.Proc.NewThread()
	cfg := tpcc.Config{Warehouses: 1, Districts: 4, CustomersPerDistrict: 60, Items: 300}
	db, err := tpcc.Setup(in.FS, th, cfg)
	if err != nil {
		b.Fatal(err)
	}
	cl := tpcc.NewClient(db, cfg, 7)
	wt := in.Proc.NewThread()
	start := wt.Clk.Now()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := cl.Exec(wt, tpcc.NEW); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(wt.Clk.Now()-start)/float64(b.N), "vns/op")
}

func BenchmarkFilebenchVarmailZoFS(b *testing.B) {
	var v float64
	for i := 0; i < b.N; i++ {
		in, err := sysfactory.ZoFS.New(2 << 30)
		if err != nil {
			b.Fatal(err)
		}
		r, err := filebench.Run(in.FS, in.Proc, filebench.Default(filebench.Varmail), 2, 2_000_000)
		if err != nil {
			b.Fatal(err)
		}
		v = r.KopsPerSec
	}
	b.ReportMetric(v, "kops/s")
}

var _ = vfs.O_RDONLY
