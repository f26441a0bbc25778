package zofs

import (
	"fmt"
	"testing"

	"zofs/internal/kernfs"
	"zofs/internal/nvm"
	"zofs/internal/proc"
)

// newBenchFS mirrors newTestFS for benchmarks (testing.B has no t.Fatal
// helper semantics worth sharing; failures here abort the benchmark).
func newBenchFS(b *testing.B, opts Options) (*FS, *proc.Thread) {
	b.Helper()
	dev := nvm.NewDevice(256 << 20)
	if err := kernfs.Mkfs(dev, kernfs.MkfsOptions{RootMode: 0o755}); err != nil {
		b.Fatal(err)
	}
	k, err := kernfs.Mount(dev)
	if err != nil {
		b.Fatal(err)
	}
	th := proc.NewProcess(dev, 0, 0).NewThread()
	if err := k.FSMount(th); err != nil {
		b.Fatal(err)
	}
	f := New(k, opts)
	if err := f.EnsureRootDir(th); err != nil {
		b.Fatal(err)
	}
	return f, th
}

// BenchmarkDirLookupHit measures a warm cached lookup in a directory large
// enough to spill into bucket chains. Host wall-time here is the real cost
// of the hash-map probe plus the single cached verification read.
func BenchmarkDirLookupHit(b *testing.B) {
	f, th := newBenchFS(b, Options{})
	if err := f.Mkdir(th, "/d", 0o755); err != nil {
		b.Fatal(err)
	}
	const n = 1024
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("file-%04d", i)
		if _, err := f.Create(th, "/d/"+names[i], 0o644); err != nil {
			b.Fatal(err)
		}
	}
	pos, err := f.walk(th, "/d", false, false)
	if err != nil {
		b.Fatal(err)
	}
	defer pos.close()
	if _, _, err := f.dirLookup(th, pos.ino, names[0]); err != nil { // warm
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := f.dirLookup(th, pos.ino, names[i%n]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDirList measures listing a 1024-name directory off the warm
// index, with its per-entry verification read. Host wall-time and
// allocations here are the listing's real cost; vns/name is what the cost
// model charges.
func BenchmarkDirList(b *testing.B) {
	f, th := newBenchFS(b, Options{})
	if err := f.Mkdir(th, "/d", 0o755); err != nil {
		b.Fatal(err)
	}
	const n = 1024
	for i := 0; i < n; i++ {
		if _, err := f.Create(th, fmt.Sprintf("/d/file-%04d", i), 0o644); err != nil {
			b.Fatal(err)
		}
	}
	if _, err := f.ReadDir(th, "/d"); err != nil { // warm
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	t0 := th.Clk.Now()
	for i := 0; i < b.N; i++ {
		ents, err := f.ReadDir(th, "/d")
		if err != nil || len(ents) != n {
			b.Fatalf("listed %d of %d: %v", len(ents), n, err)
		}
	}
	b.ReportMetric(float64(th.Clk.Now()-t0)/float64(b.N)/n, "vns/name")
}

// BenchmarkDirLookupMiss measures negative lookups answered from index
// completeness — no NVM scan at all once the index is built.
func BenchmarkDirLookupMiss(b *testing.B) {
	f, th := newBenchFS(b, Options{})
	if err := f.Mkdir(th, "/d", 0o755); err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 1024; i++ {
		if _, err := f.Create(th, fmt.Sprintf("/d/file-%04d", i), 0o644); err != nil {
			b.Fatal(err)
		}
	}
	pos, err := f.walk(th, "/d", false, false)
	if err != nil {
		b.Fatal(err)
	}
	defer pos.close()
	f.dirLookup(th, pos.ino, "absent") // build the index
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := f.dirLookup(th, pos.ino, "absent"); err == nil {
			b.Fatal("phantom hit")
		}
	}
}

// BenchmarkAllocBatch measures a page allocation and free through the
// thread's volatile batch cache.
func BenchmarkAllocBatch(b *testing.B) {
	f, th := newBenchFS(b, Options{})
	pos, err := f.walk(th, "/", false, true)
	if err != nil {
		b.Fatal(err)
	}
	defer pos.close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		page, err := f.allocPage(th, pos.m, classData)
		if err != nil {
			b.Fatal(err)
		}
		f.freePage(th, pos.m, classData, page)
	}
}
