package fxmark

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"zofs/internal/sysfactory"
)

// TestWorkersOnRealGoroutines runs every workload's prepared workers on
// real goroutines — four threads, a short virtual window — over ZoFS and
// the four baselines. Run steps its threads on one goroutine, so this is
// what puts the file systems' real concurrency (shared handles, directory
// buckets, allocator shards, the kernel agent) in front of go test -race.
// The interleaving is the Go scheduler's: only errors are checked.
func TestWorkersOnRealGoroutines(t *testing.T) {
	const threads, targetNS = 4, 200_000
	systems := []sysfactory.System{sysfactory.ZoFS, sysfactory.PMFS, sysfactory.NOVA, sysfactory.Strata, sysfactory.Ext4DAX}
	for _, sys := range systems {
		for _, w := range All {
			t.Run(sys.Name+"/"+string(w), func(t *testing.T) {
				in, err := sys.New(256<<20, false)
				if err != nil {
					t.Fatal(err)
				}
				in.SetConcurrency(threads)
				env := &Env{FS: in.FS, Proc: in.Proc}
				setup := env.Proc.NewThread()
				workers, err := prepare(env, setup, w, threads, targetNS)
				if err != nil {
					t.Fatal(err)
				}
				deadline := setup.Clk.Now() + targetNS
				errs := make([]error, threads)
				var wg sync.WaitGroup
				for i, work := range workers {
					th := env.Proc.NewThread()
					th.Clk.AdvanceTo(setup.Clk.Now())
					wg.Add(1)
					go func() {
						defer wg.Done()
						for n := int64(0); th.Clk.Now() < deadline; n++ {
							if err := work(th, n); err != nil {
								errs[i] = fmt.Errorf("thread %d op %d: %w", i, n, err)
								return
							}
						}
					}()
				}
				wg.Wait()
				if err := errors.Join(errs...); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}
