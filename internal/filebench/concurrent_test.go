package filebench

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"zofs/internal/sysfactory"
)

// TestFlowsOnRealGoroutines runs every personality's flows on real
// goroutines — four threads, 1 ms of virtual time, a 200-file set — over
// ZoFS and the four baselines. Run steps its threads on one goroutine, so
// this is what puts concurrent unlink and re-create of names other threads
// are reading, deep-tree lookups and log appends in front of go test -race.
// The interleaving is the Go scheduler's: only errors are checked.
func TestFlowsOnRealGoroutines(t *testing.T) {
	const threads, targetNS = 4, 1_000_000
	systems := []sysfactory.System{sysfactory.ZoFS, sysfactory.PMFS, sysfactory.NOVA, sysfactory.Strata, sysfactory.Ext4DAX}
	for _, sys := range systems {
		for _, p := range All {
			t.Run(sys.Name+"/"+string(p), func(t *testing.T) {
				in, err := sys.New(1<<30, false)
				if err != nil {
					t.Fatal(err)
				}
				in.SetConcurrency(threads)
				cfg := Default(p)
				cfg.Files = 200
				setup := in.Proc.NewThread()
				set, err := buildTree(in.FS, setup, cfg)
				if err != nil {
					t.Fatal(err)
				}
				deadline := setup.Clk.Now() + targetNS
				errs := make([]error, threads)
				var wg sync.WaitGroup
				for i := range errs {
					th := in.Proc.NewThread()
					th.Clk.AdvanceTo(setup.Clk.Now())
					fl := makeFlow(in.FS, set, i)
					rng := rand.New(rand.NewSource(int64(i) + 1))
					wg.Add(1)
					go func() {
						defer wg.Done()
						for seq := int64(0); th.Clk.Now() < deadline; seq++ {
							if _, err := fl(th, rng, seq); err != nil {
								errs[i] = fmt.Errorf("thread %d flow %d: %w", i, seq, err)
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
