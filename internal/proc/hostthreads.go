package proc

import (
	"runtime"
	"sync"
)

// spareHostThreads is how many OS threads init parks in the Go scheduler's
// idle pool beyond the ones the runtime has already started.
const spareHostThreads = 4

// init grows the Go runtime's thread pool to its working size before any
// simulated thread runs. The runtime starts OS threads lazily: when a
// stop-the-world (a collection, runtime.ReadMemStats) restarts and no parked
// thread is on its idle list, it makes one (runtime.allocm: 5 heap objects,
// 5,248 B). Whether the idle list is empty at that instant is a race between
// the collector's background goroutines going back to sleep, so a process
// grows from four threads to five at an arbitrary point in its first seconds
// — and a single-goroutine read loop that allocates nothing (one object in
// 2,000,000 ops) reports 1 or 6 allocations for the same work, by where the
// fifth thread happened to be born. Holding spareHostThreads goroutines on
// threads of their own at the same time forces those threads into existence
// here, once, and releasing them leaves them parked: afterwards the idle list
// is never empty and the runtime allocates no thread under measurement. No
// goroutine outlives init; an idle thread costs its kernel stack and nothing
// else.
func init() {
	var held, released sync.WaitGroup
	release := make(chan struct{})
	held.Add(spareHostThreads)
	released.Add(spareHostThreads)
	for range spareHostThreads {
		go func() {
			runtime.LockOSThread()
			held.Done()
			<-release
			runtime.UnlockOSThread()
			released.Done()
		}()
	}
	held.Wait()
	close(release)
	released.Wait()
}
