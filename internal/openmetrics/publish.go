package openmetrics

import (
	"os"
	"time"
)

// Publishing: obsfs writes the observation document into a directory that
// zofs-obs top polls while a run is live.

// WriteAtomic writes data to path through a temp file and a rename, so a
// reader never observes a half-written snapshot.
func WriteAtomic(path string, data []byte) error {
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// PublishEvery calls publish on an interval until the returned stop function
// is called; stop returns once the ticker goroutine has exited and performs
// no final write — callers do a last publish themselves once collection has
// stopped. Mid-run publish errors are dropped: a missed refresh must not
// kill the benchmark.
func PublishEvery(every time.Duration, publish func() error) (stop func()) {
	done := make(chan struct{})
	finished := make(chan struct{})
	go func() {
		defer close(finished)
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			select {
			case <-done:
				return
			case <-t.C:
				_ = publish()
			}
		}
	}()
	return func() {
		close(done)
		<-finished
	}
}
