package obsfs

import (
	"bufio"
	"encoding/json"
	"io"
	"os"
	"time"
)

// Publishing: a Session rewrites the observation directory while a run is
// live, for zofs-obs top to poll, and once more at Stop.

// writeAtomic writes data to path through a temp file and a rename, so a
// reader never observes a half-written snapshot.
func writeAtomic(path string, data []byte) error {
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// publishEvery calls publish on an interval until the returned stop function
// is called; stop returns once the ticker goroutine has exited and performs
// no final write — callers do a last publish themselves once collection has
// stopped. Mid-run publish errors are dropped: a missed refresh must not
// kill the benchmark.
func publishEvery(every time.Duration, publish func() error) (stop func()) {
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

// The cell log beside the document (cells.jsonl) is JSON lines: one
// self-describing object per line.

// WriteJSONL renders items one JSON object per line.
func WriteJSONL[T any](w io.Writer, items []T) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for i := range items {
		if err := enc.Encode(&items[i]); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadJSONL parses a stream of JSON objects into a slice.
func ReadJSONL[T any](r io.Reader) ([]T, error) {
	var out []T
	dec := json.NewDecoder(r)
	for {
		var item T
		if err := dec.Decode(&item); err != nil {
			if err == io.EOF {
				return out, nil
			}
			return nil, err
		}
		out = append(out, item)
	}
}
