package obsfs

import (
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"
)

func TestWriteAtomicReplacesAndLeavesNoTemp(t *testing.T) {
	path := filepath.Join(t.TempDir(), DocFile)
	for _, want := range []string{"first\n", "second, longer\n"} {
		if err := writeAtomic(path, []byte(want)); err != nil {
			t.Fatal(err)
		}
		if got, err := os.ReadFile(path); err != nil || string(got) != want {
			t.Fatalf("read back %q, %v; want %q", got, err, want)
		}
	}
	if ents, err := os.ReadDir(filepath.Dir(path)); err != nil || len(ents) != 1 {
		t.Fatalf("directory holds %d entries (%v), want the snapshot alone", len(ents), err)
	}
}

// TestPublishEveryStops: the ticker publishes, and once stop has returned the
// goroutine is gone — no publish runs after it.
func TestPublishEveryStops(t *testing.T) {
	var calls atomic.Int64
	first := make(chan struct{}, 1)
	stop := publishEvery(time.Millisecond, func() error {
		if calls.Add(1) == 1 {
			first <- struct{}{}
		}
		return os.ErrInvalid // dropped: a missed refresh is not fatal
	})
	<-first
	stop()
	n := calls.Load()
	time.Sleep(5 * time.Millisecond)
	if got := calls.Load(); got != n {
		t.Fatalf("publish ran %d more times after stop returned", got-n)
	}
}
