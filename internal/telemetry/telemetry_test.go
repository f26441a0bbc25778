package telemetry

import (
	"encoding/json"
	"strings"
	"sync"
	"testing"
)

// TestNilRecorderSafe exercises every method on the nil sink.
func TestNilRecorderSafe(t *testing.T) {
	var r *Recorder
	r.Inc(CtrNVMReads)
	r.Add(CtrNVMBytesRead, 42)
	r.Max(GaugeDirtyLinesHWM, 7)
	r.Reset()
	s := r.Snapshot()
	if len(s.Counters) != 0 || len(s.Gauges) != 0 {
		t.Fatalf("nil recorder snapshot not empty: %+v", s)
	}
}

// TestConcurrentCountersNoLoss hammers one counter from many goroutines and
// asserts no increment is lost across the shards.
func TestConcurrentCountersNoLoss(t *testing.T) {
	r := New()
	const workers = 32
	const perWorker = 10_000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				r.Inc(CtrNVMNTStores)
				r.Add(CtrNVMBytesWritten, 8)
			}
		}()
	}
	wg.Wait()
	if got := r.counterTotal(CtrNVMNTStores); got != workers*perWorker {
		t.Errorf("lost increments: got %d, want %d", got, workers*perWorker)
	}
	if got := r.counterTotal(CtrNVMBytesWritten); got != workers*perWorker*8 {
		t.Errorf("lost adds: got %d, want %d", got, workers*perWorker*8)
	}
}

func TestGaugeMax(t *testing.T) {
	r := New()
	r.Max(GaugeDirtyLinesHWM, 5)
	r.Max(GaugeDirtyLinesHWM, 3)
	r.Max(GaugeDirtyLinesHWM, 9)
	if got := r.Snapshot().Gauges[GaugeDirtyLinesHWM.Name()]; got != 9 {
		t.Errorf("gauge = %d, want 9", got)
	}
}

// TestBucketMath checks the bucket index and upper-bound functions agree:
// every value must land in a bucket whose upper bound is >= the value, and
// bucket indexes must be monotone in the value.
func TestBucketMath(t *testing.T) {
	values := []int64{0, 1, 7, 8, 9, 15, 16, 100, 1000, 4096, 123456, 1 << 40}
	prev := -1
	for _, v := range values {
		idx := BucketOf(v)
		if idx < prev {
			t.Errorf("BucketOf(%d) = %d < previous %d: not monotone", v, idx, prev)
		}
		prev = idx
		if up := BucketUpper(idx); up < v {
			t.Errorf("BucketUpper(BucketOf(%d)) = %d < %d", v, up, v)
		}
		if idx >= HistBuckets {
			t.Errorf("BucketOf(%d) = %d out of range %d", v, idx, HistBuckets)
		}
	}
	if BucketOf(-5) != 0 {
		t.Errorf("negative latency should clamp to bucket 0")
	}
}

// TestHistogramQuantiles checks p50/p99 land within one log-bucket of the
// true quantile for a uniform population.
func TestHistogramQuantiles(t *testing.T) {
	var h Hist
	for i := int64(1); i <= 1000; i++ {
		h.Observe(i)
	}
	count, sum, buckets := h.Snapshot()
	if count != 1000 || sum != 500500 {
		t.Errorf("count/sum = %d/%d, want 1000/500500", count, sum)
	}
	// Log-bucketing with 4 sub-buckets per octave bounds relative error
	// at ~25% of the bucket width.
	if p50 := Quantile(buckets, count, 0.50); p50 < 500 || p50 > 640 {
		t.Errorf("p50 = %d, want ~500..640", p50)
	}
	if p99 := Quantile(buckets, count, 0.99); p99 < 990 || p99 > 1280 {
		t.Errorf("p99 = %d, want ~990..1280", p99)
	}
	if h.Reset(); Quantile(nil, 0, 0.5) != 0 {
		t.Error("quantile of an empty histogram is not 0")
	}
}

func TestSnapshotDiff(t *testing.T) {
	r := New()
	r.Inc(CtrKernSyscalls)
	r.Max(GaugeDirtyLinesHWM, 3)
	base := r.Snapshot()

	r.Add(CtrKernSyscalls, 4)
	r.Inc(CtrNVMFlushes)
	d := r.Snapshot().Diff(base)

	if d.Counters["kernfs.syscalls"] != 4 {
		t.Errorf("diff syscalls = %d, want 4", d.Counters["kernfs.syscalls"])
	}
	if d.Counters["nvm.flushes"] != 1 {
		t.Errorf("diff flushes = %d, want 1", d.Counters["nvm.flushes"])
	}
	if d.Gauges["nvm.dirty_lines_hwm"] != 3 {
		t.Errorf("diff dirty-line high-water mark = %d, want the current 3", d.Gauges["nvm.dirty_lines_hwm"])
	}
}

func TestSnapshotRenderers(t *testing.T) {
	r := New()
	r.Inc(CtrNVMReads)
	r.Add(CtrNVMBytesWritten, 4096)
	r.Inc(CtrMPKSwitches)
	s := r.Snapshot()

	var sb strings.Builder
	if err := s.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	text := sb.String()
	for _, want := range []string{"nvm", "bytes_written", "4096", "mpk", "pkru_switches"} {
		if !strings.Contains(text, want) {
			t.Errorf("text output missing %q:\n%s", want, text)
		}
	}

	raw, err := s.JSON()
	if err != nil {
		t.Fatal(err)
	}
	var back Snapshot
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatalf("JSON round trip: %v", err)
	}
	if back.Counters["nvm.bytes_written"] != 4096 || back.Counters["mpk.pkru_switches"] != 1 {
		t.Errorf("JSON counters = %v", back.Counters)
	}
}

// TestCheck: a recorder's snapshot passes its own check, and a wrapped
// counter fails it.
func TestCheck(t *testing.T) {
	r := New()
	r.Add(CtrNVMBytesWritten, 4096)
	r.Max(GaugeDirtyLinesHWM, 9)
	s := r.Snapshot()
	if err := s.Check(); err != nil {
		t.Fatal(err)
	}
	s.Counters["nvm.bytes_written"] = -4096
	if err := s.Check(); err == nil {
		t.Error("a negative counter passed the check")
	}
}

func TestEnableDisable(t *testing.T) {
	defer Disable()
	if Active() != nil {
		t.Fatal("recorder active before Enable")
	}
	r := Enable()
	if Active() != r {
		t.Fatal("Active() != Enable() result")
	}
	Disable()
	if Active() != nil {
		t.Fatal("recorder still active after Disable")
	}
}

func TestReset(t *testing.T) {
	r := New()
	r.Inc(CtrNVMReads)
	r.Max(GaugeDirtyLinesHWM, 3)
	r.Reset()
	s := r.Snapshot()
	if len(s.Counters) != 0 || len(s.Gauges) != 0 {
		t.Errorf("reset left state: %+v", s)
	}
}
