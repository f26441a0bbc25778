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
	r.Observe(OpRead, 100)
	r.Reset()
	s := r.Snapshot()
	if len(s.Counters) != 0 || len(s.Ops) != 0 {
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
		idx := bucketOf(v)
		if idx < prev {
			t.Errorf("bucketOf(%d) = %d < previous %d: not monotone", v, idx, prev)
		}
		prev = idx
		if up := bucketUpper(idx); up < v {
			t.Errorf("bucketUpper(bucketOf(%d)) = %d < %d", v, up, v)
		}
		if idx >= histBuckets {
			t.Errorf("bucketOf(%d) = %d out of range %d", v, idx, histBuckets)
		}
	}
	if bucketOf(-5) != 0 {
		t.Errorf("negative latency should clamp to bucket 0")
	}
}

// TestHistogramQuantiles checks p50/p99 land within one log-bucket of the
// true quantile for a uniform population.
func TestHistogramQuantiles(t *testing.T) {
	r := New()
	for i := int64(1); i <= 1000; i++ {
		r.Observe(OpWrite, i)
	}
	s := r.Snapshot()
	o, ok := s.Ops[OpWrite.Name()]
	if !ok {
		t.Fatal("no write op snapshot")
	}
	if o.Count != 1000 {
		t.Errorf("count = %d, want 1000", o.Count)
	}
	if o.MeanNS != 500 { // sum 500500 / 1000
		t.Errorf("mean = %d, want 500", o.MeanNS)
	}
	// Log-bucketing with 4 sub-buckets per octave bounds relative error
	// at ~25% of the bucket width.
	if o.P50NS < 500 || o.P50NS > 640 {
		t.Errorf("p50 = %d, want ~500..640", o.P50NS)
	}
	if o.P99NS < 990 || o.P99NS > 1280 {
		t.Errorf("p99 = %d, want ~990..1280", o.P99NS)
	}
}

func TestSnapshotDiff(t *testing.T) {
	r := New()
	r.Inc(CtrKernSyscalls)
	r.Observe(OpOpen, 100)
	base := r.Snapshot()

	r.Add(CtrKernSyscalls, 4)
	r.Inc(CtrNVMFlushes)
	r.Observe(OpOpen, 200)
	r.Observe(OpOpen, 200)
	d := r.Snapshot().Diff(base)

	if d.Counters["kernfs.syscalls"] != 4 {
		t.Errorf("diff syscalls = %d, want 4", d.Counters["kernfs.syscalls"])
	}
	if d.Counters["nvm.flushes"] != 1 {
		t.Errorf("diff flushes = %d, want 1", d.Counters["nvm.flushes"])
	}
	o := d.Ops[OpOpen.Name()]
	if o.Count != 2 {
		t.Errorf("diff open count = %d, want 2", o.Count)
	}
	if o.MeanNS != 200 {
		t.Errorf("diff open mean = %d, want 200", o.MeanNS)
	}
}

func TestSnapshotRenderers(t *testing.T) {
	r := New()
	r.Inc(CtrNVMReads)
	r.Add(CtrNVMBytesWritten, 4096)
	r.Inc(CtrMPKSwitches)
	r.Observe(OpWrite, 1500)
	s := r.Snapshot()

	var sb strings.Builder
	if err := s.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	text := sb.String()
	for _, want := range []string{"nvm", "bytes_written", "4096", "pkru_switches", "write", "p99"} {
		if !strings.Contains(text, want) {
			t.Errorf("text output missing %q:\n%s", want, text)
		}
	}

	raw, err := s.JSON()
	if err != nil {
		t.Fatal(err)
	}
	var back struct {
		Counters map[string]int64 `json:"counters"`
		Ops      map[string]struct {
			Count int64 `json:"count"`
			P99NS int64 `json:"p99_ns"`
		} `json:"ops"`
	}
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatalf("JSON round trip: %v", err)
	}
	if back.Counters["nvm.bytes_written"] != 4096 {
		t.Errorf("JSON bytes_written = %d", back.Counters["nvm.bytes_written"])
	}
	if back.Ops["write"].Count != 1 || back.Ops["write"].P99NS == 0 {
		t.Errorf("JSON write op = %+v", back.Ops["write"])
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
	r.Observe(OpRead, 10)
	r.Reset()
	s := r.Snapshot()
	if len(s.Counters) != 0 || len(s.Gauges) != 0 || len(s.Ops) != 0 {
		t.Errorf("reset left state: %+v", s)
	}
}
