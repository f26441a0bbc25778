package e2e

import (
	"encoding/json"
	"io"
	"os"
	"reflect"
	"regexp"
	"testing"
)

// testScale shrinks every workload to 1/200 of its benchmark size.
const testScale = 200

func TestHistBucketsBoundRelativeError(t *testing.T) {
	r := newRNG(7)
	prev := -1
	for i := 0; i < 200_000; i++ {
		// Values spread over 50 binary orders of magnitude.
		v := int64(r.next() >> uint(14+r.intn(50)))
		b := bucketOf(v)
		up := bucketUpper(b)
		if up < v {
			t.Fatalf("bucketUpper(%d)=%d below member %d", b, up, v)
		}
		if b > 0 && bucketUpper(b-1) >= v {
			t.Fatalf("value %d also fits bucket %d", v, b-1)
		}
		if width := up - bucketUpper(b-1); b > 0 && float64(width) > float64(v)/subCount+1 {
			t.Fatalf("bucket %d is %d wide at value %d: more than 1/%d", b, width, v, subCount)
		}
	}
	for v := int64(0); v < 100_000; v++ {
		if b := bucketOf(v); b < prev {
			t.Fatalf("bucketOf not monotonic at %d", v)
		} else {
			prev = b
		}
	}
}

func TestHistQuantiles(t *testing.T) {
	h := new(Hist)
	for v := int64(1); v <= 100_000; v++ {
		h.Record(v)
	}
	for _, c := range []struct {
		q    float64
		want float64
	}{{0.5, 50_000}, {0.99, 99_000}, {0.999, 99_900}, {1, 100_000}} {
		got := float64(h.Quantile(c.q))
		if got < c.want || got > c.want*(1+1.0/subCount) {
			t.Errorf("q%.3f = %v, want within one bucket above %v", c.q, got, c.want)
		}
	}
	if new(Hist).Quantile(0.5) != 0 {
		t.Error("empty histogram quantile")
	}
}

func TestSeedFixesTheOpStream(t *testing.T) {
	for _, c := range Catalog {
		a, b, other := c.Build(42, testScale), c.Build(42, testScale), c.Build(43, testScale)
		if a.StreamHash() != b.StreamHash() {
			t.Errorf("%s: same seed, different op streams", c.Name)
		}
		if a.StreamHash() == other.StreamHash() {
			t.Errorf("%s: different seeds, same op stream", c.Name)
		}
		if a.Ops() != other.Ops() {
			t.Errorf("%s: op count depends on the seed (%d vs %d)", c.Name, a.Ops(), other.Ops())
		}
	}
}

func TestWorkloadsVerifyAndRepeat(t *testing.T) {
	for _, c := range Catalog {
		w := c.Build(3, testScale)
		var first map[string]float64
		for pass := 0; pass < 2; pass++ {
			h := new(Hist)
			p, err := runPass(w, nil, h, nil, nil)
			if err != nil {
				t.Fatalf("%s: %v", c.Name, err)
			}
			if p.failed != 0 {
				t.Errorf("%s pass %d: %d of %d checks failed", c.Name, pass, p.failed, p.attempted)
			}
			if h.Count() != int64(w.Ops()) {
				t.Errorf("%s: %d latencies recorded for %d ops", c.Name, h.Count(), w.Ops())
			}
			sim := simMetrics(p.sim, h, w.Ops())
			for k, v := range sim {
				if !(v > 0) {
					t.Errorf("%s: %s = %v, must be positive", c.Name, k, v)
				}
			}
			if first == nil {
				first = sim
			} else if d := simDiffers(first, sim, c.SimTolerance); d != "" {
				t.Errorf("%s: simulated outcome does not repeat: %s", c.Name, d)
			}
		}
	}
}

func TestCorruptedReadLowersOKFraction(t *testing.T) {
	w := newDataRead(5, testScale)
	inst, err := w.NewInstance(nil)
	if err != nil {
		t.Fatal(err)
	}
	in := inst.(*dataReadInst)
	c := in.env.Clients[0]
	junk := make([]byte, fileBytes)
	for i := range junk {
		junk[i] = 0xa5
	}
	if _, err := c.Lib.Pwrite(c.Th, in.fds[0], junk, 0); err != nil {
		t.Fatal(err)
	}
	failed := inst.Run(new(Hist), nil)
	_, bad := inst.Verify()
	if failed == 0 || bad == 0 {
		t.Fatalf("corruption went unnoticed: %d failed ops, %d bad files", failed, bad)
	}
	if failed >= w.Ops() {
		t.Fatalf("every op failed (%d): the check is not specific to the corrupted file", failed)
	}
}

func TestTracerNestsLayers(t *testing.T) {
	w := newMetaChurn(9, testScale)
	tr := NewTracer()
	p, err := runPass(w, tr, new(Hist), nil, nil)
	if err != nil || p.failed != 0 {
		t.Fatalf("traced pass: err=%v failed=%d", err, p.failed)
	}
	if tr.Ops != int64(w.Ops()) || tr.Calls < tr.Ops {
		t.Fatalf("ops=%d calls=%d for %d ops", tr.Ops, tr.Calls, w.Ops())
	}
	if !(tr.ZoFSNS > 0 && tr.ZoFSNS < tr.OpNS && tr.OpNS <= p.wall.Nanoseconds()) {
		t.Fatalf("layer times do not nest: zofs %d, ops %d, wall %d", tr.ZoFSNS, tr.OpNS, p.wall.Nanoseconds())
	}
	for _, s := range tr.spans {
		if s.Layer == layerZoFS {
			root := tr.spans[s.Parent]
			if root.Layer != layerOp || s.HostStart < root.HostStart || s.HostEnd > root.HostEnd || s.VStart < root.VStart || s.VEnd > root.VEnd {
				t.Fatalf("span %+v not inside its root %+v", s, root)
			}
		}
	}
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func TestBenchmarkJSONMatchesTables(t *testing.T) {
	blob, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var onDisk, want BenchmarkSpec
	if err := json.Unmarshal(blob, &onDisk); err != nil {
		t.Fatal(err)
	}
	// Through JSON, so that both sides have the same nil/empty conventions.
	regen, _ := json.Marshal(Spec())
	json.Unmarshal(regen, &want)
	if !reflect.DeepEqual(onDisk, want) {
		t.Error("BENCHMARK.json differs from e2e.Spec(); regenerate it with `zofs-e2e -spec`")
	}
	seen := map[string]bool{}
	for _, m := range append(append([]MetricSpec{}, want.EndToEnd...), want.PerLayer...) {
		if !metricName.MatchString(m.Name) || seen[m.Name] {
			t.Errorf("bad or repeated metric name %q", m.Name)
		}
		seen[m.Name] = true
	}
	if len(want.PerLayer) > 128 || len(want.EndToEnd) > 16 {
		t.Errorf("%d end-to-end and %d per-layer metrics exceed the contract's 16 and 128", len(want.EndToEnd), len(want.PerLayer))
	}
	for _, m := range want.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
}

func TestQuartilesMatchPythonExclusiveMethod(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := Quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("got %v %v %v", q1, q2, q3)
	}
	// statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
	if q1, q2, q3 = Quartiles([]float64{3, 1, 2}); q1 != 1 || q2 != 2 || q3 != 3 {
		t.Errorf("got %v %v %v", q1, q2, q3)
	}
}

func TestCompareVerdicts(t *testing.T) {
	set := func(host ...float64) map[string][]Result {
		var rs []Result
		for _, h := range host {
			rs = append(rs, Result{Workload: "data_read", Metrics: map[string]float64{"host_ns_per_op": h, "sim_p50_vns": 483}})
		}
		return map[string][]Result{"data_read": rs}
	}
	verdict := func(a, b map[string][]Result, metric string) string {
		for _, r := range Compare(a, b) {
			if r.Metric.Name == metric {
				return r.Verdict
			}
		}
		return "missing"
	}
	base := set(1000, 1010, 1020, 990, 1005)
	for _, c := range []struct {
		name string
		b    map[string][]Result
		want string
	}{
		{"same", set(1001, 1012, 1018, 995, 1003), Same},
		{"regressed", set(1300, 1310, 1320, 1290, 1305), Regressed},
		{"improved", set(700, 710, 720, 690, 705), Improved},
		{"unresolved", set(700, 1000, 1500, 900, 1200), Unresolved},
	} {
		if got := verdict(base, c.b, "host_ns_per_op"); got != c.want {
			t.Errorf("%s: verdict %s", c.name, got)
		}
	}
	if got := verdict(base, base, "sim_p50_vns"); got != Same {
		t.Errorf("identical simulated values: %s", got)
	}
	// Host time is judged but does not decide the outcome.
	if n := WriteCompare(io.Discard, Compare(base, set(1300, 1310, 1320, 1290, 1305))); n != 0 {
		t.Errorf("%d gated regressions from a host-time-only difference", n)
	}
	worse := set(1000, 1010, 1020, 990, 1005)
	for i := range worse["data_read"] {
		worse["data_read"][i].Metrics["sim_p50_vns"] = 600
	}
	if n := WriteCompare(io.Discard, Compare(base, worse)); n != 1 {
		t.Errorf("%d gated regressions, want 1 (sim_p50_vns)", n)
	}
}
