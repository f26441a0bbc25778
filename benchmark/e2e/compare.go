package e2e

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"text/tabwriter"
)

// Quartiles returns the three cut points of v as Python's
// statistics.quantiles(v, n=4) computes them (the "exclusive" method), so
// that spreads printed here are the ones the benchmark contract checks.
// With fewer than two values all three are the single value (or 0).
func Quartiles(v []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	cut := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		j = max(1, min(j, n-1))
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

// Stats summarises one metric over a set of runs.
type Stats struct {
	N      int     `json:"n"`
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
	// Spread is (Q3−Q1)/median; Range is (max−min)/median.
	Spread float64 `json:"spread"`
	Range  float64 `json:"range"`
}

func summarize(v []float64) Stats {
	if len(v) == 0 {
		return Stats{}
	}
	q1, q2, q3 := Quartiles(v)
	st := Stats{N: len(v), Median: q2, Q1: q1, Q3: q3, Min: v[0], Max: v[0]}
	for _, x := range v {
		st.Min, st.Max = min(st.Min, x), max(st.Max, x)
	}
	if st.Median != 0 {
		st.Spread = (q3 - q1) / abs(st.Median)
		st.Range = (st.Max - st.Min) / abs(st.Median)
	}
	return st
}

// WriteResult stores r as dir/<workload>.<k>.json with the first unused k.
func WriteResult(dir string, r Result) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	blob, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	for k := 0; ; k++ {
		f, err := os.OpenFile(filepath.Join(dir, fmt.Sprintf("%s.%d.json", r.Workload, k)), os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
		if os.IsExist(err) {
			continue
		}
		if err != nil {
			return err
		}
		if _, err := f.Write(append(blob, '\n')); err != nil {
			f.Close()
			return err
		}
		return f.Close()
	}
}

// LoadResults reads every result file under dir (recursively), grouped by
// workload.
func LoadResults(dir string) (map[string][]Result, error) {
	out := map[string][]Result{}
	err := filepath.WalkDir(dir, func(p string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() || filepath.Ext(p) != ".json" {
			return err
		}
		blob, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		var r Result
		if err := json.Unmarshal(blob, &r); err != nil || r.Workload == "" || r.Metrics == nil {
			return nil // not a result file
		}
		out[r.Workload] = append(out[r.Workload], r)
		return nil
	})
	if err == nil && len(out) == 0 {
		err = fmt.Errorf("no result files under %s", dir)
	}
	return out, err
}

// reported is what a run measures: the gated end-to-end metrics, then
// HostTime with the bound -compare judges it by.
func reported() []MetricSpec {
	host := HostTime
	host.Bound = hostTimeBound
	return append(append([]MetricSpec{}, EndToEnd...), host)
}

func column(rs []Result, metric string) []float64 {
	var v []float64
	for _, r := range rs {
		if x, ok := r.Metrics[metric]; ok {
			v = append(v, x)
		}
	}
	return v
}

// Verdicts of a comparison row.
const (
	Same       = "same"
	Regressed  = "regressed"
	Improved   = "improved"
	Unresolved = "unresolved"
)

// CompareRow is one metric × workload of a comparison.
type CompareRow struct {
	Workload string
	Metric   MetricSpec
	A, B     Stats
	// Worse is how much worse B's median is than A's, as a share of A's
	// median (negative = better).
	Worse   float64
	Verdict string
	// Gated rows decide the comparison's outcome; HostTime's does not.
	Gated bool
}

// Compare judges set B against set A on every end-to-end metric × workload,
// and on HostTime, whose verdict is information (Gated false):
// regressed when B's median is worse than A's by more than the metric's
// bound, improved when it is better by more than the bound. When either
// set's own spread exceeds the bound the difference cannot be resolved by
// medians: the row is unresolved unless every run of one side beats every
// run of the other.
func Compare(a, b map[string][]Result) []CompareRow {
	var rows []CompareRow
	for _, c := range Catalog {
		if len(a[c.Name]) == 0 || len(b[c.Name]) == 0 {
			continue
		}
		for i, spec := range reported() {
			va, vb := column(a[c.Name], spec.Name), column(b[c.Name], spec.Name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			row := CompareRow{Workload: c.Name, Metric: spec, A: summarize(va), B: summarize(vb), Gated: i < len(EndToEnd)}
			sign := 1.0 // lower is better: growth is worse
			if spec.Better == "higher" {
				sign = -1
			}
			if row.A.Median != 0 {
				row.Worse = sign * (row.B.Median - row.A.Median) / abs(row.A.Median)
			}
			// Disjoint: every B run on one side of every A run.
			allWorse := sign*(row.B.Min-row.A.Max) > 0 && sign*(row.B.Max-row.A.Min) > 0
			allBetter := sign*(row.B.Max-row.A.Min) < 0 && sign*(row.B.Min-row.A.Max) < 0
			switch {
			case allWorse && row.Worse > spec.Bound:
				row.Verdict = Regressed
			case allBetter && row.Worse < -spec.Bound:
				row.Verdict = Improved
			case max(row.A.Spread, row.B.Spread) > spec.Bound:
				row.Verdict = Unresolved
			case row.Worse > spec.Bound:
				row.Verdict = Regressed
			case row.Worse < -spec.Bound:
				row.Verdict = Improved
			default:
				row.Verdict = Same
			}
			rows = append(rows, row)
		}
	}
	return rows
}

// WriteCompare prints the rows and returns how many regressed.
func WriteCompare(w io.Writer, rows []CompareRow) (regressed int) {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\tbetter\tbound\tA median [q1, q3]\tB median [q1, q3]\tworse by\tverdict")
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%.2f%%\t%.6g [%.6g, %.6g]\t%.6g [%.6g, %.6g]\t%+.2f%%\t%s\n",
			r.Workload, r.Metric.Name, r.Metric.Unit, r.Metric.Better, 100*r.Metric.Bound,
			r.A.Median, r.A.Q1, r.A.Q3, r.B.Median, r.B.Q1, r.B.Q3, 100*r.Worse, verdictLabel(r))
		if r.Verdict == Regressed && r.Gated {
			regressed++
		}
	}
	tw.Flush()
	return regressed
}

func verdictLabel(r CompareRow) string {
	if r.Gated {
		return r.Verdict
	}
	return r.Verdict + " (not gated)"
}

// Noise is the noise study: per workload × end-to-end metric, the
// distribution over repeated runs.
type Noise struct {
	Runs       int                         `json:"runs"`
	Seeds      string                      `json:"seeds"`
	GoVersion  string                      `json:"go_version"`
	GOMAXPROCS int                         `json:"gomaxprocs"`
	GOGC       int                         `json:"gogc"`
	Workloads  map[string]map[string]Stats `json:"workloads"`
}

// NoiseStudy summarises repeated runs.
func NoiseStudy(rs map[string][]Result, seeds string) Noise {
	n := Noise{Seeds: seeds, Workloads: map[string]map[string]Stats{}}
	for name, runs := range rs {
		n.Runs = max(n.Runs, len(runs))
		n.GoVersion, n.GOMAXPROCS, n.GOGC = runs[0].GoVersion, runs[0].GOMAXPROCS, runs[0].GOGC
		n.Workloads[name] = map[string]Stats{}
		for _, spec := range reported() {
			n.Workloads[name][spec.Name] = summarize(column(runs, spec.Name))
		}
	}
	return n
}

// WriteMarkdown renders the study as the table NOISE.md holds.
func (n Noise) WriteMarkdown(w io.Writer) {
	fmt.Fprintf(w, "# zofs-e2e noise study\n\n")
	fmt.Fprintf(w, "%d runs of the full benchmark, seeds %s, %s, GOMAXPROCS=%d, GOGC=%d.\n\n", n.Runs, n.Seeds, n.GoVersion, n.GOMAXPROCS, n.GOGC)
	fmt.Fprintf(w, "`spread` is (Q3−Q1)/median with Python's `statistics.quantiles(n=4)` cut points — the figure the\nbenchmark contract bounds — and `range` is (max−min)/median. `bound` is the value in `BENCHMARK.json`.\n\n")
	for _, c := range Catalog {
		ms := n.Workloads[c.Name]
		if ms == nil {
			continue
		}
		fmt.Fprintf(w, "## %s\n\n| metric | unit | median | q1 | q3 | spread | range | bound | spread/bound |\n|---|---|---|---|---|---|---|---|---|\n", c.Name)
		for _, spec := range EndToEnd {
			s := ms[spec.Name]
			fmt.Fprintf(w, "| `%s` | %s | %.6g | %.6g | %.6g | %.3f%% | %.3f%% | %.2f%% | %.2f |\n",
				spec.Name, spec.Unit, s.Median, s.Q1, s.Q3, 100*s.Spread, 100*s.Range, 100*spec.Bound, s.Spread/spec.Bound)
		}
		s := ms[HostTime.Name]
		fmt.Fprintf(w, "| `%s` (not gated) | %s | %.6g | %.6g | %.6g | %.3f%% | %.3f%% | – | – |\n",
			HostTime.Name, HostTime.Unit, s.Median, s.Q1, s.Q3, 100*s.Spread, 100*s.Range)
		fmt.Fprintln(w)
	}
}
