package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"

	"zofs/internal/obsfs"
	"zofs/internal/series"
)

// cmdDiff compares two performance artifacts and fails on statistically
// significant regressions — a perf gate between a baseline and a fresh run.
//
// OLD and NEW are each either a metrics/BENCH JSON document (any shape: the
// differ flattens numeric leaves into labelled metrics) or an observation
// directory (its series.jsonl), which additionally yields a noise model from
// window-to-window variance.
//
// A metric regresses when it moves in its bad direction — lower for
// throughput-like names (kops, speedup), higher for latency-like names
// (_ns, wait) — by more than max(noise floor, sig × relative standard
// error). Names matching neither family are reported but never fail the
// gate. Exit status: 0 clean, 3 on any significant regression, 1 on errors.
//
// -inject writes a copy of a JSON artifact with a synthetic regression of
// the given fraction (throughput deflated, latency inflated) — the gate's
// self-test: a differ that cannot detect a 20% regression is no gate.
func cmdDiff(args []string, stdout, stderr io.Writer) int {
	fl := newFlags("diff", stderr)
	noise := fl.Float64("noise", 0.05, "relative noise floor below which deltas are never significant")
	sig := fl.Float64("sig", 3.0, "significance multiplier on the relative standard error (series inputs)")
	jsonOut := fl.Bool("json", false, "emit the comparison as JSON instead of a table")
	inject := fl.Float64("inject", 0, "write a copy of the input with a synthetic regression of this fraction (self-test)")
	out := fl.String("o", "", "output path for -inject")
	if !parse(fl, args, 1, 2) {
		return 2
	}
	if *inject > 0 {
		if fl.NArg() != 1 || *out == "" {
			fmt.Fprintln(stderr, "usage: zofs-obs diff -inject <frac> -o out.json in.json")
			return 2
		}
		if err := injectRegression(fl.Arg(0), *out, *inject); err != nil {
			return fail(stderr, fmt.Errorf("-inject: %w", err))
		}
		fmt.Fprintf(stdout, "wrote %s with a %.0f%% synthetic regression\n", *out, *inject*100)
		return 0
	}
	if fl.NArg() != 2 {
		fl.Usage()
		return 2
	}
	code, err := diff(stdout, stderr, fl.Arg(0), fl.Arg(1), *noise, *sig, *jsonOut)
	if err != nil {
		return fail(stderr, err)
	}
	return code
}

// metric is one flattened numeric observation with an optional noise model.
type metric struct {
	Value float64
	// RelSE is the relative standard error of the mean when the artifact
	// carries repeated observations (series windows); 0 means unknown.
	RelSE float64
}

// direction classifies a metric name: +1 higher-is-better, -1
// lower-is-better, 0 neutral (informational only).
func direction(name string) int {
	n := strings.ToLower(name)
	for _, bad := range []string{"_ns", "latency", "wait", "amplification", "burn", "breach"} {
		if strings.Contains(n, bad) {
			return -1
		}
	}
	for _, good := range []string{"kops", "ops", "throughput", "tput", "speedup", "mb_s", "count"} {
		if strings.Contains(n, good) {
			return +1
		}
	}
	return 0
}

// labelKeys are the string fields that name an object inside an array; the
// flattener uses them instead of positional indexes so cells can be
// reordered between runs without breaking the join.
var labelKeys = []string{"cell", "op", "label", "name", "lock", "system"}

// flatten walks any JSON value and collects numeric leaves under
// dot-separated paths, labelling array elements by their label field.
func flatten(prefix string, v any, into map[string]metric) {
	switch t := v.(type) {
	case map[string]any:
		label := ""
		for _, k := range labelKeys {
			if s, ok := t[k].(string); ok {
				label = "[" + s + "]"
				break
			}
		}
		for k, val := range t {
			if _, isStr := val.(string); isStr {
				continue
			}
			p := prefix + label + "." + k
			if prefix == "" {
				p = k
				if label != "" {
					p = label + "." + k
				}
			}
			flatten(p, val, into)
		}
	case []any:
		for i, val := range t {
			p := prefix
			if _, isObj := val.(map[string]any); !isObj {
				p = fmt.Sprintf("%s[%d]", prefix, i)
			}
			flatten(p, val, into)
		}
	case float64:
		into[prefix] = metric{Value: t}
	case bool:
		// run-config flags (quick etc.) are not metrics
	}
}

// load reads one artifact — a JSON file or an observation directory — into
// a labelled metric map.
func load(path string) (map[string]metric, error) {
	st, err := os.Stat(path)
	if err != nil {
		return nil, err
	}
	if st.IsDir() {
		return loadSeriesDir(path)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var doc any
	if err := json.Unmarshal(raw, &doc); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	m := map[string]metric{}
	flatten("", doc, m)
	if len(m) == 0 {
		return nil, fmt.Errorf("%s: no numeric metrics found", path)
	}
	return m, nil
}

// loadSeriesDir turns an observation directory into per-op whole-run
// metrics with a window-to-window noise model: the relative standard error
// of the per-window mean latency estimates how much a run's own timeline
// wobbles, which is the natural yardstick for judging a cross-run delta.
func loadSeriesDir(dir string) (map[string]metric, error) {
	wins, err := readLog[series.Window](dir, obsfs.SeriesLog, false)
	if err != nil {
		return nil, err
	}
	if len(wins) == 0 {
		return nil, fmt.Errorf("%s: %s holds no windows", dir, obsfs.SeriesLog)
	}
	type acc struct {
		count, sum          int64
		p99Max              int64
		means               []float64 // per-window mean latency
		sloTotal, sloBad    int64
		windows, lastWindow int64
	}
	ops := map[string]*acc{}
	for _, w := range wins {
		for name, ow := range w.Ops {
			a := ops[name]
			if a == nil {
				a = &acc{}
				ops[name] = a
			}
			a.count += ow.Count
			a.sum += ow.SumNS
			if ow.P99NS > a.p99Max {
				a.p99Max = ow.P99NS
			}
			if ow.Count > 0 {
				a.means = append(a.means, float64(ow.SumNS)/float64(ow.Count))
			}
			a.sloTotal += ow.SLOTotal
			a.sloBad += ow.SLOBad
			a.windows++
			a.lastWindow = w.Index
		}
	}
	m := map[string]metric{}
	for name, a := range ops {
		if a.count == 0 {
			continue
		}
		mean := float64(a.sum) / float64(a.count)
		// Relative standard error of the window means around the run mean.
		var relSE float64
		if n := len(a.means); n >= 2 && mean > 0 {
			var ss float64
			for _, v := range a.means {
				ss += (v - mean) * (v - mean)
			}
			relSE = math.Sqrt(ss/float64(n-1)) / math.Sqrt(float64(n)) / mean
		}
		m["["+name+"].mean_ns"] = metric{Value: mean, RelSE: relSE}
		m["["+name+"].p99_max_ns"] = metric{Value: float64(a.p99Max), RelSE: relSE}
		m["["+name+"].ops_count"] = metric{Value: float64(a.count)}
		if a.sloTotal > 0 {
			m["["+name+"].slo_bad_fraction"] = metric{Value: float64(a.sloBad) / float64(a.sloTotal)}
		}
	}
	return m, nil
}

// row is one compared metric in the report.
type row struct {
	Metric     string  `json:"metric"`
	Old        float64 `json:"old"`
	New        float64 `json:"new"`
	RelDelta   float64 `json:"rel_delta"`
	Threshold  float64 `json:"threshold"`
	Regression bool    `json:"regression"`
}

func diff(w, stderr io.Writer, oldPath, newPath string, noise, sig float64, asJSON bool) (int, error) {
	oldM, err := load(oldPath)
	if err != nil {
		return 0, err
	}
	newM, err := load(newPath)
	if err != nil {
		return 0, err
	}
	names := make([]string, 0, len(oldM))
	for name := range oldM {
		if _, ok := newM[name]; ok {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	if len(names) == 0 {
		return 0, fmt.Errorf("no common metrics between %s and %s", oldPath, newPath)
	}
	var rows []row
	regressions := 0
	for _, name := range names {
		o, n := oldM[name], newM[name]
		if o.Value == 0 {
			continue
		}
		rel := (n.Value - o.Value) / math.Abs(o.Value)
		// The threshold is the noise floor, widened by the measured
		// window-to-window variance when either run carries one.
		thr := noise
		if se := math.Max(o.RelSE, n.RelSE); sig*se > thr {
			thr = sig * se
		}
		dir := direction(name)
		reg := dir != 0 && float64(dir)*rel < -thr
		rows = append(rows, row{Metric: name, Old: o.Value, New: n.Value,
			RelDelta: rel, Threshold: thr, Regression: reg})
		if reg {
			regressions++
		}
	}
	if asJSON {
		doc := struct {
			Old         string `json:"old"`
			New         string `json:"new"`
			Regressions int    `json:"regressions"`
			Rows        []row  `json:"rows"`
		}{oldPath, newPath, regressions, rows}
		raw, err := json.MarshalIndent(doc, "", "  ")
		if err != nil {
			return 0, err
		}
		fmt.Fprintf(w, "%s\n", raw)
	} else {
		fmt.Fprintf(w, "perfdiff %s -> %s (noise floor %.1f%%)\n", oldPath, newPath, noise*100)
		for _, r := range rows {
			mark := " "
			if r.Regression {
				mark = "R"
			} else if math.Abs(r.RelDelta) > r.Threshold && direction(r.Metric) != 0 {
				mark = "+" // significant improvement
			}
			fmt.Fprintf(w, " %s %-44s %14.3f -> %14.3f  %+7.2f%% (thr %.2f%%)\n",
				mark, r.Metric, r.Old, r.New, r.RelDelta*100, r.Threshold*100)
		}
	}
	if regressions > 0 {
		fmt.Fprintf(stderr, "zofs-obs diff: %d significant regression(s)\n", regressions)
		return 3, nil
	}
	return 0, nil
}

// injectRegression copies a JSON artifact, degrading every direction-carrying
// numeric leaf by frac: throughput-like values are deflated, latency-like
// values inflated. main_test.go uses it to prove the differ trips.
func injectRegression(in, out string, frac float64) error {
	raw, err := os.ReadFile(in)
	if err != nil {
		return err
	}
	var doc any
	if err := json.Unmarshal(raw, &doc); err != nil {
		return err
	}
	doc = degrade("", doc, frac)
	res, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(out, append(res, '\n'), 0o644)
}

func degrade(name string, v any, frac float64) any {
	switch t := v.(type) {
	case map[string]any:
		for k, val := range t {
			t[k] = degrade(k, val, frac)
		}
		return t
	case []any:
		for i, val := range t {
			t[i] = degrade(name, val, frac)
		}
		return t
	case float64:
		switch direction(name) {
		case +1:
			return t / (1 + frac)
		case -1:
			return t * (1 + frac)
		}
		return t
	}
	return v
}
