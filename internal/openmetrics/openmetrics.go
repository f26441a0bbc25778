// Package openmetrics is the one OpenMetrics text-format parser behind the
// observation document's validator (obsfs.Validate) and each panel's
// invariant checks (spans, byteflow, lockprof, series). It accepts a single
// strict dialect — the one all of the repo's writers emit — so a drifting
// writer fails every consumer the same way:
//
//   - every non-comment line is `name{labels} value` with Prometheus-legal
//     name and label syntax;
//   - the only comment forms are `# TYPE`, `# HELP` and the `# EOF`
//     terminator, which must be present and must be last;
//   - blank lines are rejected (no writer emits them, so one appearing
//     means truncation or interleaved output).
//
// Validators layer their conservation invariants (share sums, byte
// conservation, wait/hold totals) on top of the parsed Doc.
package openmetrics

import (
	"bufio"
	"fmt"
	"io"
	"regexp"
	"strconv"
	"strings"
)

// Sample is one parsed metric line.
type Sample struct {
	Name   string
	Labels map[string]string
	Value  float64
}

// Label returns a label value ("" when absent).
func (s Sample) Label(key string) string { return s.Labels[key] }

// Doc is a fully parsed OpenMetrics document.
type Doc struct {
	Samples []Sample
	byName  map[string][]int
}

var (
	sampleRe = regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^{}]*\})? (-?[0-9][0-9eE+.-]*|NaN|[+-]Inf)$`)
	labelRe  = regexp.MustCompile(`^[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\]|\\.)*"$`)
)

// Parse reads an OpenMetrics text document, enforcing the syntax rules
// above. It returns every sample in document order.
func Parse(r io.Reader) (*Doc, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	d := &Doc{byName: map[string][]int{}}
	var line int
	var sawEOF bool
	for sc.Scan() {
		line++
		text := sc.Text()
		if sawEOF {
			return nil, fmt.Errorf("line %d: content after # EOF", line)
		}
		if text == "# EOF" {
			sawEOF = true
			continue
		}
		if strings.HasPrefix(text, "#") {
			if !strings.HasPrefix(text, "# TYPE ") && !strings.HasPrefix(text, "# HELP ") {
				return nil, fmt.Errorf("line %d: unknown comment form %q", line, text)
			}
			continue
		}
		if text == "" {
			return nil, fmt.Errorf("line %d: blank line", line)
		}
		m := sampleRe.FindStringSubmatch(text)
		if m == nil {
			return nil, fmt.Errorf("line %d: malformed sample %q", line, text)
		}
		name, rawLabels, rawVal := m[1], m[2], m[3]
		s := Sample{Name: name, Labels: map[string]string{}}
		if rawLabels != "" {
			for _, pair := range splitLabels(rawLabels[1 : len(rawLabels)-1]) {
				if !labelRe.MatchString(pair) {
					return nil, fmt.Errorf("line %d: malformed label %q", line, pair)
				}
				eq := strings.IndexByte(pair, '=')
				v, err := strconv.Unquote(pair[eq+1:])
				if err != nil {
					return nil, fmt.Errorf("line %d: bad label value %q: %v", line, pair, err)
				}
				s.Labels[pair[:eq]] = v
			}
		}
		val, err := strconv.ParseFloat(rawVal, 64)
		if err != nil {
			return nil, fmt.Errorf("line %d: bad value %q: %v", line, rawVal, err)
		}
		s.Value = val
		d.byName[name] = append(d.byName[name], len(d.Samples))
		d.Samples = append(d.Samples, s)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if !sawEOF {
		return nil, fmt.Errorf("missing # EOF terminator")
	}
	return d, nil
}

// splitLabels splits `k="v",k2="v2"` on commas outside quotes.
func splitLabels(s string) []string {
	var out []string
	start, inQuote, escaped := 0, false, false
	for i := 0; i < len(s); i++ {
		switch {
		case escaped:
			escaped = false
		case s[i] == '\\' && inQuote:
			escaped = true
		case s[i] == '"':
			inQuote = !inQuote
		case s[i] == ',' && !inQuote:
			out = append(out, s[start:i])
			start = i + 1
		}
	}
	if start < len(s) {
		out = append(out, s[start:])
	}
	return out
}

// ByName returns the samples of one family in document order.
func (d *Doc) ByName(name string) []Sample {
	idx := d.byName[name]
	out := make([]Sample, 0, len(idx))
	for _, i := range idx {
		out = append(out, d.Samples[i])
	}
	return out
}

// Has reports whether any sample of the family is present.
func (d *Doc) Has(name string) bool { return len(d.byName[name]) > 0 }

// Scalar returns the value of a label-less (or single-sample) family and
// whether it was present. With several samples the first wins.
func (d *Doc) Scalar(name string) (float64, bool) {
	idx := d.byName[name]
	if len(idx) == 0 {
		return 0, false
	}
	return d.Samples[idx[0]].Value, true
}

// Int returns Scalar truncated to int64 (0 when absent).
func (d *Doc) Int(name string) int64 {
	v, _ := d.Scalar(name)
	return int64(v)
}

// SumInt sums a family's values as int64.
func (d *Doc) SumInt(name string) int64 {
	var s int64
	for _, i := range d.byName[name] {
		s += int64(d.Samples[i].Value)
	}
	return s
}

// GroupSumInt sums a family's values as int64 grouped by one label.
func (d *Doc) GroupSumInt(name, label string) map[string]int64 {
	out := map[string]int64{}
	for _, i := range d.byName[name] {
		s := d.Samples[i]
		out[s.Labels[label]] += int64(s.Value)
	}
	return out
}

// Require returns an error naming the first of the families that has no
// sample. Validators call it once a panel's anchor family is present, so a
// panel cannot pass its conservation checks by omitting one side of them.
func (d *Doc) Require(panel string, names ...string) error {
	for _, name := range names {
		if !d.Has(name) {
			return fmt.Errorf("%s: %s is missing", panel, name)
		}
	}
	return nil
}

// WriteScalar writes one label-less family — its TYPE and HELP comments and
// the sample, a counter under the _total suffix. value is rendered with %v.
func WriteScalar(w io.Writer, name, typ, help string, value any) {
	fmt.Fprintf(w, "# TYPE %s %s\n# HELP %s %s\n%s", name, typ, name, help, name)
	if typ == "counter" {
		fmt.Fprint(w, "_total")
	}
	fmt.Fprintf(w, " %v\n", value)
}

// Conserved is the exact-conservation check helper: parts must equal total.
// desc names the invariant in the error ("per-lock virtual waits").
func Conserved(desc string, parts, total int64) error {
	if parts != total {
		return fmt.Errorf("%s sum to %d, total says %d", desc, parts, total)
	}
	return nil
}
