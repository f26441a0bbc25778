package main

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"zofs/internal/harness"
	"zofs/internal/obsfs"
)

// TestFailingRunKeepsItsObservation: an experiment that fails makes the run
// exit 1 — after the deferred teardown, so the observation directory still
// holds a final, parseable document with the panels of what ran before.
func TestFailingRunKeepsItsObservation(t *testing.T) {
	saved := harness.Experiments
	defer func() { harness.Experiments = saved }()
	harness.Experiments = append(saved[:len(saved):len(saved)], harness.Experiment{
		Name: "doomed", Desc: "always fails", Run: func(io.Writer, harness.Options) ([]harness.Cell, error) { return nil, errors.New("doomed") }})

	dir := t.TempDir()
	var stdout, stderr strings.Builder
	if code := run([]string{"-quick", "-obs", dir, "table2", "doomed", "fig8"}, &stdout, &stderr); code != 1 {
		t.Fatalf("exit %d, want 1\nstderr: %s", code, stderr.String())
	}
	if !strings.Contains(stderr.String(), "zofs-bench: doomed: doomed") {
		t.Errorf("stderr does not name the failure: %q", stderr.String())
	}
	if out := stdout.String(); strings.Contains(out, "==== fig8") || !strings.Contains(out, "==== observation -> "+dir) {
		t.Errorf("the run went on past the failure, or skipped the final report:\n%s", out)
	}
	doc, err := obsfs.Load(dir)
	if err != nil {
		t.Fatalf("no parseable %s after a failing run: %v", obsfs.DocFile, err)
	}
	if doc.Telemetry == nil || doc.Spans == nil || doc.Locks == nil || doc.Series == nil || doc.Locks.Acquires == 0 {
		t.Errorf("final document lacks table2's observation: %+v", doc)
	}
	if matches, _ := filepath.Glob(filepath.Join(dir, "*.tmp")); len(matches) != 0 {
		t.Errorf("temp files left behind: %v", matches)
	}
}

// TestSessionSurvivesChaos: the chaos campaign switches on collectors of its
// own and puts back the ones it found, so the experiment after it is still
// observed — its cells of the session's log carry telemetry.
func TestSessionSurvivesChaos(t *testing.T) {
	t.Chdir(t.TempDir()) // chaos records BENCH_chaos.json where it runs
	var stdout, stderr strings.Builder
	if code := run([]string{"-quick", "-obs", "obs", "chaos", "fig8"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d\nstderr: %s", code, stderr.String())
	}
	f, err := os.Open(filepath.Join("obs", obsfs.CellsLog))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	cells, err := obsfs.ReadJSONL[obsfs.Cell](f)
	if err != nil || len(cells) != 9 {
		t.Fatalf("fig8 after chaos cut %d cells, want 9 (%v)", len(cells), err)
	}
	for _, c := range cells {
		if c.Metrics.Counters["nvm.bytes_written"] == 0 || c.Spans.Finished == 0 {
			t.Errorf("cell %s is dark: %d bytes written, %d spans", c.Label, c.Metrics.Counters["nvm.bytes_written"], c.Spans.Finished)
		}
	}
	if !strings.Contains(stdout.String(), "[stats ZoFS/DWOL/1]") {
		t.Errorf("the run did not print its cells:\n%s", stdout.String())
	}
}

func TestUsageErrorsExit2(t *testing.T) {
	for _, args := range [][]string{
		{"no-such-experiment"},
		{"-quick", "table1", "no-such-experiment"},
		{"-threads", "0", "table1"},
		{"-no-such-flag"},
		{"-trace", "t.jsonl", "table1"}, // the event log is -obs DIR's events.rec
	} {
		if code := run(args, io.Discard, io.Discard); code != 2 {
			t.Errorf("zofs-bench %v exits %d, want 2", args, code)
		}
	}
}
