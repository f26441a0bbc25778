package main

import (
	"errors"
	"io"
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
	saved := experiments
	defer func() { experiments = saved }()
	experiments = append(experiments[:len(experiments):len(experiments)], experiment{
		"doomed", "always fails", func(io.Writer, harness.Options) error { return errors.New("doomed") }})

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
	if doc.Spans == nil || doc.Locks == nil || doc.Series == nil || doc.Locks.Acquires == 0 {
		t.Errorf("final document lacks table2's observation: %+v", doc)
	}
	if matches, _ := filepath.Glob(filepath.Join(dir, "*.tmp")); len(matches) != 0 {
		t.Errorf("temp files left behind: %v", matches)
	}
}

func TestUsageErrorsExit2(t *testing.T) {
	for _, args := range [][]string{
		{"no-such-experiment"},
		{"-quick", "table1", "no-such-experiment"},
		{"-threads", "0", "table1"},
		{"-no-such-flag"},
	} {
		if code := run(args, io.Discard, io.Discard); code != 2 {
			t.Errorf("zofs-bench %v exits %d, want 2", args, code)
		}
	}
}
