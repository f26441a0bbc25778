package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"zofs/internal/obsfs"
	"zofs/internal/pmemtrace"
	"zofs/internal/sysfactory"
)

// observe publishes a small observed run — spans, series, lock profile and,
// with device accounting on, byte flow and coffer space — into a fresh
// directory, the way zofs-bench -obs does.
func observe(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	sess, err := obsfs.Start(dir)
	if err != nil {
		t.Fatal(err)
	}
	in, err := sysfactory.ZoFS.New(64<<20, false)
	if err != nil {
		t.Fatal(err)
	}
	in.Dev.EnableAccounting()
	fs, th := obsfs.Wrap(in.FS, nil), in.Proc.NewThread()
	for _, name := range []string{"/a", "/b", "/c"} {
		h, err := fs.Create(th, name, 0o644)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := h.Append(th, make([]byte, 4096)); err != nil {
			t.Fatal(err)
		}
		if err := h.Close(th); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := sess.Stop(); err != nil {
		t.Fatal(err)
	}
	return dir
}

func write(t *testing.T, path string, data []byte) string {
	t.Helper()
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestExitCodes is the tool's exit-code contract, one row per way in: 0
// clean, 1 on an error or a failed check, 2 on a usage error. (3, diff's
// regression verdict, is TestInjectedRegressionIsDetected's.)
func TestExitCodes(t *testing.T) {
	good, tmp := observe(t), t.TempDir()

	raw, err := os.ReadFile(filepath.Join(good, obsfs.DocFile))
	if err != nil {
		t.Fatal(err)
	}
	truncated := write(t, filepath.Join(tmp, "truncated.json"), raw[:len(raw)/2])

	// The same document with one issued byte no class accounts for.
	doc, err := obsfs.Load(good)
	if err != nil {
		t.Fatal(err)
	}
	doc.Flow.Total++
	raw, err = json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	unbalanced := filepath.Join(tmp, "unbalanced")
	if err := os.Mkdir(unbalanced, 0o755); err != nil {
		t.Fatal(err)
	}
	tampered := write(t, filepath.Join(unbalanced, obsfs.DocFile), raw)

	// A directory whose event log has a cached store nothing flushed before
	// the power failed.
	lossy := filepath.Join(tmp, "lossy")
	if err := os.Mkdir(lossy, 0o755); err != nil {
		t.Fatal(err)
	}
	var log bytes.Buffer
	if err := obsfs.WriteJSONL(&log, []pmemtrace.Event{
		{Seq: 1, TS: 100, Kind: pmemtrace.KindStore, Off: 4096, Len: 64, TID: 1, Key: -1},
		{Seq: 2, TS: 200, Kind: pmemtrace.KindCrash, TID: -1, Key: -1},
	}); err != nil {
		t.Fatal(err)
	}
	write(t, filepath.Join(lossy, obsfs.EventsLog), log.Bytes())
	chrome := filepath.Join(tmp, "chrome.json")

	for _, tc := range []struct {
		name string
		args []string
		want int
	}{
		{"no command", nil, 2},
		{"unknown command", []string{"locks"}, 2},

		{"top -once", []string{"top", "-once", "-dir", good}, 0},
		{"top -json", []string{"top", "-json", "-dir", good}, 0},
		{"top -dot", []string{"top", "-dot", "-", "-dir", good}, 0},
		{"top -once on an empty directory", []string{"top", "-once", "-dir", tmp}, 1},
		{"top with an operand", []string{"top", "-once", good}, 2},

		{"validate a directory", []string{"validate", good}, 0},
		{"validate a file", []string{"validate", filepath.Join(good, obsfs.DocFile)}, 0},
		{"validate a truncated file", []string{"validate", truncated}, 1},
		{"validate a tampered document", []string{"validate", tampered}, 1},
		{"validate a good and a tampered directory", []string{"validate", good, unbalanced}, 1},
		{"validate nothing", []string{"validate"}, 2},

		{"df of a demo instance", []string{"df", "-files", "16", "-validate"}, 0},
		{"df of a directory", []string{"df", "-validate", good}, 0},
		{"df of an unbalanced flow", []string{"df", "-validate", unbalanced}, 1},
		{"df of two directories", []string{"df", good, good}, 2},

		{"trace without a command", []string{"trace"}, 2},
		{"trace audit of a clean directory", []string{"trace", "audit", "-max-lost", "0", good}, 0},
		{"trace audit of a lossy directory", []string{"trace", "audit", "-max-lost", "0", lossy}, 1},
		{"trace audit of a directory without events", []string{"trace", "audit", tmp}, 1},
		{"trace audit of nothing", []string{"trace", "audit"}, 2},
		{"trace export", []string{"trace", "export", "-o", chrome, good}, 0},
		{"trace export of an empty directory", []string{"trace", "export", "-o", chrome, tmp}, 1},
		{"trace export of nothing", []string{"trace", "export", "-o", chrome}, 2},
		{"trace record", []string{"trace", "record"}, 2},

		{"diff of one artifact", []string{"diff", truncated}, 2},
		{"diff of a missing artifact", []string{"diff", filepath.Join(tmp, "absent.json"), truncated}, 1},
	} {
		if got := run(tc.args, io.Discard, io.Discard); got != tc.want {
			t.Errorf("%s: zofs-obs %v exits %d, want %d", tc.name, tc.args, got, tc.want)
		}
	}
}

// TestInjectedRegressionIsDetected is the differ's self-test: a differ that
// cannot see a 20% regression is no gate. A small kops/latency document
// compared with itself is clean; its -inject 0.2 copy (throughput deflated,
// latency inflated, neutral leaves untouched) gets the regression verdict,
// exit status 3; and the same move in the good direction does not.
func TestInjectedRegressionIsDetected(t *testing.T) {
	dir := t.TempDir()
	regressed := filepath.Join(dir, "regressed.json")
	base := write(t, filepath.Join(dir, "base.json"), []byte(`{"experiment": "synthetic", "files": 4096, "quick": true, "cells": [
		{"cell": "create", "kops": 1200, "mean_ns": 830},
		{"cell": "read4k", "kops": 2400, "mean_ns": 410}]}`))
	if code := run([]string{"diff", "-inject", "0.2", "-o", regressed, base}, io.Discard, io.Discard); code != 0 {
		t.Fatalf("diff -inject exits %d", code)
	}

	raw, err := os.ReadFile(regressed)
	if err != nil {
		t.Fatal(err)
	}
	var got struct {
		Files float64
		Cells []struct {
			Cell   string
			Kops   float64
			MeanNS float64 `json:"mean_ns"`
		}
	}
	if err := json.Unmarshal(raw, &got); err != nil {
		t.Fatal(err)
	}
	near := func(a, b float64) bool { return math.Abs(a-b) < 1e-9*b }
	if got.Files != 4096 || len(got.Cells) != 2 ||
		!near(got.Cells[0].Kops, 1200/1.2) || !near(got.Cells[0].MeanNS, 830*1.2) ||
		!near(got.Cells[1].Kops, 2400/1.2) || !near(got.Cells[1].MeanNS, 410*1.2) {
		t.Fatalf("injected document: %+v", got)
	}

	for _, tc := range []struct {
		name     string
		old, new string
		want     int
	}{
		{"identical", base, base, 0},
		{"regressed by 20%", base, regressed, 3},
		{"improved by 20%", regressed, base, 0},
	} {
		if code := run([]string{"diff", tc.old, tc.new}, io.Discard, io.Discard); code != tc.want {
			t.Errorf("%s: exit status %d, want %d", tc.name, code, tc.want)
		}
	}
}

// TestFidelityDelta: between two scoreboards (BENCH_fidelity.json), a cell
// that moves away from the paper is a regression of its score, and the
// report ends with the total score's delta; the move back is clean.
func TestFidelityDelta(t *testing.T) {
	dir := t.TempDir()
	before := write(t, filepath.Join(dir, "before.json"), []byte(`{"paper_cells": 1, "total_score": 0.1, "cells": [
		{"name": "table2/create/1/ZoFS", "paper": 2494, "ours": 2257, "score": 0.1},
		{"name": "fig8/ZoFS", "ours": 1.517}]}`))
	after := write(t, filepath.Join(dir, "after.json"), []byte(`{"paper_cells": 1, "total_score": 0.9, "cells": [
		{"name": "table2/create/1/ZoFS", "paper": 2494, "ours": 1003, "score": 0.9},
		{"name": "fig8/ZoFS", "ours": 1.517}]}`))
	var out strings.Builder
	if code := run([]string{"diff", before, after}, &out, io.Discard); code != 3 {
		t.Errorf("a cell moved away from the paper: exit status %d, want 3", code)
	}
	for _, want := range []string{"R cells[table2/create/1/ZoFS].score", "fidelity: total score 0.1000 -> 0.9000 (+0.8000"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("report lacks %q:\n%s", want, out.String())
		}
	}
	if code := run([]string{"diff", after, before}, io.Discard, io.Discard); code != 0 {
		t.Errorf("a cell moved toward the paper: exit status %d, want 0", code)
	}
}
