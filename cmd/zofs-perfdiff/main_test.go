package main

import (
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"testing"
)

// TestInjectedRegressionIsDetected is the differ's self-test: a differ that
// cannot see a 20% regression is no gate. A small kops/latency document
// compared with itself is clean; its -inject 0.2 copy (throughput deflated,
// latency inflated, neutral leaves untouched) gets the regression verdict,
// exit status 3; and the same move in the good direction does not.
func TestInjectedRegressionIsDetected(t *testing.T) {
	dir := t.TempDir()
	base := filepath.Join(dir, "base.json")
	regressed := filepath.Join(dir, "regressed.json")
	doc := `{"experiment": "synthetic", "files": 4096, "quick": true, "cells": [
		{"cell": "create", "kops": 1200, "mean_ns": 830},
		{"cell": "read4k", "kops": 2400, "mean_ns": 410}]}`
	if err := os.WriteFile(base, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := injectRegression(base, regressed, 0.2); err != nil {
		t.Fatal(err)
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
		code, err := diff(io.Discard, tc.old, tc.new, 0.05, 3, false)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if code != tc.want {
			t.Errorf("%s: exit status %d, want %d", tc.name, code, tc.want)
		}
	}
}
