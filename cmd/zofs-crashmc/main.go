// Command zofs-crashmc runs the crash-state model checker and
// fault-injection campaigns over the simulated NVM file systems.
//
// Usage:
//
//	zofs-crashmc [-system ZoFS] [-points 35] [-model all] [-edges both]
//	             [-seed 1] [-ops 30] [-device-mb 64] [-min-states 0]
//	             [-inject none] [-flips 8] [-json report.json]
//
// The checker runs a deterministic create/write/fsync/rename workload,
// enumerates its persistence points, and at each sampled point
// materializes the post-crash image under the selected media models
// (drop: all dirty cachelines revert; subset: a pseudo-random subset
// persists; torn: 8-byte word subsets persist) on the selected crash
// edges (after: the k-th persisting store completed; before: it was about
// to start, mid-epoch). -system takes any system the repository builds, and
// each is held to what it guarantees, printed with the run: ZoFS images are
// remounted, recovered and checked against the model of the workload's tree
// (vfs.Model), LogFS images are remounted, replayed and checked against it,
// and the baselines, whose namespaces are volatile, are checked at the media
// level.
//
// Exit codes: 0 all invariants held; 1 invariant violation; 2 usage or
// setup error; 3 injected corruption was detected (the expected outcome
// of -inject bitflip — deliberately non-zero so pipelines cannot mistake
// a corruption run for a clean one).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	"zofs/internal/crashmc"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("zofs-crashmc", flag.ContinueOnError)
	fl.SetOutput(stderr)
	system := fl.String("system", "ZoFS", "system under test: "+crashmc.Systems())
	points := fl.Int("points", 35, "crash points to sample across the workload (0 = every point)")
	model := fl.String("model", "all", "media model: drop, subset, torn or all")
	edges := fl.String("edges", "both", "crash edge: after, before or both")
	seed := fl.Int64("seed", 1, "workload and media-fate seed")
	ops := fl.Int("ops", 30, "workload length")
	deviceMB := fl.Int64("device-mb", 64, "simulated device size in MiB")
	minStates := fl.Int("min-states", 0, "fail unless at least this many crash states were explored")
	inject := fl.String("inject", "none", "fault campaign instead of crash sweep: none, bitflip, lease or slotless")
	flips := fl.Int("flips", 8, "bit flips for -inject bitflip")
	jsonPath := fl.String("json", "", "write the full report as JSON to this file")
	if fl.Parse(args) != nil {
		return 2
	}
	if fl.NArg() != 0 {
		fl.Usage()
		return 2
	}
	// usage reports a bad flag value or a run that could not be set up.
	usage := func(format string, a ...any) int {
		fmt.Fprintf(stderr, "zofs-crashmc: "+format+"\n", a...)
		return 2
	}

	cfg := crashmc.Config{
		System: *system, Seed: *seed, Ops: *ops, Points: *points,
		DeviceBytes: *deviceMB << 20, Flips: *flips,
	}
	switch *model {
	case "all", "":
	case "drop", "subset", "torn":
		cfg.Models = []crashmc.Model{crashmc.Model(*model)}
	default:
		return usage("bad -model %q", *model)
	}
	switch *edges {
	case "both", "":
	case "after", "before":
		cfg.Edges = []crashmc.Edge{crashmc.Edge(*edges)}
	default:
		return usage("bad -edges %q", *edges)
	}

	var rep *crashmc.Report
	var viols []crashmc.Violation
	detected := false
	switch *inject {
	case "none", "":
		r, err := crashmc.Explore(cfg)
		if err != nil {
			return usage("%v", err)
		}
		rep = r
		viols = r.Violations
		fmt.Fprintf(stdout, "%s: explored %d crash states (%d sampled points of %d, edges=%s, model=%s)\n",
			cfg.System, r.States, len(r.Points), r.WorkloadPoints, *edges, *model)
		fmt.Fprintf(stdout, "  guarantee: %s\n", r.Guarantee)
		fmt.Fprintf(stdout, "  dirty states %d (max %d lines); lines reverted %d persisted %d torn %d; fsck repairs %d\n",
			r.DirtyStates, r.MaxDirtyLines, r.LinesReverted, r.LinesPersisted, r.LinesTorn, r.Repairs)
		for kind, n := range r.RepairsByKind {
			fmt.Fprintf(stdout, "  repair %-16s %d\n", kind, n)
		}
		if r.States < *minStates {
			fmt.Fprintf(stderr, "zofs-crashmc: explored %d states, need at least %d\n", r.States, *minStates)
			return 1
		}
	case "bitflip", "lease", "slotless":
		fr, v, err := crashmc.RunFaults(cfg, *inject)
		if err != nil {
			return usage("%v", err)
		}
		rep = &crashmc.Report{Config: cfg, Violations: v, Fault: fr}
		viols = v
		detected = fr.Detected
		fmt.Fprintf(stdout, "%s inject=%s: detected=%v repairs=%d leases cleared=%d survivor errors=%d/%d panics=%d\n",
			cfg.System, *inject, fr.Detected, fr.Repairs, fr.LeasesCleared,
			fr.SurvivorErrors, fr.SurvivorOps, fr.SurvivorPanics)
		if fr.Mode == "slotless" {
			fmt.Fprintf(stdout, "  stranded %d slotless batch pages; recovery reclaimed %d\n",
				fr.StrandedPages, fr.PagesReclaimed)
		}
	default:
		return usage("bad -inject %q", *inject)
	}

	if *jsonPath != "" {
		raw, err := json.MarshalIndent(rep, "", "  ")
		if err == nil {
			err = os.WriteFile(*jsonPath, append(raw, '\n'), 0o644)
		}
		if err != nil {
			return usage("-json: %v", err)
		}
	}
	if len(viols) > 0 {
		for _, v := range viols {
			fmt.Fprintf(stdout, "VIOLATION %s\n", v)
		}
		fmt.Fprintf(stdout, "%d invariant violation(s)\n", len(viols))
		return 1
	}
	if detected {
		fmt.Fprintln(stdout, "injected fault detected and repaired (exit 3)")
		return 3
	}
	fmt.Fprintln(stdout, "all invariants held")
	return 0
}
