// Command zofs-chaos runs the deterministic adversarial campaign
// (DESIGN.md §13) standalone: M simulated client processes hammer one
// Treasury while a seeded fault schedule kills a lease holder mid-commit,
// stalls a live holder past expiry, fires byzantine stray writes at one
// victim coffer, flips bits in another, and delays kernel calls. The run
// gates on the containment invariants — healthy coffers at 100%
// availability, victims failing with typed errors, lease waits bounded by
// the retry budget and attributed to the retry span component, stale
// resumes fenced by the lease epoch.
//
// The campaign is a pure function of its flags: same seed, same report,
// byte for byte. Exit status 0 means every invariant held; 1 that the
// campaign could not run or its report could not be written; 2 a usage
// error; 3 a containment violation (the violations are listed in the summary
// and in the JSON report).
//
// Usage:
//
//	zofs-chaos [-seed N] [-ops N] [-clients N] [-coffers N] [-json out.json]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	"zofs/internal/chaos"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("zofs-chaos", flag.ContinueOnError)
	fl.SetOutput(stderr)
	seed := fl.Int64("seed", 1, "campaign seed; the whole report is a pure function of the flags")
	ops := fl.Int("ops", 500, "total operations across all clients")
	clients := fl.Int("clients", 4, "simulated client processes (>=4 for the full fault schedule)")
	coffers := fl.Int("coffers", 4, "coffers; the last two are the quarantine victims")
	jsonOut := fl.String("json", "", "also write the full report as JSON to this file")
	if fl.Parse(args) != nil {
		return 2
	}
	if fl.NArg() != 0 {
		fmt.Fprintln(stderr, "usage: zofs-chaos [-seed N] [-ops N] [-clients N] [-coffers N] [-json out.json]")
		return 2
	}

	rep, err := chaos.Run(chaos.Config{
		Seed:    *seed,
		Ops:     *ops,
		Clients: *clients,
		Coffers: *coffers,
	})
	if err != nil {
		fmt.Fprintf(stderr, "zofs-chaos: %v\n", err)
		return 1
	}
	rep.WriteSummary(stdout)

	if *jsonOut != "" {
		blob, err := json.MarshalIndent(rep, "", "  ")
		if err == nil {
			err = os.WriteFile(*jsonOut, append(blob, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintf(stderr, "zofs-chaos: %v\n", err)
			return 1
		}
	}

	if !rep.Passed() {
		return 3
	}
	return 0
}
