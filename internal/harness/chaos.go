package harness

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"

	"zofs/internal/chaos"
)

// RunChaos executes the adversarial campaign (DESIGN.md §13): M client
// processes against one Treasury under a seeded fault schedule — kill with
// lease residue, stalled live holder, byzantine stray writes, media
// corruption, kernel-call delays — and gates on the containment invariants:
// healthy coffers at 100% availability, victims failing typed, lease waits
// bounded and attributed, stale resumes fenced. The campaign is run twice
// and the two reports must be byte-identical (the reproducibility contract),
// then the report is committed to BENCH_chaos.json.
func RunChaos(w io.Writer, opts Options) error {
	cfg := chaos.Config{Seed: 1, Ops: 500}
	if opts.Quick {
		cfg.Ops = 200
	}

	rep, err := chaos.Run(cfg)
	if err != nil {
		return fmt.Errorf("chaos campaign: %w", err)
	}
	rep.WriteSummary(w)

	// Reproducibility gate: same Config, byte-identical JSON.
	rep2, err := chaos.Run(cfg)
	if err != nil {
		return fmt.Errorf("chaos replay: %w", err)
	}
	ja, _ := json.Marshal(rep)
	jb, _ := json.Marshal(rep2)
	if !bytes.Equal(ja, jb) {
		return fmt.Errorf("chaos: same seed produced different reports")
	}
	fmt.Fprintln(w, "gate ok: byte-identical replay")

	if !rep.Passed() {
		for _, v := range rep.Violations {
			fmt.Fprintf(w, "  violation %s: %s\n", v.Invariant, v.Detail)
		}
		return fmt.Errorf("chaos: %d containment violations", rep.ViolationCount)
	}

	return writeBench(w, "BENCH_chaos.json", rep)
}
