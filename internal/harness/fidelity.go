package harness

import (
	"fmt"
	"io"
	"math"
)

// Cell is one number the paper states as a single value, beside ours for
// the same configuration. Paper is 0 for a cell the paper draws without a
// value the repository records (Fig. 8's bars): it is kept on the
// scoreboard, unscored, so its value still shows in every diff.
type Cell struct {
	Name  string  `json:"name"`
	Paper float64 `json:"paper,omitempty"`
	Ours  float64 `json:"ours"`
}

// Scored reports whether the cell has a paper value to be scored against.
func (c Cell) Scored() bool { return c.Paper > 0 }

// Score is |ln(ours/paper)|: 0 when ours is the paper's number, ln 2 when
// one is twice the other, whichever way round.
func (c Cell) Score() float64 { return math.Abs(math.Log(c.Ours / c.Paper)) }

// FidelityFile is the scoreboard's name: the cells of every scored
// experiment of one run, each with its score.
const FidelityFile = "BENCH_fidelity.json"

// scoredCell is a cell as the scoreboard records it.
type scoredCell struct {
	Cell
	Score *float64 `json:"score,omitempty"`
}

// WriteFidelity records cells as FidelityFile in the working directory,
// with the number of scored cells and the sum of their scores, and says so
// on w.
func WriteFidelity(w io.Writer, cells []Cell) error {
	doc := struct {
		Scored     int          `json:"paper_cells"`
		TotalScore float64      `json:"total_score"`
		Cells      []scoredCell `json:"cells"`
	}{}
	for _, c := range cells {
		sc := scoredCell{Cell: c}
		if c.Scored() {
			s := c.Score()
			sc.Score = &s
			doc.Scored++
			doc.TotalScore += s
		}
		doc.Cells = append(doc.Cells, sc)
	}
	if err := writeBench(io.Discard, FidelityFile, doc); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "wrote %s: %d cells, %d scored, total score %.4f\n",
		FidelityFile, len(cells), doc.Scored, doc.TotalScore)
	return err
}
