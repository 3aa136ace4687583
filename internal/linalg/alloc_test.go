package linalg

import (
	"math/rand"
	"testing"
)

// TestGramAddRowsAllocFree pins the //kshape:hotpath Gram kernel — the
// four-row upper-triangle pass, the single-row remainder, and the final
// mirror — at zero allocations: shape extraction reuses one matrix per
// workspace, so the Gram build must not touch the heap whatever the
// member count.
func TestGramAddRowsAllocFree(t *testing.T) {
	const m = 40
	rng := rand.New(rand.NewSource(31))
	rows := make([][]float64, 7) // one four-row block plus a remainder of three
	for r := range rows {
		rows[r] = make([]float64, m)
		for i := range rows[r] {
			rows[r][i] = rng.NormFloat64()
		}
	}
	rows[2][5] = 0 // exercise the zero-pivot fallback inside a block
	s := NewSym(m)
	if a := testing.AllocsPerRun(50, func() {
		s.GramAddRows(rows)
	}); a != 0 {
		t.Errorf("GramAddRows allocates %v per run, want 0", a)
	}
}
