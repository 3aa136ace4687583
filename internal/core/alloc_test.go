package core

import (
	"math/rand"
	"testing"

	"kshape/internal/dist"
	"kshape/internal/ts"
)

// TestAlignMembersAllocFree pins the refinement inner loop — shift-search
// plus in-place member alignment — at zero allocations: all buffers (the
// cached query, the scratch, and the aligned rows) are provided by the
// caller, so iterating the k-Shape loop does not grow the heap with the
// cluster sizes.
func TestAlignMembersAllocFree(t *testing.T) {
	data, _ := twoClassShiftedData(12, 64, rand.New(rand.NewSource(21)))
	m := len(data[0])
	batch := dist.NewSBDBatch(data)
	centroid := ts.ZNormalize(append([]float64(nil), data[0]...))
	q := batch.Query(centroid)
	sc := batch.Scratch()
	idxs := make([]int, len(data))
	for i := range idxs {
		idxs[i] = i
	}
	rows := ts.NewMatrix(len(data), m)
	if n := testing.AllocsPerRun(50, func() {
		alignMembers(q, sc, data, idxs, rows)
	}); n != 0 {
		t.Errorf("alignMembers allocates %v per run, want 0", n)
	}
}

// TestAssignmentScanAllocFree pins the SBD assignment scan (assignChunk,
// with and without a capture matrix), its per-series inner loop
// (nearestCentroid, with and without a distance-capture row) and the
// refinement fixed-point helpers at zero allocations.
func TestAssignmentScanAllocFree(t *testing.T) {
	data, _ := twoClassShiftedData(12, 64, rand.New(rand.NewSource(22)))
	batch := dist.NewSBDBatch(data)
	queries := []*dist.SBDQuery{
		batch.Query(ts.ZNormalize(data[0])),
		batch.Query(ts.ZNormalize(data[1])),
	}
	sc := batch.Scratch()
	capRow := make([]float64, len(queries))
	var d float64
	var j int
	if n := testing.AllocsPerRun(50, func() {
		d, j = nearestCentroid(queries, sc, 0, 0, capRow)
		d, j = nearestCentroid(queries, sc, 1, j, nil)
	}); n != 0 {
		t.Errorf("nearestCentroid allocates %v per run, want 0", n)
	}
	_ = d
	n := len(data)
	labels := make([]int, n)
	assignDist := make([]float64, n)
	capture := make([][]float64, n)
	capture[3] = make([]float64, len(queries))
	if a := testing.AllocsPerRun(50, func() {
		assignChunk(queries, sc, 0, n, labels, assignDist, capture)
		assignChunk(queries, sc, 2, n-1, labels, assignDist, nil)
	}); a != 0 {
		t.Errorf("assignChunk allocates %v per run, want 0", a)
	}
	if n := testing.AllocsPerRun(50, func() {
		equalFloatBits(data[0], data[1])
		isAllZero(data[2])
	}); n != 0 {
		t.Errorf("refinement helpers allocate %v per run, want 0", n)
	}
}
