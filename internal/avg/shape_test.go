package avg

import (
	"math"
	"math/rand"
	"testing"

	"kshape/internal/dist"
	"kshape/internal/linalg"
	"kshape/internal/ts"
)

// perRowExtraction is shape extraction in its textbook form: every member
// z-normalized into a fresh slice, S built by one GramAddOuter per member,
// and the sign fix z-normalizing the members again. The workspace path must
// reproduce it bit for bit.
func perRowExtraction(aligned [][]float64) []float64 {
	m := len(aligned[0])
	s := linalg.NewSym(m)
	for _, a := range aligned {
		s.GramAddOuter(ts.ZNormalize(a))
	}
	s.CenterProject()
	_, v := linalg.DominantEigen(s)
	cen := ts.ZNormalize(v)
	neg := make([]float64, m)
	for i, x := range cen {
		neg[i] = -x
	}
	sum := func(c []float64) float64 {
		total := 0.0
		for _, x := range aligned {
			total += dist.SquaredED(ts.ZNormalize(x), c)
		}
		return total
	}
	if sum(neg) < sum(cen) {
		return neg
	}
	return cen
}

// shiftedCluster returns n shifted, noisy copies of a sine, zero-padded
// like k-Shape's aligned members, with one constant member when n > 2 (it
// z-normalizes to all zeros, so its Gram pivots are all skipped).
func shiftedCluster(n, m int, rng *rand.Rand) [][]float64 {
	out := make([][]float64, n)
	for i := range out {
		x := make([]float64, m)
		for t := range x {
			x[t] = math.Sin(4*math.Pi*float64(t)/float64(m)) + 0.2*rng.NormFloat64()
		}
		out[i] = ts.Shift(x, rng.Intn(m/4+1)-m/8)
	}
	if n > 2 {
		for t := range out[1] {
			out[1][t] = 3
		}
	}
	return out
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestShapeWorkspaceBitIdentical reuses one workspace across clusters that
// grow, shrink, and change length, and checks every result against a fresh
// ShapeExtractionAligned and the per-row reference, bit for bit, without
// modifying the members.
func TestShapeWorkspaceBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	var w ShapeWorkspace
	for _, c := range []struct{ n, m int }{
		{5, 64}, {40, 64}, {3, 64}, {1, 64}, {9, 33}, {4, 33}, {13, 128}, {2, 2}, {6, 1},
	} {
		cluster := shiftedCluster(c.n, c.m, rng)
		before := make([][]float64, len(cluster))
		for i, x := range cluster {
			before[i] = append([]float64(nil), x...)
		}
		got := w.Extract(cluster)
		if want := ShapeExtractionAligned(cluster); !sameBits(got, want) {
			t.Errorf("n=%d m=%d: workspace extraction differs from ShapeExtractionAligned", c.n, c.m)
		}
		if want := perRowExtraction(cluster); !sameBits(got, want) {
			t.Errorf("n=%d m=%d: workspace extraction differs from the per-row Gram reference", c.n, c.m)
		}
		for i := range cluster {
			if !sameBits(cluster[i], before[i]) {
				t.Fatalf("n=%d m=%d: Extract modified member %d", c.n, c.m, i)
			}
		}
	}
	if got := w.Extract(nil); got != nil {
		t.Errorf("empty cluster: %v, want nil", got)
	}
}

// TestShapeWorkspaceAllocsIndependentOfMembers: with a warm workspace an
// extraction allocates the same number of times for 5 members as for 40
// (the eigensolve's vectors and the centering means), because the Gram
// matrix and the z-normalized member rows are reused.
func TestShapeWorkspaceAllocsIndependentOfMembers(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	small, large := shiftedCluster(5, 64, rng), shiftedCluster(40, 64, rng)
	var w ShapeWorkspace
	w.Extract(large) // size the workspace for the larger cluster
	aSmall := testing.AllocsPerRun(20, func() { w.Extract(small) })
	aLarge := testing.AllocsPerRun(20, func() { w.Extract(large) })
	if aSmall != aLarge {
		t.Errorf("allocations per extraction grow with the member count: %v at 5 members, %v at 40", aSmall, aLarge)
	}
}
