package avg

import (
	"fmt"

	"kshape/internal/dist"
	"kshape/internal/linalg"
	"kshape/internal/obs"
	"kshape/internal/ts"
)

// ShapeExtraction computes the shape-based centroid of Algorithm 2:
//
//  1. align every series toward the reference ref with SBD;
//  2. form S = X′ᵀ·X′ over the aligned series;
//  3. project with Q = I − (1/m)·11ᵀ: M = Qᵀ·S·Q;
//  4. return the dominant eigenvector of M (the Rayleigh-quotient maximizer
//     of Equation 15), sign-corrected and z-normalized.
//
// When ref is nil or all zeros (the first k-Shape iteration), alignment is
// skipped (every series is its own alignment), matching the reference
// implementation's behaviour of aligning against a zero vector.
//
// The eigenvector's sign is ambiguous; we pick the orientation whose summed
// squared Euclidean distance to the aligned members is smaller, so the
// centroid correlates positively with the cluster.
func ShapeExtraction(cluster [][]float64, ref []float64) []float64 {
	if len(cluster) == 0 {
		if ref == nil {
			return nil
		}
		return make([]float64, len(ref))
	}
	refIsZero := ref == nil || isAllZero(ref)
	aligned := make([][]float64, len(cluster))
	for i, x := range cluster {
		if refIsZero {
			aligned[i] = x
		} else {
			_, a := dist.SBD(ref, x)
			aligned[i] = a
		}
	}
	return ShapeExtractionAligned(aligned)
}

// ShapeExtractionAligned is ShapeExtraction for members that are already
// aligned to a common reference (steps 2-4 of Algorithm 2). It runs one
// extraction in a fresh ShapeWorkspace; loops that extract repeatedly keep
// a workspace instead (k-Shape's engine pools them per run).
func ShapeExtractionAligned(aligned [][]float64) []float64 {
	return new(ShapeWorkspace).Extract(aligned)
}

// ShapeWorkspace owns the buffers of shape extraction: the m×m Gram matrix
// and the z-normalized member rows. Reusing one across calls keeps an
// extraction's allocations independent of the member count: only the
// eigensolve (whose vector becomes the returned centroid) and the
// centering pass's mean vectors allocate. The zero value is ready
// to use and sizes itself on first use; a workspace serves one extraction
// at a time.
type ShapeWorkspace struct {
	sym  *linalg.Sym
	rows [][]float64 // z-normalized members, one row per aligned member
	neg  []float64   // the sign-flipped centroid candidate
}

// Extract returns the shape-extraction centroid of the aligned members
// (steps 2-4 of Algorithm 2). The members are not modified; the result is
// a new slice.
func (w *ShapeWorkspace) Extract(aligned [][]float64) []float64 {
	if len(aligned) == 0 {
		return nil
	}
	defer obs.StartPhase(obs.PhaseShapeExtract)()
	obs.Inc(obs.CounterShapeExtractions)
	m := len(aligned[0])
	z := w.members(len(aligned), m)
	for i, a := range aligned {
		if len(a) != m {
			panic(fmt.Sprintf("avg: aligned member %d has length %d, want %d", i, len(a), m))
		}
		// Z-normalize aligned members before the Gram accumulation: shifting
		// introduces zero padding that perturbs mean and variance, and
		// Equation 14 assumes z-normalized x_i.
		copy(z[i], a)
		ts.ZNormalizeInPlace(z[i])
	}
	clear(w.sym.Data)
	w.sym.GramAddRows(z)
	w.sym.CenterProject()
	_, v := linalg.DominantEigen(w.sym)
	// Resolve the sign ambiguity: keep the orientation of the z-normalized
	// eigenvector whose summed squared distance to the z-normalized members
	// is smaller.
	cen := ts.ZNormalizeInPlace(v)
	for i, x := range cen {
		w.neg[i] = -x
	}
	if sumSqED(z, w.neg) < sumSqED(z, cen) {
		copy(cen, w.neg)
	}
	return cen
}

// members sizes the workspace for n members of length m and returns the
// first n rows; the backing array only grows.
func (w *ShapeWorkspace) members(n, m int) [][]float64 {
	if w.sym == nil || w.sym.N != m {
		*w = ShapeWorkspace{sym: linalg.NewSym(m), neg: make([]float64, m)}
	}
	if len(w.rows) < n {
		back := make([]float64, n*m)
		w.rows = make([][]float64, n)
		for i := range w.rows {
			w.rows[i] = back[i*m : (i+1)*m : (i+1)*m]
		}
	}
	return w.rows[:n]
}

func sumSqED(z [][]float64, c []float64) float64 {
	total := 0.0
	for _, x := range z {
		total += dist.SquaredED(x, c)
	}
	return total
}

func isAllZero(x []float64) bool {
	for _, v := range x {
		//lint:ignore floatcmp exact all-zero test of a degenerate centroid
		if v != 0 {
			return false
		}
	}
	return true
}

// ShapeAverager wraps ShapeExtraction as a centroid function, its Average
// method.
type ShapeAverager struct{}

// Name returns the averaging method's name.
func (ShapeAverager) Name() string { return "ShapeExtraction" }

// Average returns a fresh centroid of cluster. ref is the previous
// centroid and may be nil or all-zero.
func (ShapeAverager) Average(cluster [][]float64, ref []float64) []float64 {
	return ShapeExtraction(cluster, ref)
}
