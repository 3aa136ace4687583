// Package linalg provides the dense linear algebra the k-Shape reproduction
// needs: symmetric matrices, Rayleigh quotients, a power-iteration dominant
// eigensolver (used by shape extraction, Equation 15 of the paper), a
// shifted power iteration for smallest eigenvectors (used by the KSC
// centroid), and a full symmetric eigendecomposition via Householder
// tridiagonalization plus implicit-shift QL (used by spectral clustering).
package linalg

import (
	"fmt"
	"math"
)

// Sym is a dense symmetric n×n matrix stored fully (both triangles).
type Sym struct {
	N    int
	Data []float64 // row-major, len N*N
}

// NewSym allocates an n×n zero symmetric matrix.
func NewSym(n int) *Sym {
	if n <= 0 {
		panic(fmt.Sprintf("linalg: invalid dimension %d", n))
	}
	return &Sym{N: n, Data: make([]float64, n*n)}
}

// At returns element (i, j).
func (s *Sym) At(i, j int) float64 { return s.Data[i*s.N+j] }

// Set sets elements (i, j) and (j, i) to v, preserving symmetry.
func (s *Sym) Set(i, j int, v float64) {
	s.Data[i*s.N+j] = v
	s.Data[j*s.N+i] = v
}

// Row returns row i as a slice aliasing the matrix storage.
func (s *Sym) Row(i int) []float64 { return s.Data[i*s.N : (i+1)*s.N] }

// Clone returns a deep copy of s.
func (s *Sym) Clone() *Sym {
	c := NewSym(s.N)
	copy(c.Data, s.Data)
	return c
}

// MulVec computes dst = S·x. dst and x must have length N and must not alias.
func (s *Sym) MulVec(dst, x []float64) {
	n := s.N
	if len(dst) != n || len(x) != n {
		panic(fmt.Sprintf("linalg: MulVec dimension mismatch: %d, %d vs %d", len(dst), len(x), n))
	}
	// Four rows per pass share each load of x and keep four independent
	// accumulators in flight; every row still sums its products in column
	// order, so the result is bit-identical to one row at a time.
	i := 0
	for ; i+4 <= n; i += 4 {
		r0 := s.Data[i*n : (i+1)*n]
		r1 := s.Data[(i+1)*n : (i+2)*n]
		r2 := s.Data[(i+2)*n : (i+3)*n]
		r3 := s.Data[(i+3)*n : (i+4)*n]
		a0, a1, a2, a3 := 0.0, 0.0, 0.0, 0.0
		for j, xj := range x {
			a0 += r0[j] * xj
			a1 += r1[j] * xj
			a2 += r2[j] * xj
			a3 += r3[j] * xj
		}
		dst[i], dst[i+1], dst[i+2], dst[i+3] = a0, a1, a2, a3
	}
	for ; i < n; i++ {
		row := s.Data[i*n : (i+1)*n]
		acc := 0.0
		for j, v := range row {
			acc += v * x[j]
		}
		dst[i] = acc
	}
}

// GramAddOuter accumulates S += x·xᵀ. Used to build S = Σ xᵢxᵢᵀ in shape
// extraction without materializing the data matrix product.
func (s *Sym) GramAddOuter(x []float64) {
	n := s.N
	if len(x) != n {
		panic(fmt.Sprintf("linalg: GramAddOuter dimension mismatch: %d vs %d", len(x), n))
	}
	for i := 0; i < n; i++ {
		xi := x[i]
		//lint:ignore floatcmp exact zero-pivot guard
		if xi == 0 {
			continue
		}
		row := s.Data[i*n : (i+1)*n]
		for j := 0; j < n; j++ {
			row[j] += xi * x[j]
		}
	}
}

// GramAddRows accumulates S += Σ_r x_r·x_rᵀ over rows, each of length N.
// It is the blocked form of calling GramAddOuter once per row: only the
// upper triangle is accumulated, four rows per pass over it, and each
// entry receives its products in row order with GramAddOuter's zero-pivot
// skip, so the triangle is bit-identical to the per-row result. The lower
// triangle is then mirrored from the upper one, which reproduces the
// per-row result exactly whenever S is symmetric on entry and the rows
// are finite (a zero pivot can then only skip adding a signed zero).
//
//kshape:hotpath
func (s *Sym) GramAddRows(rows [][]float64) {
	n := s.N
	for _, x := range rows {
		if len(x) != n {
			panic(fmt.Sprintf("linalg: GramAddRows dimension mismatch: %d vs %d", len(x), n))
		}
	}
	if len(rows) == 0 {
		return
	}
	r := 0
	for ; r+4 <= len(rows); r += 4 {
		s.gramUpper4(rows[r], rows[r+1], rows[r+2], rows[r+3])
	}
	for ; r < len(rows); r++ {
		for i := 0; i < n; i++ {
			gramUpperRow(s.Data[i*n+i:(i+1)*n], rows[r], i)
		}
	}
	s.mirrorUpper()
}

// gramUpper4 adds the upper triangle of x0·x0ᵀ + x1·x1ᵀ + x2·x2ᵀ + x3·x3ᵀ
// to S, one matrix row per pass: a row whose four pivots are all nonzero
// takes the fused loop (one load and store of each entry per four
// products), any other row falls back to one pass per nonzero pivot. Both
// add each entry's products in the order x0, x1, x2, x3.
//
//kshape:hotpath
func (s *Sym) gramUpper4(x0, x1, x2, x3 []float64) {
	n := s.N
	for i := 0; i < n; i++ {
		row := s.Data[i*n+i : (i+1)*n]
		a0, a1, a2, a3 := x0[i], x1[i], x2[i], x3[i]
		//lint:ignore floatcmp exact zero-pivot guard, as in GramAddOuter
		if a0 == 0 || a1 == 0 || a2 == 0 || a3 == 0 {
			gramUpperRow(row, x0, i)
			gramUpperRow(row, x1, i)
			gramUpperRow(row, x2, i)
			gramUpperRow(row, x3, i)
			continue
		}
		y0, y1, y2, y3 := x0[i:n], x1[i:n], x2[i:n], x3[i:n]
		y0, y1, y2, y3 = y0[:len(row)], y1[:len(row)], y2[:len(row)], y3[:len(row)]
		for j, acc := range row {
			acc += a0 * y0[j]
			acc += a1 * y1[j]
			acc += a2 * y2[j]
			acc += a3 * y3[j]
			row[j] = acc
		}
	}
}

// gramUpperRow adds x[i]·x[i:] to row, the upper-triangle part of matrix
// row i, skipping a zero pivot exactly as GramAddOuter does.
//
//kshape:hotpath
func gramUpperRow(row, x []float64, i int) {
	xi := x[i]
	//lint:ignore floatcmp exact zero-pivot guard, as in GramAddOuter
	if xi == 0 {
		return
	}
	y := x[i:]
	y = y[:len(row)]
	for j := range row {
		row[j] += xi * y[j]
	}
}

// mirrorUpper copies the upper triangle onto the lower one. It walks the
// destination rows in square tiles: writing along rows and reading down
// columns keeps the strided accesses to loads, which is several times
// faster than the transposed order when the row stride is a power of two.
//
//kshape:hotpath
func (s *Sym) mirrorUpper() {
	const tile = 32
	n, d := s.N, s.Data
	for bj := 0; bj < n; bj += tile {
		jEnd := min(bj+tile, n)
		for bi := 0; bi <= bj; bi += tile {
			for j := bj; j < jEnd; j++ {
				row := d[j*n : (j+1)*n]
				for i := bi; i < min(bi+tile, j); i++ {
					row[i] = d[i*n+j]
				}
			}
		}
	}
}

// RayleighQuotient returns xᵀSx / xᵀx, the objective maximized by the shape
// extraction centroid. It returns 0 for a zero vector.
func (s *Sym) RayleighQuotient(x []float64) float64 {
	tmp := make([]float64, s.N)
	s.MulVec(tmp, x)
	num, den := 0.0, 0.0
	for i := range x {
		num += x[i] * tmp[i]
		den += x[i] * x[i]
	}
	//lint:ignore floatcmp exact zero-denominator guard
	if den == 0 {
		return 0
	}
	return num / den
}

// CenterProject replaces S with Qᵀ·S·Q where Q = I − (1/n)·11ᵀ is the
// centering projector of Equation 15. Because Q is symmetric and idempotent
// this amounts to removing row means and then column means.
func (s *Sym) CenterProject() {
	n := s.N
	rowMean := make([]float64, n)
	colMean := make([]float64, n)
	// One pass along the rows, four at a time, sums the rows (four
	// independent accumulators) and the columns (each still adding its
	// entries in row order), so both means are bit-identical to summing
	// every row and then every column on its own.
	i := 0
	for ; i+4 <= n; i += 4 {
		r0 := s.Data[i*n : (i+1)*n]
		r1 := s.Data[(i+1)*n : (i+2)*n]
		r2 := s.Data[(i+2)*n : (i+3)*n]
		r3 := s.Data[(i+3)*n : (i+4)*n]
		a0, a1, a2, a3 := 0.0, 0.0, 0.0, 0.0
		for j, c := range colMean {
			v0, v1, v2, v3 := r0[j], r1[j], r2[j], r3[j]
			a0 += v0
			a1 += v1
			a2 += v2
			a3 += v3
			c += v0
			c += v1
			c += v2
			c += v3
			colMean[j] = c
		}
		rowMean[i], rowMean[i+1], rowMean[i+2], rowMean[i+3] = a0/float64(n), a1/float64(n), a2/float64(n), a3/float64(n)
	}
	for ; i < n; i++ {
		row := s.Data[i*n : (i+1)*n]
		rowMean[i] = mean(row)
		for j, v := range row {
			colMean[j] += v
		}
	}
	for j := range colMean {
		colMean[j] /= float64(n)
	}
	grand := mean(rowMean)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			s.Data[i*n+j] += grand - rowMean[i] - colMean[j]
		}
	}
}

func mean(x []float64) float64 {
	acc := 0.0
	for _, v := range x {
		acc += v
	}
	return acc / float64(len(x))
}

// normalize scales x to unit L2 norm in place and returns the original norm.
func normalize(x []float64) float64 {
	ss := 0.0
	for _, v := range x {
		ss += v * v
	}
	nrm := math.Sqrt(ss)
	//lint:ignore floatcmp exact zero-norm guard before dividing by it
	if nrm == 0 {
		return 0
	}
	for i := range x {
		x[i] /= nrm
	}
	return nrm
}
