package core

import (
	"math"
	"sync"

	"kshape/internal/avg"
	"kshape/internal/dist"
	"kshape/internal/par"
	"kshape/internal/ts"
)

// This file holds the engine's two pluggable steps. The assignment step
// comes from a measure backend prepared once per run — batched SBD or a
// per-pair DistanceFunc — and the refinement step from a refiner — a
// CentroidFunc or k-Shape's align-then-extract. The engine calls a backend
// once per assignment chunk and a refiner once per cluster, never once per
// distance, so the SBD inner loops stay statically dispatched.

// backend is the assignment step's measure.
type backend interface {
	// moved records that centroid j changed during refinement.
	moved(j int)
	// prepare brings the backend up to date with the centroids before an
	// assignment scan.
	prepare(workers int, centroids [][]float64)
	// minChunk is the smallest number of series worth one assign call.
	minChunk() int
	// assign moves every series in [lo, hi) to its nearest centroid,
	// writing labels[i] and assignDist[i], and the full distance row into
	// capture[i] when that row is non-nil. The centroid scan is ascending
	// with a strict comparison, starting from the series' current label.
	assign(lo, hi int, centroids [][]float64, labels []int, assignDist []float64, capture [][]float64)
}

// pairBackend evaluates a DistanceFunc per (centroid, series) pair: ED,
// DTW, KSC, or any other measure without a batched form.
type pairBackend struct {
	data     [][]float64
	distance DistanceFunc
}

func (pairBackend) moved(int)                {}
func (pairBackend) prepare(int, [][]float64) {}
func (pairBackend) minChunk() int            { return 1 }
func (p pairBackend) assign(lo, hi int, centroids [][]float64, labels []int, assignDist []float64, capture [][]float64) {
	for i := lo; i < hi; i++ {
		x := p.data[i]
		var capRow []float64
		if capture != nil {
			capRow = capture[i]
		}
		best, bestJ := math.Inf(1), labels[i]
		for j, c := range centroids {
			d := p.distance(c, x)
			if capRow != nil {
				capRow[j] = d
			}
			if d < best {
				best, bestJ = d, j
			}
		}
		labels[i], assignDist[i] = bestJ, best
	}
}

// sbdBackend is SBD on dist.SBDBatch: the data's half-spectra are computed
// once per run, and the cached query of a centroid is refreshed (one
// forward transform) only when that centroid moved. Queries are shared
// read-only by the assignment chunks and the refinement alignment; every
// chunk brings its own pooled inverse-transform scratch.
type sbdBackend struct {
	batch   *dist.SBDBatch
	queries []*dist.SBDQuery
	fresh   []bool // queries[j] matches the current centroid j
}

func newSBDBackend(data [][]float64, k int) *sbdBackend {
	return &sbdBackend{
		batch:   dist.NewSBDBatch(data),
		queries: make([]*dist.SBDQuery, k),
		fresh:   make([]bool, k),
	}
}

// query returns centroid j's prepared query, refreshing it if stale. Calls
// for different j may run concurrently.
func (b *sbdBackend) query(j int, centroid []float64) *dist.SBDQuery {
	if disableSpectrumCache || !b.fresh[j] {
		b.queries[j] = b.batch.QueryInto(b.queries[j], centroid)
		b.fresh[j] = true
	}
	return b.queries[j]
}

func (b *sbdBackend) moved(j int) { b.fresh[j] = false }

// prepare refreshes the queries of the centroids that moved — at most k
// forward transforms, fewer as centroids settle.
func (b *sbdBackend) prepare(workers int, centroids [][]float64) {
	par.For(workers, len(centroids), func(j int) { b.query(j, centroids[j]) })
}

// assignMinPerChunk floors the per-chunk series count of the SBD
// assignment scan so par's chunk handoff is amortized over several inverse
// transforms.
const assignMinPerChunk = 4

func (b *sbdBackend) minChunk() int { return assignMinPerChunk }

func (b *sbdBackend) assign(lo, hi int, _ [][]float64, labels []int, assignDist []float64, capture [][]float64) {
	sc := b.batch.AcquireScratch()
	assignChunk(b.queries, sc, lo, hi, labels, assignDist, capture)
	b.batch.ReleaseScratch(sc)
}

// assignChunk is the SBD assignment scan over the series [lo, hi), all in
// the caller's scratch.
//
//kshape:hotpath
func assignChunk(queries []*dist.SBDQuery, sc *dist.SBDScratch, lo, hi int, labels []int, assignDist []float64, capture [][]float64) {
	for i := lo; i < hi; i++ {
		var capRow []float64
		if capture != nil {
			capRow = capture[i]
		}
		assignDist[i], labels[i] = nearestCentroid(queries, sc, i, labels[i], capRow)
	}
}

// nearestCentroid is the per-series inner loop of the assignment step:
// an ascending scan over the cached centroid queries keeping the first
// strict improvement (ties toward the smaller index, and toward the
// series' current label initJ when nothing improves on +Inf), computing
// each distance in the caller's scratch. capRow, when non-nil, captures
// the full distance row for the run observer.
//
//kshape:hotpath
func nearestCentroid(queries []*dist.SBDQuery, sc *dist.SBDScratch, i, initJ int, capRow []float64) (best float64, bestJ int) {
	best, bestJ = math.Inf(1), initJ
	for j, q := range queries {
		d, _ := q.DistanceScratch(i, sc)
		if capRow != nil {
			capRow[j] = d
		}
		if d < best {
			best, bestJ = d, j
		}
	}
	return best, bestJ
}

// refiner is the refinement step: it returns cluster j's new centroid
// from its member indices idxs (ascending; empty for an empty cluster)
// and the previous centroid. lo is the cluster's offset in the run's
// grouping, so a refiner may use rows [lo, lo+len(idxs)) of an n-row
// buffer without coordinating with other clusters.
type refiner interface {
	refine(j, lo int, idxs []int, prev []float64) []float64
}

// funcRefiner applies a CentroidFunc to the member series.
type funcRefiner struct {
	centroid CentroidFunc
	data     [][]float64
	rows     [][]float64 // n slots for member slices
}

func (r funcRefiner) refine(_, lo int, idxs []int, prev []float64) []float64 {
	if len(idxs) == 0 {
		return r.centroid(nil, prev)
	}
	members := r.rows[lo : lo+len(idxs)]
	for t, i := range idxs {
		members[t] = r.data[i]
	}
	return r.centroid(members, prev)
}

// shapeRefiner is k-Shape's refinement (Algorithm 2): align the members
// toward the previous centroid through the SBD backend's cached query,
// then extract the new shape in a pooled avg.ShapeWorkspace (the m×m Gram
// matrix and the z-normalized member rows). In the steady state the only
// allocations per extraction are the eigensolve's vectors, one of which
// becomes the new centroid, and the centering pass's mean vectors.
type shapeRefiner struct {
	sbd        *sbdBackend
	data       [][]float64
	alignRows  [][]float64 // n×m, the aligned members
	extractors sync.Pool   // *avg.ShapeWorkspace
}

func newShapeRefiner(sbd *sbdBackend, data [][]float64) *shapeRefiner {
	return &shapeRefiner{sbd: sbd, data: data, alignRows: ts.NewMatrix(len(data), len(data[0]))}
}

func (r *shapeRefiner) refine(j, lo int, idxs []int, prev []float64) []float64 {
	if len(idxs) == 0 {
		return make([]float64, len(prev))
	}
	rows := r.alignRows[lo : lo+len(idxs)]
	if isAllZero(prev) {
		// The first iteration's zero centroid aligns nothing.
		for t, i := range idxs {
			copy(rows[t], r.data[i])
		}
	} else {
		b := r.sbd.batch
		sc := b.AcquireScratch()
		alignMembers(r.sbd.query(j, prev), sc, r.data, idxs, rows)
		b.ReleaseScratch(sc)
	}
	ws, _ := r.extractors.Get().(*avg.ShapeWorkspace)
	if ws == nil {
		ws = new(avg.ShapeWorkspace)
	}
	c := ws.Extract(rows)
	r.extractors.Put(ws)
	return c
}

// alignMembers shifts each member series data[idxs[t]] into rows[t],
// aligned toward the query's centroid (Algorithm 1's alignment step for one
// cluster). It allocates nothing: the shift search runs in the provided
// scratch and the shifted series land in the preallocated rows.
//
//kshape:hotpath
func alignMembers(q *dist.SBDQuery, sc *dist.SBDScratch, data [][]float64, idxs []int, rows [][]float64) {
	for t, i := range idxs {
		_, shift := q.DistanceScratch(i, sc)
		ts.ShiftInto(rows[t], data[i], shift)
	}
}

// equalFloatBits reports whether a and b are elementwise bit-identical —
// the fixed-point test of the refinement skip (NaN-safe and distinguishing
// ±0, unlike ==).
//
//kshape:hotpath
func equalFloatBits(a, b []float64) bool {
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

//kshape:hotpath
func isAllZero(x []float64) bool {
	for _, v := range x {
		//lint:ignore floatcmp exact all-zero test of a degenerate series
		if v != 0 {
			return false
		}
	}
	return true
}
