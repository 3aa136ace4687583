// Package core implements the paper's primary contribution: the k-Shape
// clustering algorithm (Section 3.3, Algorithm 3), built on the shape-based
// distance (internal/dist.SBD) and shape extraction (internal/avg).
//
// The iterative refinement engine is exposed generically (Lloyd), since
// every scalable baseline in the paper's evaluation — k-AVG+ED, k-AVG+SBD,
// k-AVG+DTW, k-DBA, KSC, k-Shape+DTW — is the same loop with a different
// (distance, centroid) pair; internal/cluster instantiates them.
package core

import (
	"errors"
	"fmt"
	"log/slog"
	"math"
	"math/rand"
	"sync"

	"kshape/internal/avg"
	"kshape/internal/dist"
	"kshape/internal/obs"
	"kshape/internal/par"
	"kshape/internal/ts"
)

// DefaultMaxIterations matches the paper's cap of 100 refinement iterations.
const DefaultMaxIterations = 100

// DistanceFunc measures dissimilarity between a centroid and a series.
type DistanceFunc func(centroid, x []float64) float64

// CentroidFunc computes a cluster representative given the members and the
// previous centroid (used as an alignment reference by shape extraction,
// DBA, and KSC).
type CentroidFunc func(members [][]float64, prev []float64) []float64

// Config parameterizes the Lloyd iterative-refinement engine.
type Config struct {
	// K is the number of clusters to produce. Required, 1 <= K <= n.
	K int
	// MaxIterations caps the refinement loop; 0 means DefaultMaxIterations.
	MaxIterations int
	// Distance is the assignment-step dissimilarity. Required.
	Distance DistanceFunc
	// Centroid is the refinement-step averaging method. Required.
	Centroid CentroidFunc
	// Rand supplies the random initial assignment. Required unless
	// InitialLabels is set.
	Rand *rand.Rand
	// InitialLabels, if non-nil, seeds the assignment deterministically
	// (length n, values in [0, K)).
	InitialLabels []int
	// OnIteration, if non-nil, is invoked synchronously after every
	// refinement iteration with that iteration's statistics (inertia,
	// label churn, per-phase wall time, cluster sizes). The callback runs
	// on the engine's goroutine; per-iteration bookkeeping is only
	// performed when it is set.
	OnIteration func(obs.IterationStats)
	// Workers bounds the engine's parallelism: the assignment step runs
	// in parallel across series and the refinement step across clusters.
	// <= 0 means runtime.NumCPU(), 1 means serial. Labels, centroids, and
	// the iteration trajectory are bit-for-bit identical for every value;
	// Distance and Centroid must therefore be safe for concurrent calls
	// (every implementation in this repository is).
	Workers int
	// Logger, if non-nil, receives structured per-iteration records at
	// debug level (iteration number, inertia, label churn, reseeds, phase
	// wall times). Iteration bookkeeping is only performed when the logger
	// is enabled for debug or OnIteration is set.
	Logger *slog.Logger
}

// Result reports a clustering.
type Result struct {
	// Labels assigns each input series to a cluster in [0, K).
	Labels []int
	// Centroids holds the K cluster representatives.
	Centroids [][]float64
	// Iterations is the number of refinement iterations executed.
	Iterations int
	// Converged is true when the loop stopped because no label changed
	// (rather than hitting MaxIterations).
	Converged bool
	// Inertia is the sum of squared assignment distances at termination —
	// the within-cluster objective of Equation 1.
	Inertia float64
}

// Errors returned by the engine.
var (
	ErrNoData = errors.New("core: no input series")
	ErrBadK   = errors.New("core: k must satisfy 1 <= k <= number of series")
)

// Lloyd runs the two-step iterative refinement of Algorithm 3 with the
// provided distance and centroid methods: refinement (recompute centroids)
// then assignment (reassign to nearest centroid), until labels stabilize or
// the iteration cap is hit.
//
// Centroids start as zero vectors and labels start random (or from
// InitialLabels), matching the paper's pseudocode. An emptied cluster is
// re-seeded with the series currently farthest from its own centroid, which
// keeps K clusters alive without biasing toward any particular member.
func Lloyd(data [][]float64, cfg Config) (*Result, error) {
	n := len(data)
	if n == 0 {
		return nil, ErrNoData
	}
	if cfg.K < 1 || cfg.K > n {
		return nil, fmt.Errorf("%w: k=%d, n=%d", ErrBadK, cfg.K, n)
	}
	if cfg.Distance == nil || cfg.Centroid == nil {
		return nil, errors.New("core: Config.Distance and Config.Centroid are required")
	}
	m := len(data[0])
	for i, x := range data {
		if len(x) != m {
			return nil, fmt.Errorf("core: series %d has length %d, want %d", i, len(x), m)
		}
	}
	maxIter := cfg.MaxIterations
	if maxIter <= 0 {
		maxIter = DefaultMaxIterations
	}
	k := cfg.K

	labels := make([]int, n)
	switch {
	case cfg.InitialLabels != nil:
		if len(cfg.InitialLabels) != n {
			return nil, fmt.Errorf("core: InitialLabels length %d, want %d", len(cfg.InitialLabels), n)
		}
		for i, l := range cfg.InitialLabels {
			if l < 0 || l >= k {
				return nil, fmt.Errorf("core: InitialLabels[%d] = %d out of [0, %d)", i, l, k)
			}
			labels[i] = l
		}
	case cfg.Rand != nil:
		for i := range labels {
			labels[i] = cfg.Rand.Intn(k)
		}
	default:
		return nil, errors.New("core: Config.Rand is required when InitialLabels is nil")
	}

	centroids := make([][]float64, k)
	for j := range centroids {
		centroids[j] = make([]float64, m) // zero vectors, per Algorithm 3
	}
	assignDist := make([]float64, n)

	res := &Result{Labels: labels, Centroids: centroids}
	prev := make([]int, n)
	ob := newRunObserver(n, k, cfg.OnIteration, cfg.Logger)
	capture := ob.captureRows()
	for iter := 0; iter < maxIter; iter++ {
		copy(prev, labels)
		ob.beforeRefine(centroids)

		// Refinement step: recompute each centroid from its members, using
		// the previous centroid as the alignment reference. Clusters are
		// independent, so they refine in parallel.
		refineSW := obs.NewStopwatch()
		members := make([][][]float64, k)
		for i, l := range labels {
			members[l] = append(members[l], data[i])
		}
		par.For(cfg.Workers, k, func(j int) {
			centroids[j] = cfg.Centroid(members[j], centroids[j])
		})
		refineNS := refineSW.ElapsedNS()
		obs.RecordPhaseSpan(obs.PhaseRefine, refineNS)

		// Assignment step: each series moves to its closest centroid.
		// Each index writes only its own labels/assignDist slots, and the
		// centroid scan is ascending with a strict comparison, so the
		// outcome is worker-count independent.
		assignSW := obs.NewStopwatch()
		par.For(cfg.Workers, n, func(i int) {
			x := data[i]
			var capRow []float64
			if capture != nil {
				capRow = capture[i]
			}
			best, bestJ := math.Inf(1), labels[i]
			for j := 0; j < k; j++ {
				d := cfg.Distance(centroids[j], x)
				if capRow != nil {
					capRow[j] = d
				}
				if d < best {
					best, bestJ = d, j
				}
			}
			labels[i] = bestJ
			assignDist[i] = best
		})
		assignNS := assignSW.ElapsedNS()
		obs.RecordPhaseSpan(obs.PhaseAssign, assignNS)

		// Re-seed emptied clusters with the worst-fitting series.
		reseeds := reseedEmptyClusters(data, labels, assignDist, k)
		observeIterationTelemetry(iter, refineNS, assignNS, refineSW)

		res.Iterations = iter + 1
		converged := equalLabels(labels, prev)
		ob.observe(iter, labels, prev, assignDist, centroids, refineNS, assignNS, reseeds)
		if converged {
			res.Converged = true
			break
		}
	}
	res.Inertia = 0
	for _, d := range assignDist {
		res.Inertia += d * d
	}
	publishClusterSizes(labels, k)
	return res, nil
}

// observeIterationTelemetry records one iteration's phase latencies into
// the global histograms, advances the current-iteration gauge, and marks
// the iteration boundary (plus the whole-iteration span) on the flight
// recorder. All sinks are gated on their own switch, so with neither
// collection nor a recorder active the call costs a few atomic loads.
// The refine and assign spans are recorded inline by the engine loops the
// moment each phase ends, where their recorder-clock placement is exact.
func observeIterationTelemetry(iter int, refineNS, assignNS int64, iterSW obs.Stopwatch) {
	rec := obs.ActiveRecorder()
	if !obs.Enabled() && rec == nil {
		return
	}
	iterNS := iterSW.ElapsedNS()
	obs.ObservePhase(obs.PhaseRefine, refineNS)
	obs.ObservePhase(obs.PhaseAssign, assignNS)
	obs.ObservePhase(obs.PhaseIteration, iterNS)
	obs.SetGauge(obs.GaugeCurrentIteration, int64(iter+1))
	if rec != nil {
		rec.RecordPhaseSpan(obs.PhaseIteration, iterNS)
		rec.RecordIteration(iter + 1)
	}
}

// publishClusterSizes exposes the final cluster occupancy on the
// last-run-cluster-sizes gauge vector when collection is enabled.
func publishClusterSizes(labels []int, k int) {
	if !obs.Enabled() {
		return
	}
	sizes := make([]int, k)
	for _, l := range labels {
		sizes[l]++
	}
	obs.SetClusterSizes(sizes)
}

// reseedEmptyClusters moves, for every empty cluster, the series with the
// largest assignment distance (among clusters with >1 member) into it, and
// returns the number of clusters re-seeded.
func reseedEmptyClusters(data [][]float64, labels []int, assignDist []float64, k int) int {
	counts := make([]int, k)
	for _, l := range labels {
		counts[l]++
	}
	reseeds := 0
	for j := 0; j < k; j++ {
		if counts[j] > 0 {
			continue
		}
		worst, worstI := -1.0, -1
		for i, d := range assignDist {
			if counts[labels[i]] > 1 && d > worst {
				worst, worstI = d, i
			}
		}
		if worstI < 0 {
			continue // cannot reseed without emptying another cluster
		}
		counts[labels[worstI]]--
		labels[worstI] = j
		counts[j] = 1
		assignDist[worstI] = 0
		reseeds++
	}
	obs.Add(obs.CounterReseeds, int64(reseeds))
	return reseeds
}

// iterationStats assembles the per-iteration record handed to OnIteration.
func iterationStats(iter int, labels, prev []int, assignDist []float64, k int,
	refineNS, assignNS int64, reseeds int) obs.IterationStats {
	churn := 0
	for i := range labels {
		if labels[i] != prev[i] {
			churn++
		}
	}
	sizes := make([]int, k)
	for _, l := range labels {
		sizes[l]++
	}
	inertia := 0.0
	for _, d := range assignDist {
		inertia += d * d
	}
	return obs.IterationStats{
		Iteration:    iter + 1,
		Inertia:      inertia,
		LabelChurn:   churn,
		ClusterSizes: sizes,
		RefineNS:     refineNS,
		AssignNS:     assignNS,
		Reseeds:      reseeds,
	}
}

func equalLabels(a, b []int) bool {
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// KShape clusters z-normalized, equal-length series into k clusters with
// the shape-based distance and shape extraction (Algorithm 3). rng drives
// the random initial assignment; pass a fixed seed for reproducible runs.
//
// This entry point runs an optimized inner loop that precomputes the
// Fourier spectra of the input once (the data never moves between
// iterations, only the centroids do), cutting the per-iteration FFT count
// from three per comparison to one. Its results are identical to the
// generic Lloyd engine with SBD + shape extraction.
func KShape(data [][]float64, k int, rng *rand.Rand) (*Result, error) {
	return KShapeInit(data, k, rng, nil)
}

// KShapeInit is KShape with an optional deterministic initial assignment
// (labels in [0, k), length len(data)); rng may be nil when initLabels is
// provided.
func KShapeInit(data [][]float64, k int, rng *rand.Rand, initLabels []int) (*Result, error) {
	return KShapeRun(data, k, rng, KShapeOpts{InitialLabels: initLabels})
}

// KShapeOpts bundles the optional engine controls of the optimized k-Shape
// loop, mirroring the corresponding Config fields of the generic engine.
type KShapeOpts struct {
	// MaxIterations caps the refinement loop; 0 means DefaultMaxIterations.
	MaxIterations int
	// InitialLabels, if non-nil, seeds the assignment deterministically.
	InitialLabels []int
	// OnIteration, if non-nil, receives per-iteration statistics exactly
	// as in Config.OnIteration.
	OnIteration func(obs.IterationStats)
	// Workers bounds the loop's parallelism (Config.Workers semantics:
	// <= 0 means runtime.NumCPU(), 1 means serial). Results and kernel
	// counter totals are bit-for-bit identical for every value.
	Workers int
	// Logger, if non-nil, receives structured per-iteration records at
	// debug level (Config.Logger semantics).
	Logger *slog.Logger
}

// KShapeRun is the optimized k-Shape loop of KShape with explicit engine
// options (iteration cap, deterministic initialization, per-iteration
// observation).
func KShapeRun(data [][]float64, k int, rng *rand.Rand, opt KShapeOpts) (*Result, error) {
	n := len(data)
	if n == 0 {
		return nil, ErrNoData
	}
	if k < 1 || k > n {
		return nil, fmt.Errorf("%w: k=%d, n=%d", ErrBadK, k, n)
	}
	m := len(data[0])
	for i, x := range data {
		if len(x) != m {
			return nil, fmt.Errorf("core: series %d has length %d, want %d", i, len(x), m)
		}
	}
	labels := make([]int, n)
	switch {
	case opt.InitialLabels != nil:
		if len(opt.InitialLabels) != n {
			return nil, fmt.Errorf("core: initial labels length %d, want %d", len(opt.InitialLabels), n)
		}
		for i, l := range opt.InitialLabels {
			if l < 0 || l >= k {
				return nil, fmt.Errorf("core: initial label %d out of [0, %d)", l, k)
			}
			labels[i] = l
		}
	case rng != nil:
		for i := range labels {
			labels[i] = rng.Intn(k)
		}
	default:
		return nil, errors.New("core: a random source is required without initial labels")
	}
	maxIter := opt.MaxIterations
	if maxIter <= 0 {
		maxIter = DefaultMaxIterations
	}

	batch := dist.NewSBDBatch(data)
	centroids := make([][]float64, k)
	for j := range centroids {
		centroids[j] = make([]float64, m)
	}
	assignDist := make([]float64, n)
	res := &Result{Labels: labels, Centroids: centroids}
	prev := make([]int, n)
	ob := newRunObserver(n, k, opt.OnIteration, opt.Logger)
	capture := ob.captureRows()

	// All per-iteration state is allocated once, outside the loop, so in
	// the steady state the only allocations per shape extraction are the
	// eigensolve's vectors (one of which becomes the new centroid) and the
	// centering pass's mean vectors, independent of the cluster size:
	//   - queries caches one prepared spectrum per centroid; specFresh[j]
	//     records that queries[j] still matches centroids[j], so a centroid
	//     that did not move between iterations is never re-transformed.
	//   - settled[j] records that the last refinement reproduced
	//     centroids[j] bit for bit; combined with an unchanged member set
	//     the whole refinement of cluster j is a no-op and is skipped.
	//   - order/starts group member indices per cluster by counting sort
	//     (ascending within each cluster, exactly like the append-based
	//     grouping it replaces), and alignRows is the n×m backing the
	//     aligned members are shifted into.
	//   - extractors pools shape-extraction workspaces (the m×m Gram
	//     matrix and the z-normalized member rows), acquired per cluster
	//     refinement like the batch's SBD scratches.
	queries := make([]*dist.SBDQuery, k)
	specFresh := make([]bool, k)
	settled := make([]bool, k)
	membersChanged := make([]bool, k)
	for j := range membersChanged {
		membersChanged[j] = true
	}
	order := make([]int, n)
	starts := make([]int, k+1)
	fill := make([]int, k)
	alignRows := ts.NewMatrix(n, m)
	var extractors sync.Pool // *avg.ShapeWorkspace

	for iter := 0; iter < maxIter; iter++ {
		copy(prev, labels)
		ob.beforeRefine(centroids)

		// Group member indices per cluster: counting sort into order, with
		// cluster j occupying order[starts[j]:starts[j+1]].
		for j := range fill {
			starts[j] = 0
			fill[j] = 0
		}
		starts[k] = 0
		for _, l := range labels {
			starts[l+1]++
		}
		for j := 0; j < k; j++ {
			starts[j+1] += starts[j]
			fill[j] = starts[j]
		}
		for i, l := range labels {
			order[fill[l]] = i
			fill[l]++
		}

		// Refinement: align members to the previous centroid with one
		// batched query, then extract the new shape. Clusters refine in
		// parallel; each goroutine owns its cluster's query and a pooled
		// scratch. A cluster whose membership did not change and whose
		// last refinement was a bitwise fixed point is skipped outright —
		// recomputing it would reproduce the same centroid from the same
		// inputs.
		refineSW := obs.NewStopwatch()
		par.For(opt.Workers, k, func(j int) {
			if !disableSpectrumCache && settled[j] && !membersChanged[j] {
				return
			}
			idxs := order[starts[j]:starts[j+1]]
			if len(idxs) == 0 {
				centroids[j] = make([]float64, m)
				settled[j], specFresh[j] = false, false
				return
			}
			rows := alignRows[starts[j]:starts[j+1]]
			if isAllZero(centroids[j]) {
				for t, i := range idxs {
					copy(rows[t], data[i])
				}
			} else {
				if disableSpectrumCache || !specFresh[j] {
					queries[j] = batch.QueryInto(queries[j], centroids[j])
					specFresh[j] = true
				}
				sc := batch.AcquireScratch()
				alignMembers(queries[j], sc, data, idxs, rows)
				batch.ReleaseScratch(sc)
			}
			ws, _ := extractors.Get().(*avg.ShapeWorkspace)
			if ws == nil {
				ws = new(avg.ShapeWorkspace)
			}
			newC := ws.Extract(rows)
			extractors.Put(ws)
			settled[j] = equalFloatBits(newC, centroids[j])
			centroids[j] = newC
			if !settled[j] {
				specFresh[j] = false
			}
		})
		refineNS := refineSW.ElapsedNS()
		obs.RecordPhaseSpan(obs.PhaseRefine, refineNS)

		// Assignment: refresh the cached query of every centroid that
		// moved (at most k forward FFTs, fewer on later iterations as
		// centroids settle), then a parallel scan over series; each worker
		// chunk brings its own pooled inverse-FFT scratch so the queries
		// are shared read-only. The per-series centroid scan is ascending
		// with a strict comparison, so labels are worker-count independent.
		assignSW := obs.NewStopwatch()
		par.For(opt.Workers, k, func(j int) {
			if disableSpectrumCache || !specFresh[j] {
				queries[j] = batch.QueryInto(queries[j], centroids[j])
				specFresh[j] = true
			}
		})
		par.ForChunksMin(opt.Workers, n, assignMinPerChunk, func(lo, hi int) {
			scratch := batch.AcquireScratch()
			for i := lo; i < hi; i++ {
				var capRow []float64
				if capture != nil {
					capRow = capture[i]
				}
				assignDist[i], labels[i] = nearestCentroid(queries, scratch, i, labels[i], capRow)
			}
			batch.ReleaseScratch(scratch)
		})

		assignNS := assignSW.ElapsedNS()
		obs.RecordPhaseSpan(obs.PhaseAssign, assignNS)
		reseeds := reseedEmptyClusters(data, labels, assignDist, k)
		// Membership deltas (including reseeds) drive the next iteration's
		// refinement skip: only clusters that gained or lost a member need
		// their centroid recomputed — unless they hadn't settled yet.
		for j := range membersChanged {
			membersChanged[j] = false
		}
		for i := range labels {
			if labels[i] != prev[i] {
				membersChanged[labels[i]] = true
				membersChanged[prev[i]] = true
			}
		}
		observeIterationTelemetry(iter, refineNS, assignNS, refineSW)
		res.Iterations = iter + 1
		converged := equalLabels(labels, prev)
		ob.observe(iter, labels, prev, assignDist, centroids, refineNS, assignNS, reseeds)
		if converged {
			res.Converged = true
			break
		}
	}
	for _, d := range assignDist {
		res.Inertia += d * d
	}
	publishClusterSizes(labels, k)
	return res, nil
}

// assignMinPerChunk floors the per-chunk series count of the assignment
// scan so par's chunk handoff is amortized over several inverse transforms.
const assignMinPerChunk = 4

// disableSpectrumCache is a test hook: when set, KShapeRun recomputes every
// centroid spectrum and refinement each iteration (cache-cold behavior).
// The clustering output must be identical either way — only kernel-counter
// totals may differ.
var disableSpectrumCache bool

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

// KShapeDTW is the k-Shape+DTW ablation of Table 3: shape extraction for
// centroids but DTW for assignment, demonstrating that mismatched
// distance/centroid pairs degrade accuracy.
func KShapeDTW(data [][]float64, k int, rng *rand.Rand) (*Result, error) {
	return Lloyd(data, Config{
		K:        k,
		Distance: func(c, x []float64) float64 { return dist.DTW(c, x) },
		Centroid: avg.ShapeExtraction,
		Rand:     rng,
	})
}
