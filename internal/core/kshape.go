// Package core implements the paper's primary contribution: the k-Shape
// clustering algorithm (Section 3.3, Algorithm 3), built on the shape-based
// distance (internal/dist.SBD) and shape extraction (internal/avg).
//
// The iterative refinement engine is exposed generically (Lloyd), since
// every scalable baseline in the paper's evaluation — k-AVG+ED, k-AVG+SBD,
// k-AVG+DTW, k-DBA, KSC, k-Shape+DTW — is the same loop with a different
// (distance, centroid) pair; internal/cluster instantiates them. The one
// loop takes its assignment step from a measure backend prepared once per
// run (backend.go): batched, spectrum-cached SBD, or a per-pair
// DistanceFunc.
package core

import (
	"errors"
	"fmt"
	"log/slog"
	"math/rand"

	"kshape/internal/obs"
	"kshape/internal/par"
)

// DefaultMaxIterations matches the paper's cap of 100 refinement iterations.
const DefaultMaxIterations = 100

// DistanceFunc measures dissimilarity between a centroid and a series.
type DistanceFunc func(centroid, x []float64) float64

// CentroidFunc computes a cluster representative given the members and the
// previous centroid (used as an alignment reference by shape extraction,
// DBA, and KSC). It must be deterministic and must not modify prev or the
// members: the engine skips a cluster whose members did not change and
// whose last refinement reproduced its centroid bit for bit, because
// recomputing it would give the same bits again.
type CentroidFunc func(members [][]float64, prev []float64) []float64

// Config parameterizes the Lloyd iterative-refinement engine. With only K
// and Rand (or InitialLabels) set it runs k-Shape.
type Config struct {
	// K is the number of clusters to produce. Required, 1 <= K <= n.
	K int
	// MaxIterations caps the refinement loop; 0 means DefaultMaxIterations.
	MaxIterations int
	// Distance is the assignment-step dissimilarity, evaluated once per
	// (centroid, series) pair. Nil selects SBD on the batched backend: the
	// data's spectra are computed once per run and a centroid's query is
	// refreshed only when that centroid moved.
	Distance DistanceFunc
	// Centroid is the refinement-step averaging method. Nil selects
	// k-Shape's shape extraction, which aligns the members toward the
	// previous centroid through the SBD backend's cached query; it
	// therefore requires a nil Distance.
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
	// <= 0 means runtime.NumCPU(), 1 means serial. Labels, centroids, the
	// iteration trajectory and kernel-counter totals are bit-for-bit
	// identical for every value; Distance and Centroid must therefore be
	// safe for concurrent calls (every implementation in this repository
	// is).
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

// KShape clusters z-normalized, equal-length series into k clusters with
// the shape-based distance and shape extraction (Algorithm 3). rng drives
// the random initial assignment; pass a fixed seed for reproducible runs.
func KShape(data [][]float64, k int, rng *rand.Rand) (*Result, error) {
	return Lloyd(data, Config{K: k, Rand: rng})
}

// Lloyd runs the two-step iterative refinement of Algorithm 3 with the
// configured distance and centroid methods: refinement (recompute
// centroids) then assignment (reassign to nearest centroid), until labels
// stabilize or the iteration cap is hit.
//
// Centroids start as zero vectors and labels start random (or from
// InitialLabels), matching the paper's pseudocode. An emptied cluster is
// re-seeded with the series currently farthest from its own centroid, which
// keeps K clusters alive without biasing toward any particular member.
//
// Work the previous iteration already did is not repeated: a cluster whose
// members did not change and whose last refinement was a bitwise fixed
// point keeps its centroid, and the SBD backend re-transforms only the
// centroids that moved.
func Lloyd(data [][]float64, cfg Config) (*Result, error) {
	n := len(data)
	if n == 0 {
		return nil, ErrNoData
	}
	k := cfg.K
	if k < 1 || k > n {
		return nil, fmt.Errorf("%w: k=%d, n=%d", ErrBadK, k, n)
	}
	if cfg.Centroid == nil && cfg.Distance != nil {
		return nil, errors.New("core: shape extraction (nil Config.Centroid) requires SBD assignment (nil Config.Distance)")
	}
	m := len(data[0])
	for i, x := range data {
		if len(x) != m {
			return nil, fmt.Errorf("core: series %d has length %d, want %d", i, len(x), m)
		}
	}
	labels, err := initialLabels(n, cfg)
	if err != nil {
		return nil, err
	}
	maxIter := cfg.MaxIterations
	if maxIter <= 0 {
		maxIter = DefaultMaxIterations
	}

	var back backend
	if cfg.Distance == nil {
		back = newSBDBackend(data, k)
	} else {
		back = pairBackend{data: data, distance: cfg.Distance}
	}
	var refine refiner
	if cfg.Centroid == nil {
		// Validated above: shape extraction runs on the SBD backend.
		refine = newShapeRefiner(back.(*sbdBackend), data)
	} else {
		refine = funcRefiner{centroid: cfg.Centroid, data: data, rows: make([][]float64, n)}
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

	// Per-iteration state, allocated once:
	//   - settled[j] records that the last refinement reproduced
	//     centroids[j] bit for bit; with an unchanged member set the
	//     refinement of cluster j is a no-op and is skipped.
	//   - g groups member indices per cluster by counting sort, ascending
	//     within each cluster (the order the members are averaged in).
	settled := make([]bool, k)
	membersChanged := make([]bool, k)
	for j := range membersChanged {
		membersChanged[j] = true
	}
	g := newGroups(n, k)

	for iter := 0; iter < maxIter; iter++ {
		copy(prev, labels)
		ob.beforeRefine(centroids)
		g.group(labels)

		// Refinement: recompute each centroid from its members, using the
		// previous centroid as the alignment reference. Clusters are
		// independent, so they refine in parallel.
		refineSW := obs.NewStopwatch()
		par.For(cfg.Workers, k, func(j int) {
			if !disableSpectrumCache && settled[j] && !membersChanged[j] {
				return
			}
			lo := g.starts[j]
			idxs := g.order[lo:g.starts[j+1]]
			newC := refine.refine(j, lo, idxs, centroids[j])
			settled[j] = len(idxs) > 0 && equalFloatBits(newC, centroids[j])
			centroids[j] = newC
			if !settled[j] {
				back.moved(j)
			}
		})
		refineNS := refineSW.ElapsedNS()
		obs.RecordPhaseSpan(obs.PhaseRefine, refineNS)

		// Assignment: the backend catches up with the centroids that moved,
		// then each series moves to its closest centroid, one backend call
		// per chunk. Each index writes only its own labels/assignDist
		// slots, and the centroid scan is ascending with a strict
		// comparison, so the outcome is worker-count independent.
		assignSW := obs.NewStopwatch()
		back.prepare(cfg.Workers, centroids)
		par.ForChunksMin(cfg.Workers, n, back.minChunk(), func(lo, hi int) {
			back.assign(lo, hi, centroids, labels, assignDist, capture)
		})
		assignNS := assignSW.ElapsedNS()
		obs.RecordPhaseSpan(obs.PhaseAssign, assignNS)

		// Re-seed emptied clusters with the worst-fitting series.
		reseeds := reseedEmptyClusters(labels, assignDist, k)
		// Membership deltas (including reseeds) drive the next iteration's
		// refinement skip: only clusters that gained or lost a member need
		// their centroid recomputed — unless they had not settled yet.
		clear(membersChanged)
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

// initialLabels draws (or copies and validates) the starting assignment.
func initialLabels(n int, cfg Config) ([]int, error) {
	labels := make([]int, n)
	switch {
	case cfg.InitialLabels != nil:
		if len(cfg.InitialLabels) != n {
			return nil, fmt.Errorf("core: InitialLabels length %d, want %d", len(cfg.InitialLabels), n)
		}
		for i, l := range cfg.InitialLabels {
			if l < 0 || l >= cfg.K {
				return nil, fmt.Errorf("core: InitialLabels[%d] = %d out of [0, %d)", i, l, cfg.K)
			}
			labels[i] = l
		}
	case cfg.Rand != nil:
		for i := range labels {
			labels[i] = cfg.Rand.Intn(cfg.K)
		}
	default:
		return nil, errors.New("core: Config.Rand is required when InitialLabels is nil")
	}
	return labels, nil
}

// groups lists the member indices of every cluster: cluster j occupies
// order[starts[j]:starts[j+1]], ascending.
type groups struct {
	order  []int
	starts []int
	fill   []int
}

func newGroups(n, k int) *groups {
	return &groups{order: make([]int, n), starts: make([]int, k+1), fill: make([]int, k)}
}

// group rebuilds the lists from labels by counting sort.
func (g *groups) group(labels []int) {
	clear(g.starts)
	for _, l := range labels {
		g.starts[l+1]++
	}
	for j := range g.fill {
		g.starts[j+1] += g.starts[j]
		g.fill[j] = g.starts[j]
	}
	for i, l := range labels {
		g.order[g.fill[l]] = i
		g.fill[l]++
	}
}

// observeIterationTelemetry records one iteration's phase latencies into
// the global histograms, advances the current-iteration gauge, and marks
// the iteration boundary (plus the whole-iteration span) on the flight
// recorder. All sinks are gated on their own switch, so with neither
// collection nor a recorder active the call costs a few atomic loads.
// The refine and assign spans are recorded inline by the engine loop the
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
func reseedEmptyClusters(labels []int, assignDist []float64, k int) int {
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

// disableSpectrumCache is a test hook: when set, Lloyd recomputes every
// centroid spectrum and refinement each iteration (cache-cold behavior).
// The clustering output must be identical either way — only kernel-counter
// totals may differ.
var disableSpectrumCache bool
