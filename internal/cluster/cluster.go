// Package cluster implements every clustering baseline of the k-Shape
// paper's evaluation (Section 4, Table 1): the scalable k-means family
// (k-AVG+ED, k-AVG+SBD, k-AVG+DTW, k-DBA, KSC) and the non-scalable methods
// that require a full dissimilarity matrix — PAM (k-medoids), agglomerative
// hierarchical clustering with single/average/complete linkage, and
// normalized spectral clustering — each combinable with ED, cDTW, or SBD.
package cluster

import (
	"log/slog"
	"math/rand"

	"kshape/internal/avg"
	"kshape/internal/core"
	"kshape/internal/dist"
	"kshape/internal/obs"
)

// Clusterer partitions equal-length series into k clusters.
type Clusterer interface {
	// Name returns the identifier used in experiment tables
	// (e.g. "k-AVG+ED", "PAM+cDTW", "H-S+SBD").
	Name() string
	// Cluster partitions data into k clusters. rng drives random
	// initialization; deterministic methods ignore it.
	Cluster(data [][]float64, k int, rng *rand.Rand) (*core.Result, error)
	// Deterministic reports whether repeated runs with different seeds
	// produce identical results (true for hierarchical clustering), which
	// the experiment harness uses to decide how many runs to average.
	Deterministic() bool
}

// Opts carries engine-level controls for clusterers built on the iterative
// refinement engine: the iteration cap and the per-iteration observation
// hook. The zero value means "engine defaults, no observation".
type Opts struct {
	// MaxIterations caps the refinement loop; 0 means the engine default.
	MaxIterations int
	// OnIteration, if non-nil, receives per-iteration statistics
	// (core.Config.OnIteration semantics).
	OnIteration func(obs.IterationStats)
	// Workers bounds the clusterer's parallelism (core.Config.Workers
	// semantics: <= 0 means runtime.NumCPU(), 1 means serial). Results
	// are identical for every value.
	Workers int
	// Logger, if non-nil, receives structured per-iteration records at
	// debug level (core.Config.Logger semantics). Non-iterative methods
	// ignore it.
	Logger *slog.Logger
}

// Iterative is implemented by clusterers whose refinement loop accepts
// engine options. Every Lloyd-style method in this package implements it;
// matrix-based methods (hierarchical, PAM, spectral) do not iterate and
// ignore these controls.
type Iterative interface {
	ClusterOpts(data [][]float64, k int, rng *rand.Rand, opt Opts) (*core.Result, error)
}

// Run clusters data with c, threading opt through when c supports engine
// options. This is the single dispatch point callers should use so that
// instrumentation hooks fire uniformly across methods; for non-iterative
// methods the options are (correctly) inert and OnIteration never fires.
func Run(c Clusterer, data [][]float64, k int, rng *rand.Rand, opt Opts) (*core.Result, error) {
	// Annotate the flight-recorder event stream with the method boundary
	// so a run report's chunk/phase spans can be mapped back to the
	// algorithm that produced them (no-op without an active recorder).
	obs.RecordMark("method:" + c.Name())
	// Bracket the run for the live-progress publisher (no-op without one):
	// the engine publishes the per-iteration snapshots in between.
	maxIter := opt.MaxIterations
	if maxIter <= 0 {
		maxIter = core.DefaultMaxIterations
	}
	obs.ProgressBeginRun(c.Name(), len(data), k, maxIter)
	res, err := func() (*core.Result, error) {
		if it, ok := c.(Iterative); ok {
			return it.ClusterOpts(data, k, rng, opt)
		}
		return c.Cluster(data, k, rng)
	}()
	if err == nil {
		obs.ProgressEndRun(res.Converged)
	}
	return res, err
}

// kmeansVariant is a Lloyd-style clusterer with pluggable distance and
// centroid computation — the template every scalable baseline shares. A
// nil distance assigns with batched SBD and a nil centroid refines with
// shape extraction (core.Config semantics), so the method picks the
// engine's backend.
type kmeansVariant struct {
	label    string
	distance core.DistanceFunc
	centroid core.CentroidFunc
}

// Name implements Clusterer.
func (v kmeansVariant) Name() string { return v.label }

// Deterministic implements Clusterer.
func (v kmeansVariant) Deterministic() bool { return false }

// Cluster implements Clusterer.
func (v kmeansVariant) Cluster(data [][]float64, k int, rng *rand.Rand) (*core.Result, error) {
	return v.ClusterOpts(data, k, rng, Opts{})
}

// ClusterOpts implements Iterative.
func (v kmeansVariant) ClusterOpts(data [][]float64, k int, rng *rand.Rand, opt Opts) (*core.Result, error) {
	return core.Lloyd(data, core.Config{
		K:             k,
		MaxIterations: opt.MaxIterations,
		Distance:      v.distance,
		Centroid:      v.centroid,
		Rand:          rng,
		OnIteration:   opt.OnIteration,
		Workers:       opt.Workers,
		Logger:        opt.Logger,
	})
}

// NewKAvgED returns k-means with Euclidean distance and arithmetic-mean
// centroids — the paper's robust scalable baseline, k-AVG+ED.
func NewKAvgED() Clusterer {
	return kmeansVariant{
		label:    "k-AVG+ED",
		distance: func(c, x []float64) float64 { return dist.ED(c, x) },
		centroid: avg.MeanAverager{}.Average,
	}
}

// NewKAvgSBD returns k-means with SBD assignment but arithmetic-mean
// centroids (k-AVG+SBD in Table 3): a deliberately inadequate pairing that
// shows replacing only the distance measure does not beat k-AVG+ED. It
// assigns on the engine's batched SBD backend, like k-Shape.
func NewKAvgSBD() Clusterer {
	return kmeansVariant{label: "k-AVG+SBD", centroid: avg.MeanAverager{}.Average}
}

// NewKAvgDTW returns k-means with DTW assignment and arithmetic-mean
// centroids (k-AVG+DTW in Table 3).
func NewKAvgDTW() Clusterer {
	return kmeansVariant{
		label:    "k-AVG+DTW",
		distance: func(c, x []float64) float64 { return dist.DTW(c, x) },
		centroid: avg.MeanAverager{}.Average,
	}
}

// NewKDBA returns the k-DBA baseline: DTW assignment with DBA centroid
// refinement (Petitjean et al.), the most robust prior k-means adaptation
// for DTW per Section 2.5.
func NewKDBA() Clusterer {
	a := avg.DBAAverager{Window: -1}
	return kmeansVariant{
		label:    "k-DBA",
		distance: func(c, x []float64) float64 { return dist.DTW(c, x) },
		centroid: a.Average,
	}
}

// NewKSC returns the K-Spectral Centroid baseline (Yang & Leskovec): the
// pairwise scale-and-shift distance with the matrix-decomposition centroid.
func NewKSC() Clusterer {
	return kmeansVariant{
		label: "KSC",
		distance: func(c, x []float64) float64 {
			d, _ := avg.KSCDistance(x, c) // KSC distance normalizes by the data series
			return d
		},
		centroid: avg.KSCCentroid,
	}
}

// NewKShape returns the paper's k-Shape algorithm as a Clusterer: batched
// SBD assignment with shape-extraction refinement (core.KShape).
func NewKShape() Clusterer { return kmeansVariant{label: "k-Shape"} }

// NewKShapeDTW returns the k-Shape+DTW ablation of Table 3: shape
// extraction for centroids but DTW for assignment, demonstrating that
// mismatched distance/centroid pairs degrade accuracy.
func NewKShapeDTW() Clusterer {
	return kmeansVariant{
		label:    "k-Shape+DTW",
		distance: func(c, x []float64) float64 { return dist.DTW(c, x) },
		centroid: avg.ShapeExtraction,
	}
}
