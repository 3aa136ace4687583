package avg

import (
	"math"

	"kshape/internal/dist"
	"kshape/internal/par"
)

// DBAIterations is the number of barycenter refinement passes per Average
// call. The original DBA paper iterates to convergence; in the k-means
// context one refinement per clustering iteration suffices (the paper's
// experimental setup refines centroids "once" per run, Section 4).
const DBAIterations = 1

// DBAWorkers computes the DTW Barycenter Average of a cluster (Petitjean
// et al., referenced as the most robust DTW averaging method in Section
// 2.5). Starting from init (or the cluster medoid-ish first member when
// init is nil/zero), each pass warps every member onto the current average
// with DTW and re-estimates every coordinate as the barycenter of all
// member points mapped to it.
//
// window is the Sakoe-Chiba half-width for the alignments (negative =
// unconstrained), letting k-DBA use the same constraint as its assignment
// step. workers bounds the parallelism of the per-member alignment pass
// (par.Resolve semantics: <= 0 means runtime.NumCPU(), 1 means serial).
// The warping paths — the expensive O(m²) part — are computed in parallel,
// one slot per member, and the barycenter accumulation then runs serially
// in member order, so the average is bit-for-bit identical for every
// worker count.
func DBAWorkers(cluster [][]float64, init []float64, iterations, window, workers int) []float64 {
	if len(cluster) == 0 {
		if init == nil {
			return nil
		}
		return append([]float64(nil), init...)
	}
	m := len(cluster[0])
	avg := make([]float64, m)
	if init == nil || isAllZero(init) {
		copy(avg, cluster[0])
	} else {
		copy(avg, init)
	}
	if iterations < 1 {
		iterations = 1
	}
	sum := make([]float64, m)
	count := make([]float64, m)
	paths := make([][][2]int, len(cluster))
	for it := 0; it < iterations; it++ {
		for i := range sum {
			sum[i] = 0
			count[i] = 0
		}
		par.For(workers, len(cluster), func(i int) {
			paths[i], _ = dist.WarpingPath(avg, cluster[i], window)
		})
		for ci, x := range cluster {
			for _, p := range paths[ci] {
				sum[p[0]] += x[p[1]]
				count[p[0]]++
			}
		}
		changed := false
		for i := range avg {
			//lint:ignore floatcmp empty-bin guard; the tally is an exact integer-valued count
			if count[i] == 0 {
				continue // keep previous coordinate (cannot happen with a valid path)
			}
			next := sum[i] / count[i]
			if math.Abs(next-avg[i]) > 1e-12 {
				changed = true
			}
			avg[i] = next
		}
		if !changed {
			break
		}
	}
	return avg
}

// DBAAverager wraps DBAWorkers as a centroid function, its Average method
// (used by k-DBA). Window is the Sakoe-Chiba half-width (negative for
// unconstrained DTW, the k-DBA default); Iterations is the refinement count
// per call; Workers bounds the parallelism of the alignment pass (0 keeps
// it serial, which is the right choice inside the engine's already-parallel
// refinement step).
type DBAAverager struct {
	Window     int
	Iterations int
	Workers    int
}

// Name returns the averaging method's name.
func (DBAAverager) Name() string { return "DBA" }

// Average returns a fresh centroid of cluster. ref is the previous
// centroid and may be nil or all-zero.
func (a DBAAverager) Average(cluster [][]float64, ref []float64) []float64 {
	iters := a.Iterations
	if iters == 0 {
		iters = DBAIterations
	}
	workers := a.Workers
	if workers == 0 {
		workers = 1
	}
	return DBAWorkers(cluster, ref, iters, a.Window, workers)
}
