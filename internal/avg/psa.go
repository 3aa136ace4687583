package avg

import "kshape/internal/dist"

// PSA computes the Prioritized Shape Averaging average (Niennattrakul &
// Ratanamahatana, Section 2.5). Like NLAAF it averages hierarchically under
// DTW, but each intermediate average carries a weight equal to the number of
// original sequences it summarizes, and coupled coordinates are combined as
// the weighted center — removing NLAAF's equal-weight bias.
//
// The full PSA builds the merge order from a hierarchical clustering of the
// members; we use the same deterministic sequential pairing as our NLAAF so
// the two methods differ only in the weighting, which is the property the
// survey in Section 2.5 attributes to PSA.
func PSA(cluster [][]float64, window int) []float64 {
	if len(cluster) == 0 {
		return nil
	}
	m := len(cluster[0])
	type weighted struct {
		seq []float64
		w   float64
	}
	level := make([]weighted, len(cluster))
	for i, x := range cluster {
		level[i] = weighted{seq: append([]float64(nil), x...), w: 1}
	}
	for len(level) > 1 {
		next := make([]weighted, 0, (len(level)+1)/2)
		for i := 0; i+1 < len(level); i += 2 {
			a, b := level[i], level[i+1]
			path, _ := dist.WarpingPath(a.seq, b.seq, window)
			avgPath := make([]float64, len(path))
			for k, p := range path {
				avgPath[k] = (a.w*a.seq[p[0]] + b.w*b.seq[p[1]]) / (a.w + b.w)
			}
			next = append(next, weighted{seq: resample(avgPath, m), w: a.w + b.w})
		}
		if len(level)%2 == 1 {
			next = append(next, level[len(level)-1])
		}
		level = next
	}
	return level[0].seq
}

// PSAAverager wraps PSA as a centroid function, its Average method.
type PSAAverager struct {
	Window int
}

// Name returns the averaging method's name.
func (PSAAverager) Name() string { return "PSA" }

// Average returns a fresh centroid of cluster. ref is the previous
// centroid and may be nil or all-zero.
func (a PSAAverager) Average(cluster [][]float64, ref []float64) []float64 {
	out := PSA(cluster, a.Window)
	if out == nil && ref != nil {
		out = make([]float64, len(ref))
	}
	return out
}
