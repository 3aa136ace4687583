package avg

import "kshape/internal/dist"

// NLAAF computes the Nonlinear Alignment and Averaging Filters average
// (Gupta et al., Section 2.5): sequences are averaged pairwise — each pair
// is DTW-aligned and the warped coordinates averaged — and the procedure is
// applied tournament-style until a single sequence remains. Averages of
// averages weight each member equally at every round, which is the method's
// known bias (and why DBA superseded it).
//
// The result is resampled back to the common length m by uniform linear
// interpolation, since pairwise DTW averaging yields paths longer than m.
func NLAAF(cluster [][]float64, window int) []float64 {
	if len(cluster) == 0 {
		return nil
	}
	level := make([][]float64, len(cluster))
	for i, x := range cluster {
		level[i] = append([]float64(nil), x...)
	}
	m := len(cluster[0])
	for len(level) > 1 {
		next := make([][]float64, 0, (len(level)+1)/2)
		for i := 0; i+1 < len(level); i += 2 {
			next = append(next, pairAverageDTW(level[i], level[i+1], window, m))
		}
		if len(level)%2 == 1 {
			next = append(next, level[len(level)-1])
		}
		level = next
	}
	return level[0]
}

// pairAverageDTW warps y onto x, averages the coupled coordinates along the
// warping path, and resamples the path-length average back to length m.
func pairAverageDTW(x, y []float64, window, m int) []float64 {
	path, _ := dist.WarpingPath(x, y, window)
	avg := make([]float64, len(path))
	for k, p := range path {
		avg[k] = (x[p[0]] + y[p[1]]) / 2
	}
	return resample(avg, m)
}

// resample linearly interpolates x onto n uniformly spaced points.
func resample(x []float64, n int) []float64 {
	if len(x) == 0 || n <= 0 {
		return nil
	}
	out := make([]float64, n)
	if len(x) == 1 {
		for i := range out {
			out[i] = x[0]
		}
		return out
	}
	if n == 1 {
		out[0] = x[0]
		return out
	}
	scale := float64(len(x)-1) / float64(n-1)
	for i := 0; i < n; i++ {
		pos := float64(i) * scale
		lo := int(pos)
		if lo >= len(x)-1 {
			out[i] = x[len(x)-1]
			continue
		}
		frac := pos - float64(lo)
		out[i] = x[lo]*(1-frac) + x[lo+1]*frac
	}
	return out
}

// NLAAFAverager wraps NLAAF as a centroid function, its Average method.
type NLAAFAverager struct {
	Window int
}

// Name returns the averaging method's name.
func (NLAAFAverager) Name() string { return "NLAAF" }

// Average returns a fresh centroid of cluster. ref is the previous
// centroid and may be nil or all-zero.
func (a NLAAFAverager) Average(cluster [][]float64, ref []float64) []float64 {
	out := NLAAF(cluster, a.Window)
	if out == nil && ref != nil {
		out = make([]float64, len(ref))
	}
	return out
}
