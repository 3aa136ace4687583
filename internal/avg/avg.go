// Package avg implements the time-series averaging techniques surveyed in
// Section 2.5 of the k-Shape paper — arithmetic mean, NLAAF, PSA, DBA, and
// the KSC spectral centroid — plus the paper's own contribution, shape
// extraction (Section 3.2, Algorithm 2), which computes the centroid as the
// dominant eigenvector of a centered Gram matrix of SBD-aligned sequences.
package avg

// Mean computes the coordinate-wise arithmetic mean of the cluster — the
// k-means centroid under Euclidean distance (Section 2.1, "arithmetic mean
// property"). It returns a zero series of length len(ref) for an empty
// cluster (or nil if ref is also nil).
func Mean(cluster [][]float64) []float64 {
	if len(cluster) == 0 {
		return nil
	}
	m := len(cluster[0])
	out := make([]float64, m)
	for _, x := range cluster {
		for i, v := range x {
			out[i] += v
		}
	}
	inv := 1.0 / float64(len(cluster))
	for i := range out {
		out[i] *= inv
	}
	return out
}

// MeanAverager wraps Mean as a centroid function, its Average method
// (used by the k-AVG variants).
type MeanAverager struct{}

// Name returns the averaging method's name.
func (MeanAverager) Name() string { return "Mean" }

// Average returns a fresh centroid of cluster. ref is the previous
// centroid and may be nil or all-zero.
func (MeanAverager) Average(cluster [][]float64, ref []float64) []float64 {
	out := Mean(cluster)
	if out == nil && ref != nil {
		out = make([]float64, len(ref))
	}
	return out
}
