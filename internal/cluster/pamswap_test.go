package cluster

import (
	"math"
	"math/rand"
	"testing"

	"kshape/internal/dist"
)

// blobMatrix builds an ED dissimilarity matrix over three well-separated
// 1-D blobs, returning the matrix and the true labels.
func blobMatrix(perBlob int, rng *rand.Rand) ([][]float64, []int) {
	var pts []float64
	var truth []int
	for b := 0; b < 3; b++ {
		center := float64(b) * 100
		for i := 0; i < perBlob; i++ {
			pts = append(pts, center+rng.NormFloat64())
			truth = append(truth, b)
		}
	}
	n := len(pts)
	d := make([][]float64, n)
	for i := range d {
		d[i] = make([]float64, n)
		for j := range d[i] {
			d[i][j] = math.Abs(pts[i] - pts[j])
		}
	}
	return d, truth
}

func TestBuildSwapFindsBlobs(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	d, truth := blobMatrix(10, rng)
	medoids, cost := BuildSwap(d, 3)
	if len(medoids) != 3 {
		t.Fatalf("medoids = %v", medoids)
	}
	labels := assignToMedoids(d, medoids)
	if p := purity(labels, truth, 3); p != 1 {
		t.Errorf("purity = %v, want 1 on separated blobs", p)
	}
	if cost <= 0 {
		t.Errorf("cost = %v", cost)
	}
	// Each medoid must come from a distinct blob.
	seen := map[int]bool{}
	for _, m := range medoids {
		seen[truth[m]] = true
	}
	if len(seen) != 3 {
		t.Errorf("medoids %v do not cover all blobs", medoids)
	}
}

func TestBuildSwapDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	d, _ := blobMatrix(8, rng)
	m1, c1 := BuildSwap(d, 3)
	m2, c2 := BuildSwap(d, 3)
	if c1 != c2 {
		t.Errorf("costs differ: %v vs %v", c1, c2)
	}
	for i := range m1 {
		if m1[i] != m2[i] {
			t.Fatalf("medoids differ: %v vs %v", m1, m2)
		}
	}
}

func TestBuildSwapNeverWorseThanAlternating(t *testing.T) {
	// BUILD+SWAP is a strictly stronger local search, so its final cost
	// must not exceed the best alternating k-medoids run across seeds.
	rng := rand.New(rand.NewSource(3))
	data, _ := threeBlobs(8, 16, rng)
	d := dist.PairwiseMatrix(dist.EDMeasure{}, data)
	_, swapCost := BuildSwap(d, 3)
	p := NewPAM(dist.EDMeasure{})
	bestAlt := math.Inf(1)
	for seed := int64(0); seed < 5; seed++ {
		res, err := p.ClusterWithMatrix(data, d, 3, rand.New(rand.NewSource(seed)))
		if err != nil {
			t.Fatal(err)
		}
		if cost := medoidCost(d, res.Labels, 3); cost < bestAlt {
			bestAlt = cost
		}
	}
	if swapCost > bestAlt+1e-9 {
		t.Errorf("BUILD+SWAP cost %v worse than alternating best %v", swapCost, bestAlt)
	}
}

// medoidCost computes the k-medoids objective of a labeling: for each
// cluster, the best member is elected medoid and members pay their distance
// to it.
func medoidCost(d [][]float64, labels []int, k int) float64 {
	total := 0.0
	for c := 0; c < k; c++ {
		var members []int
		for i, l := range labels {
			if l == c {
				members = append(members, i)
			}
		}
		if len(members) == 0 {
			continue
		}
		best := math.Inf(1)
		for _, cand := range members {
			cost := 0.0
			for _, m := range members {
				cost += d[cand][m]
			}
			if cost < best {
				best = cost
			}
		}
		total += best
	}
	return total
}

func TestBuildSwapPanicsOnBadK(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	BuildSwap([][]float64{{0}}, 2)
}

func TestBuildSwapKEqualsN(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	d, _ := blobMatrix(2, rng)
	medoids, cost := BuildSwap(d, len(d))
	if len(medoids) != len(d) {
		t.Fatalf("medoids = %d", len(medoids))
	}
	if cost != 0 {
		t.Errorf("k=n cost = %v, want 0", cost)
	}
}

// assignToMedoids labels every point with the index (in medoids) of its
// nearest medoid.
func assignToMedoids(d [][]float64, medoids []int) []int {
	labels := make([]int, len(d))
	for i := range d {
		best, bestJ := math.Inf(1), 0
		for j, m := range medoids {
			if d[i][m] < best {
				best, bestJ = d[i][m], j
			}
		}
		labels[i] = bestJ
	}
	return labels
}
