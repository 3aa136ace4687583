package avg

import (
	"math"
	"math/rand"
	"testing"

	"kshape/internal/dist"
	"kshape/internal/ts"
)

func randCluster(n, m int, rng *rand.Rand) [][]float64 {
	out := make([][]float64, n)
	for i := range out {
		out[i] = make([]float64, m)
		for j := range out[i] {
			out[i][j] = rng.NormFloat64()
		}
	}
	return out
}

// sineCluster builds n noisy, randomly shifted copies of a sine prototype —
// the "similar but out of phase" regime that shape extraction targets.
func sineCluster(n, m int, maxShift int, noise float64, rng *rand.Rand) ([][]float64, []float64) {
	proto := make([]float64, m)
	for i := range proto {
		proto[i] = math.Sin(4 * math.Pi * float64(i) / float64(m))
	}
	out := make([][]float64, n)
	for i := range out {
		s := rng.Intn(2*maxShift+1) - maxShift
		x := ts.Shift(proto, s)
		for j := range x {
			x[j] += noise * rng.NormFloat64()
		}
		out[i] = ts.ZNormalize(x)
	}
	return out, ts.ZNormalize(proto)
}

func TestMean(t *testing.T) {
	c := [][]float64{{1, 2}, {3, 4}}
	got := Mean(c)
	if got[0] != 2 || got[1] != 3 {
		t.Errorf("Mean = %v", got)
	}
	if Mean(nil) != nil {
		t.Error("Mean of empty should be nil")
	}
}

func TestMeanAveragerEmptyClusterUsesRefLength(t *testing.T) {
	out := MeanAverager{}.Average(nil, make([]float64, 5))
	if len(out) != 5 {
		t.Errorf("len = %d, want 5", len(out))
	}
}

func TestMeanMinimizesSquaredED(t *testing.T) {
	// The arithmetic mean is the Steiner point under ED (Section 2.1).
	rng := rand.New(rand.NewSource(1))
	c := randCluster(10, 8, rng)
	mean := Mean(c)
	obj := func(w []float64) float64 {
		s := 0.0
		for _, x := range c {
			s += dist.SquaredED(w, x)
		}
		return s
	}
	base := obj(mean)
	for trial := 0; trial < 20; trial++ {
		w := append([]float64(nil), mean...)
		w[rng.Intn(len(w))] += 0.1 * rng.NormFloat64()
		if obj(w) < base-1e-9 {
			t.Fatalf("perturbation beats the mean: %v < %v", obj(w), base)
		}
	}
}

func TestShapeExtractionRecoversPrototype(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	cluster, proto := sineCluster(30, 64, 6, 0.1, rng)
	cen := ShapeExtraction(cluster, proto)
	// The extracted shape should be very close (under SBD) to the prototype.
	d, _ := dist.SBD(proto, cen)
	if d > 0.05 {
		t.Errorf("SBD(prototype, extracted) = %v, want < 0.05", d)
	}
	if !ts.IsZNormalized(cen, 1e-6) {
		t.Error("centroid not z-normalized")
	}
}

func TestShapeExtractionBeatsMeanOnShiftedData(t *testing.T) {
	// With random shifts, the arithmetic mean smears the shape; shape
	// extraction should stay closer to the prototype (Figure 4's point).
	rng := rand.New(rand.NewSource(3))
	cluster, proto := sineCluster(40, 64, 10, 0.05, rng)
	cen := ShapeExtraction(cluster, proto)
	mean := ts.ZNormalize(Mean(cluster))
	dShape, _ := dist.SBD(proto, cen)
	dMean, _ := dist.SBD(proto, mean)
	if dShape >= dMean {
		t.Errorf("shape extraction (%v) should beat arithmetic mean (%v) on shifted data", dShape, dMean)
	}
}

func TestShapeExtractionEmptyCluster(t *testing.T) {
	if got := ShapeExtraction(nil, nil); got != nil {
		t.Errorf("empty cluster, nil ref: %v", got)
	}
	got := ShapeExtraction(nil, make([]float64, 4))
	if len(got) != 4 {
		t.Errorf("empty cluster with ref: len %d", len(got))
	}
}

func TestShapeExtractionSingleMember(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	x := ts.ZNormalize(randSeriesAvg(32, rng))
	cen := ShapeExtraction([][]float64{x}, nil)
	d, _ := dist.SBD(x, cen)
	if d > 1e-6 {
		t.Errorf("single-member centroid should equal the member (SBD %v)", d)
	}
}

func TestShapeExtractionZeroRefSkipsAlignment(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	cluster, _ := sineCluster(10, 32, 3, 0.1, rng)
	a := ShapeExtraction(cluster, nil)
	b := ShapeExtraction(cluster, make([]float64, 32))
	for i := range a {
		if math.Abs(a[i]-b[i]) > 1e-12 {
			t.Fatal("nil ref and zero ref should behave identically")
		}
	}
}

func TestShapeAveragerInterface(t *testing.T) {
	a := ShapeAverager{}
	if a.Name() != "ShapeExtraction" {
		t.Errorf("Name = %q", a.Name())
	}
}

func randSeriesAvg(m int, rng *rand.Rand) []float64 {
	x := make([]float64, m)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	return x
}

func TestDBAConvergesToPrototypeUnderWarping(t *testing.T) {
	// Members are time-warped versions of a prototype; DBA should land near
	// the prototype in DTW distance.
	rng := rand.New(rand.NewSource(6))
	m := 48
	proto := make([]float64, m)
	for i := range proto {
		proto[i] = math.Sin(2 * math.Pi * float64(i) / float64(m))
	}
	cluster := make([][]float64, 15)
	for i := range cluster {
		x := make([]float64, m)
		for j := range x {
			// Local non-linear warp: jittered sampling position.
			pos := float64(j) + 2*rng.Float64() - 1
			if pos < 0 {
				pos = 0
			}
			if pos > float64(m-1) {
				pos = float64(m - 1)
			}
			lo := int(pos)
			frac := pos - float64(lo)
			hi := lo
			if lo < m-1 {
				hi = lo + 1
			}
			x[j] = proto[lo]*(1-frac) + proto[hi]*frac + 0.05*rng.NormFloat64()
		}
		cluster[i] = x
	}
	got := DBAWorkers(cluster, nil, 5, -1, 1)
	if d := dist.DTW(proto, got); d > 1.0 {
		t.Errorf("DTW(proto, DBA) = %v, want < 1.0", d)
	}
	// DBA should beat the plain arithmetic mean under the DTW objective.
	mean := Mean(cluster)
	objDBA, objMean := 0.0, 0.0
	for _, x := range cluster {
		dd := dist.DTW(got, x)
		objDBA += dd * dd
		dm := dist.DTW(mean, x)
		objMean += dm * dm
	}
	if objDBA > objMean {
		t.Errorf("DBA objective %v worse than mean objective %v", objDBA, objMean)
	}
}

func TestDBAEmptyAndInit(t *testing.T) {
	if DBAWorkers(nil, nil, 1, -1, 1) != nil {
		t.Error("empty cluster, nil init should give nil")
	}
	init := []float64{1, 2, 3}
	got := DBAWorkers(nil, init, 1, -1, 1)
	if len(got) != 3 || &got[0] == &init[0] {
		t.Error("empty cluster should copy init")
	}
}

func TestDBAIdenticalMembersFixedPoint(t *testing.T) {
	x := []float64{0, 1, 0, -1, 0}
	cluster := [][]float64{x, x, x}
	got := DBAWorkers(cluster, nil, 3, -1, 1)
	for i := range x {
		if math.Abs(got[i]-x[i]) > 1e-9 {
			t.Fatalf("DBA of identical members = %v, want %v", got, x)
		}
	}
}

func TestDBAAveragerDefaults(t *testing.T) {
	a := DBAAverager{Window: -1}
	if a.Name() != "DBA" {
		t.Errorf("Name = %q", a.Name())
	}
	got := a.Average([][]float64{{1, 2}, {3, 4}}, nil)
	if len(got) != 2 {
		t.Errorf("len = %d", len(got))
	}
}

func TestNLAAFBasic(t *testing.T) {
	x := []float64{0, 1, 2, 3}
	cluster := [][]float64{x, x, x, x}
	got := NLAAF(cluster, -1)
	if len(got) != 4 {
		t.Fatalf("len = %d", len(got))
	}
	for i := range x {
		if math.Abs(got[i]-x[i]) > 1e-9 {
			t.Fatalf("NLAAF of identical members = %v", got)
		}
	}
	if NLAAF(nil, -1) != nil {
		t.Error("empty cluster should give nil")
	}
}

func TestNLAAFOddCount(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	cluster := randCluster(5, 16, rng)
	got := NLAAF(cluster, -1)
	if len(got) != 16 {
		t.Errorf("len = %d, want 16", len(got))
	}
}

func TestPSAWeightsReduceOrderBias(t *testing.T) {
	// Identical members: PSA must also be an exact fixed point.
	x := []float64{0, 2, 1, -1}
	got := PSA([][]float64{x, x, x}, -1)
	for i := range x {
		if math.Abs(got[i]-x[i]) > 1e-9 {
			t.Fatalf("PSA of identical members = %v", got)
		}
	}
}

func TestPSAAndNLAAFAveragers(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	cluster := randCluster(6, 20, rng)
	if out := (NLAAFAverager{Window: -1}).Average(cluster, nil); len(out) != 20 {
		t.Errorf("NLAAF: len = %d", len(out))
	}
	if out := (PSAAverager{Window: -1}).Average(cluster, nil); len(out) != 20 {
		t.Errorf("PSA: len = %d", len(out))
	}
	if (NLAAFAverager{}).Name() != "NLAAF" || (PSAAverager{}).Name() != "PSA" {
		t.Error("names wrong")
	}
	if out := (PSAAverager{}).Average(nil, make([]float64, 3)); len(out) != 3 {
		t.Error("PSA empty-cluster fallback")
	}
	if out := (NLAAFAverager{}).Average(nil, make([]float64, 3)); len(out) != 3 {
		t.Error("NLAAF empty-cluster fallback")
	}
}

func TestResample(t *testing.T) {
	got := resample([]float64{0, 1, 2, 3}, 7)
	want := []float64{0, 0.5, 1, 1.5, 2, 2.5, 3}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-12 {
			t.Fatalf("resample = %v, want %v", got, want)
		}
	}
	if got := resample([]float64{5}, 3); got[0] != 5 || got[2] != 5 {
		t.Errorf("constant resample = %v", got)
	}
	if resample(nil, 3) != nil {
		t.Error("empty resample")
	}
	if got := resample([]float64{1, 2}, 1); got[0] != 1 {
		t.Errorf("n=1 resample = %v", got)
	}
}

func TestKSCDistanceScaleInvariance(t *testing.T) {
	// d(x, a*x) == 0 for any positive scale a: the pairwise scaling
	// invariance KSC offers.
	rng := rand.New(rand.NewSource(9))
	x := randSeriesAvg(40, rng)
	y := ts.Scale(x, 3.5)
	d, aligned := KSCDistance(x, y)
	if d > 1e-9 {
		t.Errorf("KSC distance to scaled copy = %v", d)
	}
	for i := range x {
		if math.Abs(aligned[i]-x[i]) > 1e-9 {
			t.Errorf("aligned+scaled copy diverges at %d", i)
			break
		}
	}
}

func TestKSCDistanceShiftInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	x := randSeriesAvg(64, rng)
	y := ts.Shift(x, 5)
	d, _ := KSCDistance(x, y)
	// Zero padding costs a little mass at the boundary; distance stays small.
	if d > 0.35 {
		t.Errorf("KSC distance to shifted copy = %v", d)
	}
	dSelf, _ := KSCDistance(x, x)
	if dSelf > 1e-12 {
		t.Errorf("self distance = %v", dSelf)
	}
}

func TestKSCDistanceDegenerate(t *testing.T) {
	d, aligned := KSCDistance([]float64{0, 0, 0}, []float64{1, 2, 3})
	if d != 1 {
		t.Errorf("zero query distance = %v, want 1", d)
	}
	if len(aligned) != 3 {
		t.Errorf("aligned len = %d", len(aligned))
	}
	if d, _ := KSCDistance(nil, nil); d != 0 {
		t.Errorf("empty distance = %v", d)
	}
}

func TestKSCCentroidRecoversPrototype(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	cluster, proto := sineCluster(25, 48, 4, 0.1, rng)
	cen := KSCCentroid(cluster, proto)
	d, _ := dist.SBD(proto, cen)
	if d > 0.05 {
		t.Errorf("SBD(proto, KSC centroid) = %v", d)
	}
	if !ts.IsZNormalized(cen, 1e-6) {
		t.Error("KSC centroid not z-normalized")
	}
}

func TestKSCCentroidEmpty(t *testing.T) {
	if KSCCentroid(nil, nil) != nil {
		t.Error("empty cluster, nil ref")
	}
	if got := KSCCentroid(nil, make([]float64, 4)); len(got) != 4 {
		t.Error("empty cluster with ref")
	}
	// All-zero members: centroid must stay defined.
	got := KSCCentroid([][]float64{make([]float64, 4)}, nil)
	if len(got) != 4 {
		t.Errorf("zero-member centroid len = %d", len(got))
	}
}

func TestKSCAveragerInterface(t *testing.T) {
	a := KSCAverager{}
	if a.Name() != "KSC" {
		t.Errorf("Name = %q", a.Name())
	}
}
