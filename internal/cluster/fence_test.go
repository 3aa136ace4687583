package cluster

import (
	"bufio"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"kshape/internal/avg"
	"kshape/internal/core"
	"kshape/internal/dataset"
	"kshape/internal/dist"
	"kshape/internal/testkit"
	"kshape/internal/ts"
)

// The engine output fence pins what every iterative method produces on a
// few small archive datasets: labels, iteration count, convergence flag,
// the bits of every centroid, and the final inertia. Regenerate with
//
//	go test ./internal/cluster/ -run Golden -update
//
// only after a reviewed change that is meant to move clustering output.

// fenceDatasets are small archive datasets (training split, z-normalized)
// that keep the DTW-based methods cheap.
var fenceDatasets = []string{"TinyWaves", "TinyCBF", "ShortWaves"}

var fenceSeeds = []int64{1, 2}

func fenceMethods() []Clusterer {
	return []Clusterer{
		NewKAvgED(), NewKAvgSBD(), NewKAvgDTW(), NewKDBA(), NewKSC(), NewKShapeDTW(), NewKShape(),
	}
}

// inertiaTolerance is the relative inertia difference the fence accepts
// per method; methods not listed must match bit for bit. k-AVG+SBD's
// batched and per-pair SBD agree only to the batch-vs-per-pair ε of the
// SBD oracle contract, which moves the summed squared distances but not
// the labels or the mean centroids.
var inertiaTolerance = map[string]float64{"k-AVG+SBD": 1e-9}

func prepared(t *testing.T, name string) ([][]float64, int) {
	t.Helper()
	d, ok := dataset.ArchiveByName(name)
	if !ok {
		t.Fatalf("no archive dataset %q", name)
	}
	rows := ts.Rows(d.Train)
	data := make([][]float64, len(rows))
	for i, x := range rows {
		data[i] = ts.ZNormalize(x)
	}
	return data, d.K
}

func TestGoldenEngineFence(t *testing.T) {
	const name = "engine-fence"
	pinned := pinnedInertias(t, name)
	var b strings.Builder
	for _, dsName := range fenceDatasets {
		data, k := prepared(t, dsName)
		for _, seed := range fenceSeeds {
			for _, c := range fenceMethods() {
				res, err := Run(c, data, k, rand.New(rand.NewSource(seed)), Opts{Workers: 2})
				if err != nil {
					t.Fatalf("%s seed %d %s: %v", dsName, seed, c.Name(), err)
				}
				key := fmt.Sprintf("%s seed=%d %s", dsName, seed, c.Name())
				inertia := strconv.FormatFloat(res.Inertia, 'g', -1, 64)
				if tol, ok := inertiaTolerance[c.Name()]; ok {
					if want, ok := pinned[key]; ok && relDiff(res.Inertia, want) <= tol {
						inertia = strconv.FormatFloat(want, 'g', -1, 64)
					}
				}
				fmt.Fprintf(&b, "%s: iterations=%d converged=%v inertia=%s\n", key, res.Iterations, res.Converged, inertia)
				fmt.Fprintf(&b, "  labels %s\n", labelString(res.Labels))
				for j, cen := range res.Centroids {
					fmt.Fprintf(&b, "  centroid %d len=%d bits=%016x\n", j, len(cen), bitsHash(cen))
				}
			}
		}
	}
	testkit.Golden(t, name, b.String())
}

// pinnedInertias reads the inertia of every run from the pinned snapshot
// (empty when there is none yet), so tolerated methods can be compared
// numerically instead of byte for byte.
func pinnedInertias(t *testing.T, name string) map[string]float64 {
	t.Helper()
	out := map[string]float64{}
	f, err := os.Open(filepath.Join("testdata", "golden", name+".golden"))
	if err != nil {
		return out
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		key, rest, ok := strings.Cut(sc.Text(), ": iterations=")
		if !ok {
			continue
		}
		_, v, ok := strings.Cut(rest, " inertia=")
		if !ok {
			continue
		}
		x, err := strconv.ParseFloat(v, 64)
		if err != nil {
			t.Fatalf("pinned inertia for %s: %v", key, err)
		}
		out[key] = x
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

func relDiff(a, b float64) float64 {
	d := math.Abs(a - b)
	if s := math.Max(math.Abs(a), math.Abs(b)); s > 0 {
		return d / s
	}
	return d
}

func labelString(labels []int) string {
	var b strings.Builder
	for _, l := range labels {
		b.WriteString(strconv.Itoa(l))
		b.WriteByte(' ')
	}
	return strings.TrimSuffix(b.String(), " ")
}

// bitsHash is FNV-1a over the IEEE-754 bits of x, so any bit of drift in
// a centroid changes it.
func bitsHash(x []float64) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	for _, v := range x {
		u := math.Float64bits(v)
		for i := range buf {
			buf[i] = byte(u >> (8 * i))
		}
		h.Write(buf[:])
	}
	return h.Sum64()
}

// TestKAvgSBDMatchesPerPairArchive runs k-AVG+SBD over the whole archive
// (train and test, as Table 3 does) and checks it against the same
// algorithm driven through the per-pair backend with dist.SBDDist, the
// reference implementation: labels and iteration counts must be
// identical, inertia within the batch-vs-per-pair ε.
func TestKAvgSBDMatchesPerPairArchive(t *testing.T) {
	if testing.Short() {
		t.Skip("48-dataset sweep")
	}
	for i, spec := range dataset.ArchiveSpecs() {
		d := dataset.Generate(spec)
		data := ts.Rows(d.All())
		for j, x := range data {
			data[j] = ts.ZNormalize(x)
		}
		seed := int64(i + 1)
		got, err := Run(NewKAvgSBD(), data, d.K, rand.New(rand.NewSource(seed)), Opts{Workers: 1})
		if err != nil {
			t.Fatalf("%s: %v", d.Name, err)
		}
		want, err := core.Lloyd(data, core.Config{
			K:        d.K,
			Distance: func(c, x []float64) float64 { return dist.SBDDist(c, x) },
			Centroid: avg.MeanAverager{}.Average,
			Rand:     rand.New(rand.NewSource(seed)),
			Workers:  1,
		})
		if err != nil {
			t.Fatalf("%s per-pair: %v", d.Name, err)
		}
		if got.Iterations != want.Iterations || got.Converged != want.Converged {
			t.Errorf("%s: iterations/converged %d/%v, per-pair %d/%v",
				d.Name, got.Iterations, got.Converged, want.Iterations, want.Converged)
		}
		for j := range want.Labels {
			if got.Labels[j] != want.Labels[j] {
				t.Errorf("%s: label[%d] = %d, per-pair %d", d.Name, j, got.Labels[j], want.Labels[j])
				break
			}
		}
		if r := relDiff(got.Inertia, want.Inertia); r > 1e-9 {
			t.Errorf("%s: inertia %v, per-pair %v (relative difference %g)", d.Name, got.Inertia, want.Inertia, r)
		}
	}
}
