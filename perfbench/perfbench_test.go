package main

import (
	"encoding/json"
	"math/rand"
	"os"
	"sort"
	"testing"

	"kshape"
	"kshape/internal/dataset"
)

func TestPercentileNeedsTenBeyond(t *testing.T) {
	samples := make([]float64, 100)
	for i := range samples {
		samples[i] = float64(100 - i) // 100..1, unsorted on purpose
	}
	for _, c := range []struct{ p, want float64 }{{50, 50}, {90, 90}} {
		got, err := percentile(samples, c.p)
		if err != nil || got != c.want {
			t.Errorf("p%g of 1..100 = %v, %v; want %v", c.p, got, err, c.want)
		}
	}
	if samples[0] != 100 {
		t.Errorf("percentile reordered its input")
	}
	// 99 samples leave only 9 above the nearest-rank p90 (rank 90).
	if _, err := percentile(samples[:99], 90); err == nil {
		t.Errorf("p90 of 99 samples: want an error, fewer than %d samples beyond", minBeyond)
	}
	if _, err := percentile(nil, 50); err == nil {
		t.Errorf("p50 of no samples: want an error")
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median(3,1,2) = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median(4,1,3,2) = %v", got)
	}
}

func TestSelfTimes(t *testing.T) {
	// Frames root(100) ⊃ a(60) ⊃ group g(25, 3 calls); root ⊃ call b(30).
	spans := []span{
		{id: 0, parent: -1, name: "kshape.Cluster", frame: true, busy: 100, calls: 1},
		{id: 1, parent: 0, name: "core.refine", frame: true, busy: 60, calls: 1},
		{id: 2, parent: 1, name: "dist.DistanceScratch", busy: 25, calls: 3},
		{id: 3, parent: 0, name: "cluster.Run", busy: 30, calls: 1},
	}
	self := selfTimes(spans)
	want := []int64{10, 35, 25, 30}
	var calls, frames int64
	for i := range want {
		if self[i] != want[i] {
			t.Errorf("self[%d] = %d, want %d", i, self[i], want[i])
		}
		if spans[i].frame {
			frames += self[i]
		} else {
			calls += self[i]
		}
	}
	if frames != 45 || calls+frames != spans[0].busy {
		t.Errorf("layer calls %d + unattributed %d, want 55 + 45 = the root's %d", calls, frames, spans[0].busy)
	}
}

func TestTracerSpansNestAndPause(t *testing.T) {
	tr := newTracer()
	root := tr.begin("job")
	child := tr.begin("core.refine")
	g := tr.group("dist.DistanceScratch")
	for i := 0; i < 3; i++ {
		tr.add(g, tr.now())
	}
	p := tr.pause()
	busyWork(2e6)
	tr.resume(p)
	tr.end(child)
	tr.end(root)

	s := tr.spans
	if s[child].parent != root || s[g].parent != child || s[root].parent != -1 {
		t.Fatalf("parents: %+v", s)
	}
	if s[g].calls != 3 || s[g].busy > s[child].busy || s[child].busy > s[root].busy {
		t.Errorf("group %+v inside child %+v inside root %+v", s[g], s[child], s[root])
	}
	if s[root].busy >= 2e6 {
		t.Errorf("root busy %dns includes the paused interval", s[root].busy)
	}
	var sum int64
	for _, v := range selfTimes(s) {
		sum += v
	}
	if sum != s[root].busy {
		t.Errorf("self times sum to %d, want %d", sum, s[root].busy)
	}
}

// busyWork spins for about ns nanoseconds of wall time.
func busyWork(ns int64) {
	tr := newTracer()
	for tr.now() < ns {
	}
}

func TestReplayMatchesCluster(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	jobs := cbfJobs(2, 30, 64, 3)(rng)
	d, ok := dataset.ArchiveByName("Freq2v3")
	if !ok {
		t.Fatal("archive has no Freq2v3")
	}
	data, truth := split(d.All())
	for _, method := range []string{methodKAvgED, methodKAvgSBD, methodKShape} {
		jobs = append(jobs, &job{dataset: d.Name, method: method, k: d.K, seed: 5, data: data, truth: truth})
	}
	rp := &replayer{t: newTracer()} // samples the 1st extraction
	for _, j := range jobs {
		want, err := kshape.Cluster(j.data, j.k, kshape.Options{Method: j.method, Seed: j.seed, Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		got, err := rp.cluster(j)
		if err != nil {
			t.Fatal(err)
		}
		if !sameClustering(got.labels, want.Labels, got.centroids, want.Centroids) || got.iterations != want.Iterations {
			t.Errorf("%s on %s: replay differs from kshape.Cluster", j.method, j.dataset)
		}
	}
	if len(rp.samples) == 0 {
		t.Fatal("no extraction was sampled")
	}
	for i, s := range rp.samples {
		if !s.match {
			t.Errorf("sample %d: linalg re-run differs from avg.ShapeExtractionAligned", i)
		}
	}

	// The replayed job time splits into layer calls and unattributed
	// frame time, and neither part is empty.
	spans := rp.t.spans
	var roots, calls, frames int64
	for i, v := range selfTimes(spans) {
		if spans[i].parent < 0 {
			roots += spans[i].busy
		}
		if spans[i].frame {
			frames += v
		} else {
			calls += v
		}
	}
	if calls <= 0 || frames <= 0 || calls+frames != roots {
		t.Errorf("layer calls %dns + unattributed %dns, want both > 0 and summing to the job time %dns", calls, frames, roots)
	}
}

// benchmarkJSON is the part of BENCHMARK.json the benchmark must agree with.
type benchmarkJSON struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func TestMetricNamesMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	var ours []string
	for _, w := range workloads {
		ours = append(ours, w.name)
	}
	if !equalSorted(names, ours) {
		t.Errorf("BENCHMARK.json workloads %v, benchmark has %v", names, ours)
	}

	// A small workload that still needs every code path: 100 jobs for the
	// p90, and all three methods for the per-layer metrics.
	small := workload{name: "small", traceMinJobs: 3, warmup: cbfWarmup(12, 16, 2), jobs: func(rng *rand.Rand) []*job {
		jobs := cbfJobs(98, 12, 16, 2)(rng)
		data, truth := split(dataset.CBF(12, 16, 3))
		for _, m := range []string{methodKAvgED, methodKAvgSBD} {
			jobs = append(jobs, &job{dataset: "CBF", method: m, k: 2, seed: 1, data: data, truth: truth})
		}
		rng.Shuffle(len(jobs), func(a, b int) { jobs[a], jobs[b] = jobs[b], jobs[a] })
		return jobs
	}}
	e2e, err := runEndToEnd(small, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	small.traceMinJobs = 100
	traced, err := runTraced(small, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		what string
		want []struct{ Name, Unit string }
		got  *report
	}{{"end_to_end", b.EndToEnd, e2e}, {"per_layer", b.PerLayer, traced}} {
		if c.got.failed != 0 {
			t.Errorf("%s run: %d of %d jobs failed", c.what, c.got.failed, c.got.attempted)
		}
		want := map[string]string{}
		for _, m := range c.want {
			want[m.Name] = m.Unit
		}
		got := map[string]string{}
		for _, m := range c.got.metrics {
			got[m.name] = m.unit
		}
		for name, unit := range want {
			if u, ok := got[name]; !ok || u != unit {
				t.Errorf("%s metric %s [%s] in BENCHMARK.json: benchmark prints %q, %v", c.what, name, unit, u, ok)
			}
		}
		for name := range got {
			if _, ok := want[name]; !ok {
				t.Errorf("%s metric %s is printed but not in BENCHMARK.json", c.what, name)
			}
		}
	}
}

func equalSorted(a, b []string) bool {
	a, b = append([]string(nil), a...), append([]string(nil), b...)
	sort.Strings(a)
	sort.Strings(b)
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
