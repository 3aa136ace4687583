package main

import (
	"fmt"
	"math/rand"

	"kshape/internal/dataset"
	"kshape/internal/ts"
)

// job is one kshape.Cluster call of a workload's fixed job list.
type job struct {
	dataset string
	method  string // kshape.Options.Method
	k       int
	seed    int64 // kshape.Options.Seed: the random initial assignment
	maxIter int   // kshape.Options.MaxIterations (0: the default 100)
	data    [][]float64
	truth   []int
}

func (j *job) n() int { return len(j.data) }
func (j *job) m() int { return len(j.data[0]) }

// workload is a named, seeded job list.
type workload struct {
	name string
	// jobs builds the job list; every job draws its own data seed and
	// init seed from rng, so the list is fixed by the workload seed.
	jobs func(rng *rand.Rand) []*job
	// warmup builds the untimed warm-up job of a set-up. It is the same
	// job for every workload seed, so set-up time does not depend on the
	// seed.
	warmup func() *job
	// traceMinJobs is how many jobs the traced run replays at least,
	// whatever --seconds says (archive-mix: one whole sweep).
	traceMinJobs int
}

// Method names as kshape.Options.Method spells them.
const (
	methodKShape  = "k-Shape"
	methodKAvgED  = "k-AVG+ED"
	methodKAvgSBD = "k-AVG+SBD"
)

var workloads = []workload{
	{name: "kshape-long", jobs: cbfJobs(200, 80, 512, 3), warmup: cbfWarmup(80, 512, 3), traceMinJobs: 10},
	{name: "kshape-wide", jobs: cbfJobs(200, 400, 64, 12), warmup: cbfWarmup(400, 64, 12), traceMinJobs: 10},
	{name: "archive-mix", jobs: archiveJobs, warmup: archiveWarmup, traceMinJobs: 3 * 48},
}

// warmupSeed seeds every warm-up job.
const warmupSeed = 1

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return workload{}, fmt.Errorf("unknown workload %q (want one of %v)", name, names)
}

// cbfJobs returns count k-Shape jobs, each on its own n×m CBF draw.
func cbfJobs(count, n, m, k int) func(*rand.Rand) []*job {
	return func(rng *rand.Rand) []*job {
		out := make([]*job, count)
		for i := range out {
			out[i] = cbfJob(n, m, k, rng)
		}
		return out
	}
}

func cbfWarmup(n, m, k int) func() *job {
	return func() *job { return cbfJob(n, m, k, rand.New(rand.NewSource(warmupSeed))) }
}

func cbfJob(n, m, k int, rng *rand.Rand) *job {
	dataSeed, initSeed := rng.Int63(), rng.Int63()
	data, truth := split(dataset.CBF(n, m, dataSeed))
	return &job{dataset: "CBF", method: methodKShape, k: k, seed: initSeed, data: data, truth: truth}
}

// archiveSweeps is how many Table 3 sweeps, each on fresh seeds, make up
// the archive-mix job list.
const archiveSweeps = 7

// archiveMaxIter caps the refinement loop of archive-mix jobs. k-AVG+SBD
// (mean centroids under SBD) often oscillates instead of converging; at
// the default cap of 100 the few oscillating jobs of a sweep take most of
// its time, and how many there are varies so much with the seeds that no
// 30 s run repeats. At 20 they still dominate the sweep but no longer
// swamp it, while the jobs that converge (nearly all within 15
// iterations) run unchanged.
const archiveMaxIter = 20

func archiveJobs(rng *rand.Rand) []*job {
	var out []*job
	for sweep := 0; sweep < archiveSweeps; sweep++ {
		for _, spec := range dataset.ArchiveSpecs() {
			for _, method := range []string{methodKAvgED, methodKAvgSBD, methodKShape} {
				out = append(out, archiveJob(spec, method, rng))
			}
		}
	}
	return out
}

// archiveWarmup is k-Shape on the first archive dataset.
func archiveWarmup() *job {
	return archiveJob(dataset.ArchiveSpecs()[0], methodKShape, rand.New(rand.NewSource(warmupSeed)))
}

// archiveJob runs method on a fresh draw of spec's dataset.
func archiveJob(spec dataset.Spec, method string, rng *rand.Rand) *job {
	spec.Seed = rng.Int63()
	initSeed := rng.Int63()
	d := dataset.Generate(spec)
	data, truth := split(d.All())
	return &job{dataset: d.Name, method: method, k: d.K, seed: initSeed,
		maxIter: archiveMaxIter, data: data, truth: truth}
}

func split(series []ts.Series) (data [][]float64, truth []int) {
	return ts.Rows(series), ts.Labels(series)
}
