package main

import (
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"time"

	"kshape"
)

const (
	// benchWorkers is Options.Workers for every timed job: the 2 cores of
	// the reference machine, fixed so that runs on machines with different
	// core counts stay comparable.
	benchWorkers = 2
	// setupRepeats is how often a run builds its inputs and warms up;
	// setup_s is the median.
	setupRepeats = 7
)

// clusterJob runs one job through the public API.
func clusterJob(j *job, workers int) (*kshape.Result, error) {
	return kshape.Cluster(j.data, j.k, kshape.Options{Method: j.method, Seed: j.seed, MaxIterations: j.maxIter, Workers: workers})
}

// tally counts attempted and failed jobs, logging the first failures.
type tally struct{ attempted, failed int }

func (t *tally) check(j *job, err error) bool {
	t.attempted++
	if err == nil {
		return true
	}
	t.failed++
	if t.failed <= 5 {
		fmt.Fprintf(os.Stderr, "perfbench: %s on %s (n=%d, m=%d, k=%d, seed=%d): %v\n",
			j.method, j.dataset, j.n(), j.m(), j.k, j.seed, err)
	}
	return false
}

// setup builds the job list from the workload seed and runs the
// workload's untimed warm-up job, setupRepeats times, each after a GC, and
// returns the last job list and the median set-up time.
func setup(w workload, seed int64, t *tally) ([]*job, float64) {
	var jobs []*job
	times := make([]float64, setupRepeats)
	for r := range times {
		jobs = nil // let the GC below free the previous list
		runtime.GC()
		start := time.Now()
		jobs = w.jobs(rand.New(rand.NewSource(seed)))
		wj := w.warmup()
		res, err := clusterJob(wj, benchWorkers)
		times[r] = time.Since(start).Seconds()
		t.check(wj, validate(wj, res, err))
	}
	return jobs, median(times)
}

// runEndToEnd measures the workload untraced: a closed loop of one caller
// issuing the job list back to back, cycling through it, until --seconds
// is used up and at least one whole pass is done.
func runEndToEnd(w workload, seed int64, seconds float64) (*report, error) {
	var t tally
	jobs, setupS := setup(w, seed, &t)

	var latMS []float64
	series, riSum, riN := 0, 0.0, 0
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	for len(latMS) < len(jobs) || time.Since(start).Seconds() < seconds {
		j := jobs[len(latMS)%len(jobs)]
		firstPass := len(latMS) < len(jobs)
		t0 := time.Now()
		res, err := clusterJob(j, benchWorkers)
		latMS = append(latMS, float64(time.Since(t0).Nanoseconds())/1e6)
		if !t.check(j, validate(j, res, err)) {
			continue
		}
		series += j.n()
		if firstPass {
			riSum += kshape.RandIndex(res.Labels, j.truth)
			riN++
		}
	}
	wall := time.Since(start).Seconds()
	runtime.ReadMemStats(&after)
	timed := len(latMS)

	p50, err := percentile(latMS, 50)
	if err != nil {
		return nil, err
	}
	p90, err := percentile(latMS, 90)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: %d jobs (list of %d) in %.2fs, %d series\n",
		w.name, seed, timed, len(jobs), wall, series)
	return &report{
		attempted: t.attempted,
		failed:    t.failed,
		metrics: []metric{
			{"setup_s", "s", setupS},
			{"series_per_s", "1/s", float64(series) / wall},
			{"job_ms.p50", "ms", p50},
			{"job_ms.p90", "ms", p90},
			{"rand_index", "ratio", ratio(riSum, float64(riN))},
			{"alloc_mb_per_job", "MB", float64(after.TotalAlloc-before.TotalAlloc) / 1e6 / float64(timed)},
			{"ok_frac", "ratio", 1 - float64(t.failed)/float64(t.attempted)},
		},
	}, nil
}
