package main

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"time"

	"kshape"
	"kshape/internal/dist"
	"kshape/internal/fft"
)

// tracedJob is one job of the traced run.
type tracedJob struct {
	j      *job
	w1, w2 int64 // untraced kshape.Cluster wall time at Workers 1 and 2, ns
	res    *replayResult
	match  bool // the replay equals kshape.Cluster bit for bit
}

// runTraced measures the workload's layers. For each job it runs
// kshape.Cluster untraced at Workers 2 and 1 (validating both and checking
// they agree bit for bit), then replays the job serially with spans around
// every layer call. Jobs run in list order until --seconds is used up,
// and at least the workload's traceMinJobs.
func runTraced(w workload, seed int64, seconds float64) (*report, error) {
	var t tally
	jobs := w.jobs(rand.New(rand.NewSource(seed)))
	wj := w.warmup()
	res, err := clusterJob(wj, benchWorkers) // untimed
	t.check(wj, validate(wj, res, err))

	tr := newTracer()
	rp := &replayer{t: tr}
	var done []tracedJob
	start := time.Now()
	for idx, j := range jobs {
		if len(done) >= w.traceMinJobs && time.Since(start).Seconds() >= seconds {
			break
		}
		tj, err := traceJob(tr, rp, idx, j)
		if t.check(j, err) {
			done = append(done, tj)
		}
	}
	if len(done) == 0 {
		return nil, errors.New("no traced job succeeded")
	}
	fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: traced %d of %d jobs in %.2fs, %d spans\n",
		w.name, seed, len(done), len(jobs), time.Since(start).Seconds(), len(tr.spans))
	metrics, err := layerMetrics(tr.spans, done, rp.samples)
	if err != nil {
		return nil, err
	}
	return &report{attempted: t.attempted, failed: t.failed, metrics: metrics}, nil
}

// traceJob runs one job untraced at Workers 2 and 1 and then traced. The
// untraced order alternates between jobs so neither worker count always
// runs first.
func traceJob(tr *tracer, rp *replayer, idx int, j *job) (tracedJob, error) {
	tj := tracedJob{j: j}
	var r1, r2 *kshape.Result
	var err error
	if idx%2 == 0 {
		if r2, tj.w2, err = timedCluster(j, benchWorkers); err == nil {
			r1, tj.w1, err = timedCluster(j, 1)
		}
	} else {
		if r1, tj.w1, err = timedCluster(j, 1); err == nil {
			r2, tj.w2, err = timedCluster(j, benchWorkers)
		}
	}
	if err != nil {
		return tj, err
	}
	if !sameClustering(r1.Labels, r2.Labels, r1.Centroids, r2.Centroids) {
		return tj, errors.New("Workers 1 and Workers 2 results differ")
	}

	tr.job = idx
	tj.res, err = rp.cluster(j)
	if err != nil {
		return tj, fmt.Errorf("replay: %w", err)
	}
	tj.match = sameClustering(tj.res.labels, r2.Labels, tj.res.centroids, r2.Centroids) &&
		tj.res.iterations == r2.Iterations
	return tj, nil
}

// timedCluster runs and validates one untraced kshape.Cluster call.
func timedCluster(j *job, workers int) (*kshape.Result, int64, error) {
	start := time.Now()
	res, err := clusterJob(j, workers)
	ns := time.Since(start).Nanoseconds()
	return res, ns, validate(j, res, err)
}

// layerMetrics derives the per-layer metrics from the spans, the jobs and
// the sampled linalg re-runs.
func layerMetrics(spans []span, done []tracedJob, samples []decompSample) ([]metric, error) {
	self := selfTimes(spans)
	busy, calls := map[string]int64{}, map[string]int{} // by span name
	// rootBusy is the replayed job time, the kshape.Cluster spans; it
	// splits exactly into the self times of the layer calls and of the
	// frames (unattributed).
	var rootBusy, unattributed int64
	var coreSelf int64
	for i := range spans {
		s := &spans[i]
		if self[i] < 0 {
			return nil, fmt.Errorf("span %s of job %d: children cover %dns more than the span", s.name, s.job, -self[i])
		}
		busy[s.name] += s.busy
		calls[s.name] += s.calls
		if s.parent < 0 {
			rootBusy += s.busy
		}
		if s.frame {
			unattributed += self[i]
		}
		if s.layer() == "core" {
			coreSelf += self[i]
		}
	}

	// Per-method cluster.Run time, and per-job facade time.
	runBusy := map[string]int64{}
	runJobs := map[string]int{}
	var prepare int64
	for _, tj := range done {
		facade, run := spans[tj.res.facade].busy, spans[tj.res.run].busy
		prepare += facade - run
		runBusy[tj.j.method] += run
		runJobs[tj.j.method]++
	}

	var w1, w2 int64
	var iterations, reseeds, sbdEvals, transforms int64
	var fwdNS, invNS, fftBytes float64
	var kshapeJobs, matched int
	// dist.sbd_pair_us weighs each job's micro-timed SBDDist by the job's
	// SBD count where the workload runs k-AVG+SBD, else every job by 1.
	var pairSum, pairWeight, pairSBDSum, pairSBDWeight float64
	micro := newMicroTimer()
	for _, tj := range done {
		w1 += tj.w1
		w2 += tj.w2
		c := tj.res.counters
		iterations += int64(tj.res.iterations)
		reseeds += c.Reseeds
		sbdEvals += c.SBD
		transforms += c.FFT + c.IFFT
		l := fft.NextPow2(2*tj.j.m() - 1)
		fwd, inv := micro.rfft(l)
		fwdNS += fwd
		invNS += inv
		fftBytes += float64(8*l + 16*(l/2+1))
		pair := micro.sbdPair(tj.j)
		pairSum += pair
		pairWeight++
		switch tj.j.method {
		case methodKAvgSBD:
			pairSBDSum += pair * float64(c.SBD)
			pairSBDWeight += float64(c.SBD)
		case methodKShape:
			kshapeJobs++
			if tj.match {
				matched++
			}
		}
	}
	if pairSBDWeight > 0 {
		pairSum, pairWeight = pairSBDSum, pairSBDWeight
	}
	jobs := float64(len(done))
	ks := float64(kshapeJobs)

	var gramNS, eigenNS, eigenIters int64
	var gramFlops float64
	var allocBytes uint64
	decompMatched := 0
	for _, s := range samples {
		gramNS += s.gramNS
		eigenNS += s.eigenNS
		eigenIters += s.eigenIters
		gramFlops += float64(s.members) * float64(s.m) * float64(s.m)
		allocBytes += s.allocBytes
		if s.match {
			decompMatched++
		}
	}
	ns := float64(len(samples))

	const extract = "avg.ShapeExtractionAligned"
	pct := func(part int64) float64 { return 100 * ratio(float64(part), float64(rootBusy)) }
	perCall := func(name string, scale float64) float64 {
		return ratio(float64(busy[name]), float64(calls[name])) / scale
	}
	perRun := func(method string) float64 {
		return ratio(float64(runBusy[method]), float64(runJobs[method])) / 1e6
	}
	return []metric{
		{"kshape.prepare_ms", "ms", ratio(float64(prepare), jobs) / 1e6},
		{"cluster.run_ms.kavg_ed", "ms", perRun(methodKAvgED)},
		{"cluster.run_ms.kavg_sbd", "ms", perRun(methodKAvgSBD)},
		{"cluster.run_ms.kshape", "ms", perRun(methodKShape)},
		{"cluster.run_pct.kavg_sbd", "%", pct(runBusy[methodKAvgSBD])},
		{"core.iterations", "count", ratio(float64(iterations), jobs)},
		{"core.reseeds", "count", ratio(float64(reseeds), jobs)},
		{"core.refine_ms", "ms", ratio(float64(busy["core.refine"]), ks) / 1e6},
		{"core.assign_ms", "ms", ratio(float64(busy["core.assign"]), ks) / 1e6},
		{"core.self_ms", "ms", ratio(float64(coreSelf), ks) / 1e6},
		{"core.assign_pct", "%", pct(busy["core.assign"])},
		{"avg.extract_us", "us", perCall(extract, 1e3)},
		{"avg.extractions", "count", ratio(float64(calls[extract]), ks)},
		{"avg.extract_alloc_kb", "kB", ratio(float64(allocBytes), ns) / 1e3},
		{"avg.extract_pct", "%", pct(busy[extract])},
		{"linalg.gram_us", "us", ratio(float64(gramNS), ns) / 1e3},
		{"linalg.eigen_us", "us", ratio(float64(eigenNS), ns) / 1e3},
		{"linalg.eigen_iters", "count", ratio(float64(eigenIters), ns)},
		{"linalg.gram_gflops", "Gflop/s", ratio(gramFlops, float64(gramNS))},
		{"linalg.decomp_match", "ratio", ratio(float64(decompMatched), ns)},
		{"dist.new_batch_us", "us", perCall("dist.NewSBDBatch", 1e3)},
		{"dist.query_us", "us", perCall("dist.QueryInto", 1e3)},
		{"dist.sbd_batch_ns", "ns", perCall("dist.DistanceScratch", 1)},
		{"dist.sbd_pair_us", "us", ratio(pairSum, pairWeight) / 1e3},
		{"dist.sbd_evals", "count", ratio(float64(sbdEvals), jobs)},
		{"fft.forward_ns", "ns", ratio(fwdNS, jobs)},
		{"fft.inverse_ns", "ns", ratio(invNS, jobs)},
		{"fft.transforms", "count", ratio(float64(transforms), jobs)},
		{"fft.bytes_per_transform", "B", ratio(fftBytes, jobs)},
		{"ts.znorm_us", "us", perCall("ts.ZNormalize", 1e3)},
		{"ts.shift_ns", "ns", perCall("ts.ShiftInto", 1)},
		{"par.speedup", "ratio", ratio(float64(w1), float64(w2))},
		{"trace.unattributed_pct", "%", pct(unattributed)},
		{"trace.overhead_pct", "%", 100 * (ratio(float64(rootBusy), float64(w1)) - 1)},
		{"trace.replay_match", "ratio", ratio(float64(matched), ks)},
	}, nil
}

// microTimer times single kernel calls in isolation, once per size.
type microTimer struct {
	fft map[int][2]float64 // padded length -> forward, inverse ns
	sbd map[int]float64    // series length -> dist.SBDDist ns
}

func newMicroTimer() *microTimer {
	return &microTimer{fft: map[int][2]float64{}, sbd: map[int]float64{}}
}

// microBatches batches are timed per kernel and size; each runs for at
// least microBatchNS and the median per-call time is kept.
const (
	microBatches = 5
	microBatchNS = 2e6
)

// perCallNS returns the median over microBatches batches of fn's time per
// call.
func perCallNS(fn func()) float64 {
	per := make([]float64, microBatches)
	for b := range per {
		calls := 0
		start := time.Now()
		for ; float64(time.Since(start).Nanoseconds()) < microBatchNS; calls++ {
			fn()
		}
		per[b] = float64(time.Since(start).Nanoseconds()) / float64(calls)
	}
	return median(per)
}

// rfft returns RFFT.Forward and RFFT.Inverse ns per call at padded length l.
func (mt *microTimer) rfft(l int) (fwd, inv float64) {
	if v, ok := mt.fft[l]; ok {
		return v[0], v[1]
	}
	p := fft.NewRFFT(l)
	x := make([]float64, l/2)
	for i := range x {
		x[i] = float64(i%7) - 3
	}
	spec := make([]complex128, p.SpectrumLen())
	work := make([]complex128, p.WorkLen())
	out := make([]float64, l)
	fwd = perCallNS(func() { p.Forward(x, spec, work) })
	inv = perCallNS(func() { p.Inverse(spec, out, work) })
	mt.fft[l] = [2]float64{fwd, inv}
	return fwd, inv
}

// sbdPair returns dist.SBDDist ns per call at the job's series length, on
// two of the job's series.
func (mt *microTimer) sbdPair(j *job) float64 {
	m := j.m()
	if v, ok := mt.sbd[m]; ok {
		return v
	}
	x, y := j.data[0], j.data[len(j.data)-1]
	v := perCallNS(func() { dist.SBDDist(x, y) })
	mt.sbd[m] = v
	return v
}
