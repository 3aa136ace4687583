package main

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"

	"kshape/internal/avg"
	"kshape/internal/cluster"
	"kshape/internal/core"
	"kshape/internal/dist"
	"kshape/internal/linalg"
	"kshape/internal/obs"
	"kshape/internal/ts"
)

// replayResult is what one replayed kshape.Cluster call produced.
type replayResult struct {
	labels     []int
	centroids  [][]float64
	iterations int
	counters   obs.Counters // kernel counters accrued by the call
	facade     int          // the kshape.Cluster span
	run        int          // its cluster.Run child span
}

// decompSample is one sampled shape extraction, re-run from its linalg
// calls on the same aligned rows.
type decompSample struct {
	m, members int
	gramNS     int64 // linalg.NewSym + GramAddOuter per member + CenterProject
	eigenNS    int64 // linalg.DominantEigen
	eigenIters int64
	allocBytes uint64 // heap allocated by the avg.ShapeExtractionAligned call
	match      bool   // the re-run reproduced the extraction bit for bit
}

// replayer replays kshape.Cluster serially from calls into each layer's
// public functions, with spans around every call. It copies the program's
// control flow (the facade's preparation, KShapeRun's loop with its
// spectrum cache, refinement skip and reseed rule) so that the same inputs
// give bit-identical outputs; trace.replay_match checks that this still
// holds.
type replayer struct {
	t           *tracer
	extractions int
	samples     []decompSample
}

// cluster replays kshape.Cluster(j.data, j.k, {Method, Seed, MaxIterations,
// Workers: 1}).
// k-AVG jobs run cluster.Run itself inside one span; k-Shape jobs replay
// core.KShapeRun call by call.
func (r *replayer) cluster(j *job) (*replayResult, error) {
	t := r.t
	root := t.frame("kshape.Cluster")
	defer t.end(root)
	m := len(j.data[0])
	for i, x := range j.data {
		if len(x) != m {
			return nil, fmt.Errorf("series %d has length %d, want %d", i, len(x), m)
		}
		for _, v := range x {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return nil, fmt.Errorf("series %d has a non-finite value", i)
			}
		}
	}
	zn := t.group("ts.ZNormalize")
	prepared := make([][]float64, len(j.data))
	for i, x := range j.data {
		s := t.now()
		prepared[i] = ts.ZNormalize(x)
		t.add(zn, s)
	}
	rng := rand.New(rand.NewSource(j.seed))

	wasCounting := obs.SetEnabled(true)
	defer obs.SetEnabled(wasCounting)
	before := obs.ReadCounters()
	var res *replayResult
	var err error
	var run int
	switch j.method {
	case methodKShape:
		run = t.frame("cluster.Run") // cluster.Run dispatches to core.KShapeRun
		res, err = r.kshapeRun(prepared, j.k, j.maxIter, rng)
	case methodKAvgED, methodKAvgSBD:
		run = t.begin("cluster.Run")
		c := cluster.NewKAvgED()
		if j.method == methodKAvgSBD {
			c = cluster.NewKAvgSBD()
		}
		var cr *core.Result
		if cr, err = cluster.Run(c, prepared, j.k, rng, cluster.Opts{MaxIterations: j.maxIter, Workers: 1}); err == nil {
			res = &replayResult{labels: cr.Labels, centroids: cr.Centroids, iterations: cr.Iterations}
		}
	default:
		return nil, fmt.Errorf("no replay for method %q", j.method)
	}
	t.end(run)
	if err != nil {
		return nil, err
	}
	res.counters = obs.ReadCounters().Sub(before)
	res.facade, res.run = root, run
	return res, nil
}

// kshapeRun replays core.KShapeRun (serially, as Workers 1 would run it).
func (r *replayer) kshapeRun(data [][]float64, k, maxIter int, rng *rand.Rand) (*replayResult, error) {
	t := r.t
	n, m := len(data), len(data[0])
	if k < 1 || k > n {
		return nil, fmt.Errorf("k=%d outside [1, %d]", k, n)
	}
	if maxIter <= 0 {
		maxIter = core.DefaultMaxIterations
	}
	self := t.frame("core.KShapeRun")
	defer t.end(self)
	labels := make([]int, n)
	for i := range labels {
		labels[i] = rng.Intn(k)
	}
	nb := t.begin("dist.NewSBDBatch")
	batch := dist.NewSBDBatch(data)
	t.end(nb)

	centroids := make([][]float64, k)
	for j := range centroids {
		centroids[j] = make([]float64, m)
	}
	assignDist := make([]float64, n)
	prev := make([]int, n)
	queries := make([]*dist.SBDQuery, k)
	specFresh := make([]bool, k)
	settled := make([]bool, k)
	membersChanged := make([]bool, k)
	for j := range membersChanged {
		membersChanged[j] = true
	}
	order := make([]int, n)
	starts := make([]int, k+1)
	fill := make([]int, k)
	alignRows := ts.NewMatrix(n, m)
	sc := batch.Scratch()
	query := func(j int) {
		q := t.begin("dist.QueryInto")
		queries[j] = batch.QueryInto(queries[j], centroids[j])
		specFresh[j] = true
		t.end(q)
	}

	res := &replayResult{labels: labels, centroids: centroids}
	for iter := 0; iter < maxIter; iter++ {
		copy(prev, labels)
		for j := range fill {
			starts[j] = 0
			fill[j] = 0
		}
		starts[k] = 0
		for _, l := range labels {
			starts[l+1]++
		}
		for j := 0; j < k; j++ {
			starts[j+1] += starts[j]
			fill[j] = starts[j]
		}
		for i, l := range labels {
			order[fill[l]] = i
			fill[l]++
		}

		refine := t.frame("core.refine")
		for j := 0; j < k; j++ {
			if settled[j] && !membersChanged[j] {
				continue
			}
			idxs := order[starts[j]:starts[j+1]]
			if len(idxs) == 0 {
				centroids[j] = make([]float64, m)
				settled[j], specFresh[j] = false, false
				continue
			}
			rows := alignRows[starts[j]:starts[j+1]]
			if isAllZero(centroids[j]) {
				for row, i := range idxs {
					copy(rows[row], data[i])
				}
			} else {
				if !specFresh[j] {
					query(j)
				}
				dg, sg := t.group("dist.DistanceScratch"), t.group("ts.ShiftInto")
				for row, i := range idxs {
					s := t.now()
					_, shift := queries[j].DistanceScratch(i, sc)
					t.add(dg, s)
					s = t.now()
					ts.ShiftInto(rows[row], data[i], shift)
					t.add(sg, s)
				}
			}
			newC := r.extract(rows)
			settled[j] = sameBits(newC, centroids[j])
			centroids[j] = newC
			if !settled[j] {
				specFresh[j] = false
			}
		}
		t.end(refine)

		assign := t.frame("core.assign")
		for j := range queries {
			if !specFresh[j] {
				query(j)
			}
		}
		dg := t.group("dist.DistanceScratch")
		for i := range labels {
			best, bestJ := math.Inf(1), labels[i]
			for j, q := range queries {
				s := t.now()
				d, _ := q.DistanceScratch(i, sc)
				t.add(dg, s)
				if d < best {
					best, bestJ = d, j
				}
			}
			labels[i], assignDist[i] = bestJ, best
		}
		t.end(assign)

		rs := t.frame("core.reseed")
		reseedEmptyClusters(labels, assignDist, k)
		t.end(rs)
		for j := range membersChanged {
			membersChanged[j] = false
		}
		converged := true
		for i := range labels {
			if labels[i] != prev[i] {
				membersChanged[labels[i]] = true
				membersChanged[prev[i]] = true
				converged = false
			}
		}
		res.iterations = iter + 1
		if converged {
			break
		}
	}
	return res, nil
}

// decompEvery is the sampling period of the linalg re-run: the 1st, 9th,
// 17th, ... shape extraction of the traced run is decomposed.
const decompEvery = 8

// extract runs avg.ShapeExtractionAligned in a span and, on sampled calls,
// re-runs it from its linalg calls to split Gram from eigensolve time.
func (r *replayer) extract(rows [][]float64) []float64 {
	r.extractions++
	sampled := r.extractions%decompEvery == 1
	var ms runtime.MemStats
	var allocBefore uint64
	if sampled {
		// The sampling work runs with the tracer paused, so no span
		// includes it.
		p := r.t.pause()
		r.t.reserve(1) // the span below must not grow the span buffer
		runtime.ReadMemStats(&ms)
		allocBefore = ms.TotalAlloc
		r.t.resume(p)
	}
	e := r.t.begin("avg.ShapeExtractionAligned")
	c := avg.ShapeExtractionAligned(rows)
	r.t.end(e)
	if sampled {
		p := r.t.pause()
		runtime.ReadMemStats(&ms)
		s := decompose(rows, c)
		s.allocBytes = ms.TotalAlloc - allocBefore
		r.samples = append(r.samples, s)
		r.t.resume(p)
	}
	return c
}

// decompose recomputes avg.ShapeExtractionAligned(rows) from its linalg
// calls, timing the Gram build and the eigensolve, and reports whether it
// reproduced want.
func decompose(rows [][]float64, want []float64) decompSample {
	m := len(rows[0])
	zs := make([][]float64, len(rows))
	for i, a := range rows {
		zs[i] = ts.ZNormalize(a)
	}
	sw := obs.NewStopwatch()
	s := linalg.NewSym(m)
	for _, z := range zs {
		s.GramAddOuter(z)
	}
	s.CenterProject()
	gramNS := sw.ElapsedNS()

	before := obs.ReadCounters()
	sw = obs.NewStopwatch()
	_, v := linalg.DominantEigen(s)
	eigenNS := sw.ElapsedNS()
	iters := obs.ReadCounters().Sub(before).EigenIterations

	cen := ts.ZNormalize(v)
	neg := make([]float64, m)
	for i, x := range cen {
		neg[i] = -x
	}
	if sumSqED(rows, neg) < sumSqED(rows, cen) {
		cen = neg
	}
	return decompSample{m: m, members: len(rows), gramNS: gramNS, eigenNS: eigenNS, eigenIters: iters, match: sameBits(cen, want)}
}

func sumSqED(rows [][]float64, c []float64) float64 {
	total := 0.0
	for _, x := range rows {
		total += dist.SquaredED(ts.ZNormalize(x), c)
	}
	return total
}

// reseedEmptyClusters is core's reseed rule: every empty cluster takes the
// series with the largest assignment distance among clusters of more than
// one member.
func reseedEmptyClusters(labels []int, assignDist []float64, k int) {
	counts := make([]int, k)
	for _, l := range labels {
		counts[l]++
	}
	for j := 0; j < k; j++ {
		if counts[j] > 0 {
			continue
		}
		worst, worstI := -1.0, -1
		for i, d := range assignDist {
			if counts[labels[i]] > 1 && d > worst {
				worst, worstI = d, i
			}
		}
		if worstI < 0 {
			continue
		}
		counts[labels[worstI]]--
		labels[worstI] = j
		counts[j] = 1
		assignDist[worstI] = 0
		obs.Inc(obs.CounterReseeds)
	}
}

func isAllZero(x []float64) bool {
	for _, v := range x {
		if v != 0 {
			return false
		}
	}
	return true
}
