package kshape

import (
	"math"
	"testing"
)

// iterativeMethods are the methods that run the refinement engine.
var iterativeMethods = []string{"k-Shape", "k-AVG+ED", "k-AVG+SBD", "k-AVG+DTW", "k-DBA", "KSC", "k-Shape+DTW"}

// TestClusterDeterministicAcrossWorkers pins the public-API contract stated
// on Options.Workers: for a fixed Seed, every worker count yields
// bit-identical labels, centroids, inertia, and iteration counts — across
// every iterative method and the non-scalable method families.
func TestClusterDeterministicAcrossWorkers(t *testing.T) {
	data, _ := twoShapeClasses(12, 40, 3)
	for _, method := range append([]string{"PAM+SBD", "S+ED"}, iterativeMethods...) {
		run := func(workers int) *Result {
			res, err := Cluster(data, 2, Options{Seed: 5, Method: method, Workers: workers})
			if err != nil {
				t.Fatalf("%s workers=%d: %v", method, workers, err)
			}
			return res
		}
		want := run(1)
		for _, w := range []int{0, 2, 8} {
			got := run(w)
			if got.Inertia != want.Inertia || got.Iterations != want.Iterations {
				t.Errorf("%s workers=%d: inertia/iterations = %v/%d, want %v/%d",
					method, w, got.Inertia, got.Iterations, want.Inertia, want.Iterations)
			}
			for i := range want.Labels {
				if got.Labels[i] != want.Labels[i] {
					t.Fatalf("%s workers=%d: label[%d] = %d, want %d",
						method, w, i, got.Labels[i], want.Labels[i])
				}
			}
			for j := range want.Centroids {
				for i := range want.Centroids[j] {
					if got.Centroids[j][i] != want.Centroids[j][i] {
						t.Fatalf("%s workers=%d: centroid[%d][%d] differs (must be bit-identical)",
							method, w, j, i)
					}
				}
			}
		}
	}
}

// TestClusterTraceDeterministicAcrossWorkers extends the guarantee to the
// instrumented path of every iterative method: labels, centroids, the
// per-iteration inertia/churn trajectory and the kernel-counter totals
// must not depend on the worker count (only the wall-clock fields may).
func TestClusterTraceDeterministicAcrossWorkers(t *testing.T) {
	data, _ := twoShapeClasses(10, 32, 7)
	for _, method := range iterativeMethods {
		run := func(workers int) *Result {
			res, err := Cluster(data, 2, Options{Seed: 2, Method: method, CollectTrace: true, Workers: workers})
			if err != nil {
				t.Fatalf("%s workers=%d: %v", method, workers, err)
			}
			if res.Trace == nil {
				t.Fatalf("%s workers=%d: no trace collected", method, workers)
			}
			return res
		}
		want := run(1)
		for _, w := range []int{2, 8} {
			got := run(w)
			for i := range want.Labels {
				if got.Labels[i] != want.Labels[i] {
					t.Fatalf("%s workers=%d: label[%d] = %d, want %d", method, w, i, got.Labels[i], want.Labels[i])
				}
			}
			for j := range want.Centroids {
				for i := range want.Centroids[j] {
					if math.Float64bits(got.Centroids[j][i]) != math.Float64bits(want.Centroids[j][i]) {
						t.Fatalf("%s workers=%d: centroid[%d][%d] differs (must be bit-identical)", method, w, j, i)
					}
				}
			}
			if len(got.Trace.Iterations) != len(want.Trace.Iterations) {
				t.Fatalf("%s workers=%d: %d trace iterations, want %d",
					method, w, len(got.Trace.Iterations), len(want.Trace.Iterations))
			}
			for i := range want.Trace.Iterations {
				wi, gi := want.Trace.Iterations[i], got.Trace.Iterations[i]
				if gi.Inertia != wi.Inertia || gi.LabelChurn != wi.LabelChurn || gi.Reseeds != wi.Reseeds {
					t.Errorf("%s workers=%d: trace[%d] inertia/churn/reseeds = %v/%d/%d, want %v/%d/%d",
						method, w, i, gi.Inertia, gi.LabelChurn, gi.Reseeds, wi.Inertia, wi.LabelChurn, wi.Reseeds)
				}
			}
			if got.Trace.Counters != want.Trace.Counters {
				t.Errorf("%s workers=%d: kernel counters %+v, want %+v (parallelism must not change operation counts)",
					method, w, got.Trace.Counters, want.Trace.Counters)
			}
		}
	}
}

// TestClassify1NNWorkersDeterministic: predictions are identical for every
// worker count, and the plain Classify1NN entry point (all CPUs) matches.
func TestClassify1NNWorkersDeterministic(t *testing.T) {
	train, labels := twoShapeClasses(15, 30, 11)
	queries, _ := twoShapeClasses(10, 30, 13)
	want, err := Classify1NNWorkers(train, labels, queries, "SBD", false, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{0, 2, 8} {
		got, err := Classify1NNWorkers(train, labels, queries, "SBD", false, w)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("workers=%d: prediction[%d] = %d, want %d", w, i, got[i], want[i])
			}
		}
	}
	plain, err := Classify1NN(train, labels, queries, "SBD", false)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if plain[i] != want[i] {
			t.Fatalf("Classify1NN: prediction[%d] = %d, want %d", i, plain[i], want[i])
		}
	}
}
