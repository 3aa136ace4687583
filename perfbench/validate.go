package main

import (
	"fmt"
	"math"

	"kshape"
)

// validate checks one Cluster result against the output contract: no
// error, one label in [0,k) per series, k finite centroids of length m, and
// a finite, non-negative inertia.
func validate(j *job, res *kshape.Result, err error) error {
	if err != nil {
		return err
	}
	if len(res.Labels) != j.n() {
		return fmt.Errorf("%d labels for %d series", len(res.Labels), j.n())
	}
	for i, l := range res.Labels {
		if l < 0 || l >= j.k {
			return fmt.Errorf("label %d of series %d outside [0,%d)", l, i, j.k)
		}
	}
	if len(res.Centroids) != j.k {
		return fmt.Errorf("%d centroids, want %d", len(res.Centroids), j.k)
	}
	for c, row := range res.Centroids {
		if len(row) != j.m() {
			return fmt.Errorf("centroid %d has length %d, want %d", c, len(row), j.m())
		}
		for _, v := range row {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("centroid %d is not finite", c)
			}
		}
	}
	if math.IsNaN(res.Inertia) || math.IsInf(res.Inertia, 0) || res.Inertia < 0 {
		return fmt.Errorf("inertia %v is not finite and non-negative", res.Inertia)
	}
	return nil
}

// sameClustering reports whether two clusterings have identical labels and
// bit-identical centroids.
func sameClustering(labelsA, labelsB []int, centA, centB [][]float64) bool {
	if len(labelsA) != len(labelsB) || len(centA) != len(centB) {
		return false
	}
	for i := range labelsA {
		if labelsA[i] != labelsB[i] {
			return false
		}
	}
	for c := range centA {
		if !sameBits(centA[c], centB[c]) {
			return false
		}
	}
	return true
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}
