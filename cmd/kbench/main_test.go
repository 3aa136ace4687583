package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"kshape/internal/obs"
)

func TestRunRequiresExperiment(t *testing.T) {
	var out, errBuf bytes.Buffer
	if err := run(nil, &out, &errBuf); err == nil {
		t.Error("no experiment named should error")
	}
}

func TestRunCheapFigures(t *testing.T) {
	var out, errBuf bytes.Buffer
	err := run([]string{"-datasets", "1", "fig2", "fig3", "fig4"}, &out, &errBuf)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"Figure 2", "Figure 3", "Figure 4", "Sakoe-Chiba", "shape extraction"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output missing %q", want)
		}
	}
}

func TestRunTable3Subset(t *testing.T) {
	if testing.Short() {
		t.Skip("clustering sweep is slow")
	}
	var out, errBuf bytes.Buffer
	err := run([]string{"-datasets", "1", "-runs", "1", "fig7"}, &out, &errBuf)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "Figure 7a") {
		t.Errorf("output missing Figure 7a: %q", out.String())
	}
}

func TestRunWritesSVGFigures(t *testing.T) {
	if testing.Short() {
		t.Skip("needs a Table 2 computation")
	}
	dir := t.TempDir()
	var out, errBuf bytes.Buffer
	err := run([]string{"-datasets", "1", "-svgdir", dir, "fig5", "fig6"}, &out, &errBuf)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"fig5a.svg", "fig5b.svg", "fig6.svg"} {
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !strings.Contains(string(data), "<svg") {
			t.Errorf("%s: not an SVG", name)
		}
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	var out, errBuf bytes.Buffer
	err := run([]string{"fig13"}, &out, &errBuf)
	if err == nil {
		t.Fatal("unknown experiment fig13 should error")
	}
	msg := err.Error()
	if !strings.Contains(msg, "fig13") {
		t.Errorf("error does not name the bad experiment: %v", err)
	}
	for _, want := range []string{"table2", "fig12", "kestimation", "all"} {
		if !strings.Contains(msg, want) {
			t.Errorf("error does not list valid name %q: %v", want, err)
		}
	}
}

// TestRunMetricsReport is the acceptance check for the serial run
// report: a reduced table2+table3 run with -workers 1 -report must produce
// a valid report with per-method kernel counters, experiment spans, and
// per-iteration convergence trajectories for the iterative clustering
// methods.
func TestRunMetricsReport(t *testing.T) {
	if testing.Short() {
		t.Skip("full table2+table3 sweep is slow")
	}
	path := filepath.Join(t.TempDir(), "run.json")
	var out, errBuf bytes.Buffer
	err := run([]string{"-datasets", "1", "-runs", "1", "-spectral-runs", "1",
		"-workers", "1", "-report", path, "table2", "table3"}, &out, &errBuf)
	if err != nil {
		t.Fatal(err)
	}

	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var report obs.RunReport
	if err := json.Unmarshal(raw, &report); err != nil {
		t.Fatalf("report file is not valid JSON: %v", err)
	}
	if err := report.Validate(); err != nil {
		t.Fatalf("report fails schema validation: %v", err)
	}
	if report.Tool != "kbench" {
		t.Errorf("tool = %q, want kbench", report.Tool)
	}

	// Global counters: table2 exercises ED, DTW and the FFT-backed SBD;
	// table3's k-Shape runs drive the eigensolver.
	c := report.Counters
	if c.FFT == 0 || c.SBD == 0 || c.ED == 0 || c.DTW == 0 || c.EigenIterations == 0 {
		t.Errorf("expected nonzero fft/sbd/ed/dtw/eigen counters, got %+v", c)
	}

	// One experiment span per experiment, with real durations.
	if len(report.Experiments) != 2 {
		t.Fatalf("experiments = %+v, want table2 and table3", report.Experiments)
	}
	for i, name := range []string{"table2", "table3"} {
		sp := report.Experiments[i]
		if sp.Name != name {
			t.Errorf("experiment %d named %q, want %q", i, sp.Name, name)
		}
		if sp.DurationNS <= 0 {
			t.Errorf("experiment %q has duration %d", name, sp.DurationNS)
		}
	}

	// Per-run records from both score kinds, each with its own counter
	// delta because the sweep ran serially.
	kinds := map[string]bool{}
	perMethod := map[string]obs.Counters{}
	var kshapeRuns []obs.RunRecord
	for _, r := range report.Runs {
		if r.Counters == nil {
			t.Fatalf("%s on %s: no counter delta with -workers 1", r.Method, r.Dataset)
		}
		kinds[r.ScoreKind] = true
		agg := perMethod[r.Method]
		perMethod[r.Method] = obs.Counters{
			FFT: agg.FFT + r.Counters.FFT,
			SBD: agg.SBD + r.Counters.SBD,
			ED:  agg.ED + r.Counters.ED,
			DTW: agg.DTW + r.Counters.DTW,
		}
		if r.Method == "k-Shape" {
			kshapeRuns = append(kshapeRuns, r)
		}
	}
	if !kinds[obs.ScoreAccuracy1NN] || !kinds[obs.ScoreRandIndex] {
		t.Errorf("score kinds = %v, want both accuracy_1nn and rand_index", kinds)
	}
	if perMethod["SBD"].SBD == 0 {
		t.Error("table2 SBD row recorded no SBD evaluations")
	}
	if perMethod["ED"].ED == 0 {
		t.Error("table2 ED row recorded no ED evaluations")
	}
	if len(kshapeRuns) == 0 {
		t.Fatal("no k-Shape run records from table3")
	}
	for _, r := range kshapeRuns {
		if len(r.Trajectory) == 0 {
			t.Fatalf("k-Shape run on %s has no iteration trajectory", r.Dataset)
		}
		if len(r.Trajectory) != r.Iterations {
			t.Errorf("k-Shape run on %s: %d trajectory entries, %d iterations",
				r.Dataset, len(r.Trajectory), r.Iterations)
		}
		for i, it := range r.Trajectory {
			if it.Iteration != i+1 {
				t.Errorf("trajectory entry %d numbered %d", i, it.Iteration)
			}
			if it.Inertia < 0 {
				t.Errorf("negative inertia %g at iteration %d", it.Inertia, it.Iteration)
			}
		}
		if r.Counters.FFT == 0 {
			t.Errorf("k-Shape run on %s recorded no FFT work", r.Dataset)
		}
	}
}

// TestRunMetricsFlagRemoved: the run report is kbench's only report.
func TestRunMetricsFlagRemoved(t *testing.T) {
	var out, errBuf bytes.Buffer
	err := run([]string{"-metrics", "x.json", "fig2"}, &out, &errBuf)
	if err == nil || !strings.Contains(err.Error(), "flag provided but not defined") {
		t.Fatalf("-metrics accepted: %v", err)
	}
}

func TestRunCPUProfile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cpu.out")
	var out, errBuf bytes.Buffer
	err := run([]string{"-datasets", "1", "-cpuprofile", path, "fig2"}, &out, &errBuf)
	if err != nil {
		t.Fatal(err)
	}
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if info.Size() == 0 {
		t.Error("CPU profile is empty")
	}
}
