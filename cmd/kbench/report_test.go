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

// TestRunFlightReport is the acceptance check for -report/-timeline: a
// reduced table3 sweep must produce a schema-valid kshape.runreport/v1
// document with multi-worker busy/wait attribution, a sampled runtime
// trajectory, and populated phase histograms, plus a well-formed SVG
// timeline.
func TestRunFlightReport(t *testing.T) {
	if testing.Short() {
		t.Skip("table3 sweep is slow")
	}
	dir := t.TempDir()
	reportPath := filepath.Join(dir, "run.json")
	timelinePath := filepath.Join(dir, "timeline.svg")
	var out, errBuf bytes.Buffer
	// Two datasets: the sweep parallelizes over datasets, so a single
	// dataset would attribute all work to one pool worker.
	err := run([]string{"-datasets", "2", "-runs", "1", "-workers", "4",
		"-report", reportPath, "-timeline", timelinePath, "table3"}, &out, &errBuf)
	if err != nil {
		t.Fatal(err)
	}

	raw, err := os.ReadFile(reportPath)
	if err != nil {
		t.Fatal(err)
	}
	var rep obs.RunReport
	if err := json.Unmarshal(raw, &rep); err != nil {
		t.Fatalf("report is not valid JSON: %v", err)
	}
	if err := rep.Validate(); err != nil {
		t.Fatalf("report fails schema validation: %v", err)
	}
	if rep.Tool != "kbench" {
		t.Errorf("tool = %q, want kbench", rep.Tool)
	}
	if rep.RunID == "" {
		t.Error("report missing run_id")
	}
	if len(rep.Workers) < 2 {
		t.Errorf("report attributes %d workers, want >= 2 with -workers 4", len(rep.Workers))
	}
	for _, w := range rep.Workers {
		if w.BusyNS+w.WaitNS != w.WallNS {
			t.Errorf("worker %d: busy %d + wait %d != wall %d", w.Worker, w.BusyNS, w.WaitNS, w.WallNS)
		}
	}
	if rep.Pool == nil || rep.Pool.Efficiency <= 0 || rep.Pool.Efficiency > 1 {
		t.Errorf("pool stats implausible: %+v", rep.Pool)
	}
	if len(rep.RuntimeSamples) < 10 {
		t.Errorf("report has %d runtime samples, want >= 10 from the background sampler", len(rep.RuntimeSamples))
	}
	populated := 0
	for _, p := range rep.Phases {
		if p.Count > 0 {
			populated++
		}
	}
	if populated < 3 {
		t.Errorf("only %d phase histograms populated: %+v", populated, rep.Phases)
	}
	if len(rep.Events) == 0 {
		t.Error("report carries no flight-recorder events")
	}

	// The clustering sweeps ran in parallel, so their records carry
	// trajectories but no counter deltas: a delta would mix in the work
	// of concurrent runs.
	if len(rep.Runs) == 0 {
		t.Fatal("report carries no run records")
	}
	for _, r := range rep.Runs {
		if r.ScoreKind != obs.ScoreRandIndex || len(r.Trajectory) == 0 {
			t.Errorf("%s on %s: score kind %q, %d trajectory entries",
				r.Method, r.Dataset, r.ScoreKind, len(r.Trajectory))
		}
		if r.Counters != nil {
			t.Errorf("%s on %s: counter delta %+v from a parallel sweep", r.Method, r.Dataset, *r.Counters)
		}
	}
	if len(rep.Experiments) != 1 || rep.Experiments[0].Name != "table3" {
		t.Errorf("experiments = %+v, want one table3 span", rep.Experiments)
	}

	svg, err := os.ReadFile(timelinePath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(svg), "<svg") || !strings.Contains(string(svg), "worker 0") {
		t.Errorf("timeline SVG malformed (%d bytes)", len(svg))
	}

	// The recorder must uninstall itself at finish: later runs in this
	// process must not leak events into this report's recorder.
	if obs.ActiveRecorder() != nil {
		t.Error("flight recorder still installed after run returned")
	}
}

// TestRunReportFlagsOffIsNoop: without -report/-timeline no recorder is
// installed and no artifacts appear.
func TestRunReportFlagsOffIsNoop(t *testing.T) {
	var out, errBuf bytes.Buffer
	if err := run([]string{"-datasets", "1", "fig2"}, &out, &errBuf); err != nil {
		t.Fatal(err)
	}
	if obs.ActiveRecorder() != nil {
		t.Error("recorder installed without -report")
	}
}
