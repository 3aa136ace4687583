package obs

import (
	"bytes"
	"encoding/json"
	"sync"
	"testing"
)

func TestCountersDisabledByDefault(t *testing.T) {
	if Enabled() {
		t.Fatal("counters enabled at package init")
	}
	before := ReadCounters()
	Inc(CounterFFT)
	Add(CounterSBD, 100)
	got := ReadCounters().Sub(before)
	if got.Total() != 0 {
		t.Fatalf("disabled counters accrued counts: %+v", got)
	}
}

func TestCounterAtomicityUnderGoroutines(t *testing.T) {
	prev := SetEnabled(true)
	defer SetEnabled(prev)
	before := ReadCounters()

	const workers = 8
	const perWorker = 10000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				Inc(CounterSBD)
				Add(CounterEigenIterations, 3)
			}
		}()
	}
	wg.Wait()

	got := ReadCounters().Sub(before)
	if got.SBD != workers*perWorker {
		t.Errorf("SBD = %d, want %d", got.SBD, workers*perWorker)
	}
	if got.EigenIterations != 3*workers*perWorker {
		t.Errorf("EigenIterations = %d, want %d", got.EigenIterations, 3*workers*perWorker)
	}
}

func TestSetEnabledReturnsPrevious(t *testing.T) {
	prev := SetEnabled(true)
	defer SetEnabled(prev)
	if !SetEnabled(false) {
		t.Error("SetEnabled(false) should report previously-enabled")
	}
	if SetEnabled(prev) {
		t.Error("SetEnabled should report previously-disabled")
	}
}

// TestStartTraceOutlivesSetEnabled: counting stays on while any traced run
// is live, whatever SetEnabled is given meanwhile, and returns to the
// SetEnabled state after the last one ends.
func TestStartTraceOutlivesSetEnabled(t *testing.T) {
	prev := SetEnabled(false)
	defer SetEnabled(prev)
	endA := StartTrace()
	endB := StartTrace()
	if SetEnabled(false) || !Enabled() {
		t.Error("SetEnabled(false) switched counting off under live traces")
	}
	endA()
	if !Enabled() {
		t.Error("counting off while trace B is live")
	}
	endB()
	if Enabled() {
		t.Error("counting on after every trace ended")
	}
}

func TestCounterString(t *testing.T) {
	if CounterFFT.String() != "fft" {
		t.Errorf("CounterFFT.String() = %q", CounterFFT.String())
	}
	if CounterEigenIterations.String() != "eigen_iterations" {
		t.Errorf("CounterEigenIterations.String() = %q", CounterEigenIterations.String())
	}
	if Counter(-1).String() != "unknown" || numCounters.String() != "unknown" {
		t.Error("out-of-range counters should stringify as unknown")
	}
}

func TestReportJSONRoundTrip(t *testing.T) {
	r := NewRecorder(0)
	r.RecordRun(RunRecord{
		Method: "k-Shape", Dataset: "CBF", Run: 1, Seconds: 0.25,
		Score: 0.9, ScoreKind: ScoreRandIndex, Iterations: 2, Converged: true,
		Counters: &Counters{FFT: 10, IFFT: 5, SBD: 7},
		Trajectory: []IterationStats{
			{Iteration: 1, Inertia: 12.5, LabelChurn: 30, ClusterSizes: []int{10, 20}, RefineNS: 100, AssignNS: 200},
			{Iteration: 2, Inertia: 11.0, LabelChurn: 0, ClusterSizes: []int{12, 18}, RefineNS: 90, AssignNS: 180, Reseeds: 1},
		},
	})
	r.RecordRun(RunRecord{Method: "SBD", Dataset: "CBF", Score: 0.8, ScoreKind: ScoreAccuracy1NN})
	r.RecordExperiment(ExperimentSpan{Name: "table2", StartNS: 5, DurationNS: 40})
	report := r.Report("kbench", "", []string{"-report", "x.json"}, Counters{FFT: 10, SBD: 7})
	if err := report.Validate(); err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := report.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var back RunReport
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatalf("report does not round-trip: %v", err)
	}
	if back.Tool != "kbench" || len(back.Runs) != 2 || back.Counters.FFT != 10 {
		t.Fatalf("round-trip mismatch: %+v", back)
	}
	run := back.Runs[0]
	if run.Method != "k-Shape" || len(run.Trajectory) != 2 || run.Trajectory[1].Reseeds != 1 ||
		run.Counters == nil || *run.Counters != (Counters{FFT: 10, IFFT: 5, SBD: 7}) {
		t.Fatalf("run record mismatch: %+v", run)
	}
	if back.Runs[1].Counters != nil {
		t.Errorf("a record without counters came back with %+v", back.Runs[1].Counters)
	}
	if len(back.Experiments) != 1 || back.Experiments[0] != (ExperimentSpan{Name: "table2", StartNS: 5, DurationNS: 40}) {
		t.Fatalf("experiments = %+v", back.Experiments)
	}

	// The wire names must stay snake_case and match Counter.String; a
	// record without a counter delta carries no counters key at all.
	var raw struct {
		Counters    map[string]any   `json:"counters"`
		Runs        []map[string]any `json:"runs"`
		Experiments []map[string]any `json:"experiments"`
	}
	if err := json.Unmarshal(buf.Bytes(), &raw); err != nil {
		t.Fatal(err)
	}
	for c := Counter(0); c < numCounters; c++ {
		if _, ok := raw.Counters[c.String()]; !ok {
			t.Errorf("counters JSON missing key %q", c.String())
		}
		if _, ok := raw.Runs[0]["counters"].(map[string]any)[c.String()]; !ok {
			t.Errorf("run counters JSON missing key %q", c.String())
		}
	}
	if _, ok := raw.Runs[1]["counters"]; ok {
		t.Error("record without a counter delta serialized a counters key")
	}
	for _, key := range []string{"name", "start_ns", "duration_ns"} {
		if _, ok := raw.Experiments[0][key]; !ok {
			t.Errorf("experiment JSON missing key %q", key)
		}
	}
}

// TestRecordRunConcurrent records from many goroutines through the
// package-level hook, as a parallel experiment sweep does; run it under
// -race.
func TestRecordRunConcurrent(t *testing.T) {
	RecordRun(RunRecord{Method: "dropped"}) // no recorder: a no-op
	r := NewRecorder(0)
	prev := SetRecorder(r)
	defer SetRecorder(prev)
	var wg sync.WaitGroup
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func(run int) {
			defer wg.Done()
			RecordRun(RunRecord{Method: "m", Run: run, ScoreKind: ScoreRandIndex})
			r.RecordExperiment(ExperimentSpan{Name: "e"})
		}(i)
	}
	wg.Wait()
	rep := r.Report("t", "", nil, Counters{})
	if len(rep.Runs) != 32 || len(rep.Experiments) != 32 {
		t.Fatalf("got %d records and %d experiments, want 32 each", len(rep.Runs), len(rep.Experiments))
	}
	seen := map[int]bool{}
	for _, run := range rep.Runs {
		if run.Method != "m" {
			t.Fatalf("unexpected record %+v", run)
		}
		seen[run.Run] = true
	}
	if len(seen) != 32 {
		t.Errorf("%d distinct runs recorded, want 32", len(seen))
	}
}

func TestCountersSubTotal(t *testing.T) {
	a := Counters{FFT: 5, SBD: 3, Reseeds: 1}
	b := Counters{FFT: 2, SBD: 3}
	d := a.Sub(b)
	if d.FFT != 3 || d.SBD != 0 || d.Reseeds != 1 {
		t.Errorf("Sub = %+v", d)
	}
	if d.Total() != 4 {
		t.Errorf("Total = %d, want 4", d.Total())
	}
}
