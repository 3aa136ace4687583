// Command perfbench is the repository's workload benchmark. It drives
// kshape.Cluster through one named workload and prints, as the last line
// of its standard output, one JSON object with the run's end-to-end metrics
// (--trace 0) or per-layer metrics from a traced replay (--trace 1). See
// README.md in this directory for the workloads, the metrics and the
// baseline.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload kshape-wide --seed 1 --seconds 30 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
)

// metric is one named measurement with its unit.
type metric struct {
	name, unit string
	value      float64
}

// report is the outcome of one run.
type report struct {
	attempted, failed int
	metrics           []metric
}

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload name: kshape-long, kshape-wide or archive-mix")
	seed := fs.Int64("seed", 1, "workload seed: fixes every job's data and initial assignment")
	seconds := fs.Float64("seconds", 30, "how long to measure")
	trace := fs.Int("trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics from a traced replay")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	w, err := workloadByName(*name)
	if err != nil {
		return err
	}
	var rep *report
	switch *trace {
	case 0:
		rep, err = runEndToEnd(w, *seed, *seconds)
	case 1:
		rep, err = runTraced(w, *seed, *seconds)
	default:
		return fmt.Errorf("--trace %d: want 0 or 1", *trace)
	}
	if err != nil {
		return err
	}
	line, err := rep.json()
	if err != nil {
		return err
	}
	fmt.Println(line)
	return nil
}

// json renders the report as the one-line result object.
func (r *report) json() (string, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]value, len(r.metrics))
	for _, m := range r.metrics {
		if math.IsNaN(m.value) || math.IsInf(m.value, 0) {
			return "", fmt.Errorf("metric %s is %v", m.name, m.value)
		}
		fmt.Fprintf(os.Stderr, "  %-26s %14.6g %s\n", m.name, m.value, m.unit)
		metrics[m.name] = value{m.value, m.unit}
	}
	out, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.failed == 0, r.attempted, r.failed, metrics})
	return string(out), err
}
