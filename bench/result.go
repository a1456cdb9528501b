//go:build linux

package main

import (
	"encoding/json"
	"fmt"
	"math"
)

// maxFailedShare is how large a share of operations may fail before the run
// itself counts as incorrect. Below it, failures are reported (and a later
// change is judged on them) but the outputs that did arrive were all
// checked and right.
const maxFailedShare = 0.005

// metricDecl declares one metric: BENCHMARK.json lists exactly these.
type metricDecl struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// runResult is what one run of one workload produced.
type runResult struct {
	Workload  string             `json:"workload"`
	Seed      uint64             `json:"seed"`
	Traced    bool               `json:"traced"`
	Pinned    bool               `json:"pinned"`
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Metrics   map[string]float64 `json:"metrics"`
	Problems  []string           `json:"problems,omitempty"`
}

func newRunResult(workload string, seed uint64, traced bool) *runResult {
	return &runResult{Workload: workload, Seed: seed, Traced: traced, Correct: true, Metrics: make(map[string]float64)}
}

func (r *runResult) set(name string, v float64) { r.Metrics[name] = v }

// fail records that an output check did not hold.
func (r *runResult) fail(format string, args ...any) {
	r.Correct = false
	r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
}

// checkFailedShare turns too many failed operations into an incorrect run.
func (r *runResult) checkFailedShare() {
	if r.Attempted > 0 && float64(r.Failed)/float64(r.Attempted) > maxFailedShare {
		r.fail("%d of %d operations failed: more than %.1f%%", r.Failed, r.Attempted, 100*maxFailedShare)
	}
}

// conform checks that the result carries exactly the declared metrics, each
// a finite number.
func (r *runResult) conform(decls []metricDecl) error {
	want := make(map[string]bool, len(decls))
	for _, d := range decls {
		want[d.Name] = true
		v, ok := r.Metrics[d.Name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", d.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s is %v", d.Name, v)
		}
	}
	for name := range r.Metrics {
		if !want[name] {
			return fmt.Errorf("metric %s is not declared", name)
		}
	}
	if r.Attempted < 1 {
		return fmt.Errorf("no operation was attempted")
	}
	return nil
}

// print writes every metric by name with its unit, then any failed checks.
func (r *runResult) print(decls []metricDecl) {
	mode := "end to end"
	if r.Traced {
		mode = "per layer (traced)"
	}
	fmt.Printf("== %s seed=%d %s: attempted=%d failed=%d correct=%v\n", r.Workload, r.Seed, mode, r.Attempted, r.Failed, r.Correct)
	for _, d := range decls {
		fmt.Printf("%-34s %16.4f %s\n", d.Name, r.Metrics[d.Name], d.Unit)
	}
	for _, p := range r.Problems {
		fmt.Printf("CHECK FAILED: %s\n", p)
	}
}

// line is the run's last line of output: one JSON object with exactly the
// keys correct, attempted, failed and metrics.
func (r *runResult) line(decls []metricDecl) string {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, make(map[string]value, len(decls))}
	for _, d := range decls {
		out.Metrics[d.Name] = value{r.Metrics[d.Name], d.Unit}
	}
	b, err := json.Marshal(out)
	if err != nil {
		panic(err) // finite floats, strings, ints and bools always marshal
	}
	return string(b)
}

// parseLine reads a last line back into a result.
func parseLine(line string, workload string, seed uint64, traced bool) (*runResult, error) {
	var in struct {
		Correct   bool `json:"correct"`
		Attempted int  `json:"attempted"`
		Failed    int  `json:"failed"`
		Metrics   map[string]struct {
			Value float64 `json:"value"`
		} `json:"metrics"`
	}
	if err := json.Unmarshal([]byte(line), &in); err != nil {
		return nil, err
	}
	r := newRunResult(workload, seed, traced)
	r.Correct, r.Attempted, r.Failed = in.Correct, in.Attempted, in.Failed
	for name, v := range in.Metrics {
		r.Metrics[name] = v.Value
	}
	return r, nil
}
