//go:build linux

package main

import (
	"fmt"
	"math"
	"os"

	"repro/internal/stats"
)

// verdict is what -compare says about one metric on one workload. There is
// no combined score: every pair gets its own row.
type verdict string

const (
	// same: the candidate's median is within the bound of the baseline's.
	same verdict = "same"
	// worse: the candidate's median is worse by more than the bound.
	worse verdict = "worse"
	// better: every candidate run beats every baseline run, or the medians
	// differ by more than the baseline's own spread and nine runs in ten
	// beat the baseline's median.
	better verdict = "better"
	// unresolved: the runs of one side spread wider than the bound, so the
	// comparison cannot tell a regression from noise.
	unresolved verdict = "unresolved"
)

// judge compares candidate runs b against baseline runs a of one metric.
func judge(d metricDecl, a, b []float64) verdict {
	if len(a) == 0 || len(b) == 0 {
		return unresolved
	}
	// sign turns "worse" into "larger" for either direction.
	sign := 1.0
	if d.Better == "higher" {
		sign = -1
	}
	medA, medB := stats.Median(a), stats.Median(b)
	if allBetter(sign, a, b) && medA != medB {
		return better
	}
	if math.Max(spread(a), spread(b)) > d.Bound {
		return unresolved
	}
	if sign*(medB-medA) > d.Bound*math.Abs(medA) {
		return worse
	}
	q1, _, q3 := quartiles(a)
	if sign*(medA-medB) > math.Abs(q3-q1) && winShare(sign, medA, b) >= 0.9 {
		return better
	}
	return same
}

// allBetter reports whether every run of b reads better than every run of a.
func allBetter(sign float64, a, b []float64) bool {
	worstB, bestA := math.Inf(-1), math.Inf(1)
	for _, v := range b {
		worstB = math.Max(worstB, sign*v)
	}
	for _, v := range a {
		bestA = math.Min(bestA, sign*v)
	}
	return worstB < bestA
}

// winShare is the share of runs in b that beat the baseline's median.
func winShare(sign, medA float64, b []float64) float64 {
	wins := 0
	for _, v := range b {
		if sign*v < sign*medA {
			wins++
		}
	}
	return float64(wins) / float64(len(b))
}

// values collects one metric's readings over a workload's runs.
func (f *resultsFile) values(workload, metric string) []float64 {
	var vs []float64
	for _, r := range f.Runs {
		if v, ok := r.Metrics[metric]; ok && r.Workload == workload {
			vs = append(vs, v)
		}
	}
	return vs
}

// compareMain implements -compare a.json b.json: a is the baseline, b the
// candidate. It prints one row per (metric, workload) pair that carries a
// bound and exits non-zero when any pair is worse or any run of the
// candidate failed an output check.
func compareMain(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "bench: -compare wants exactly two result files: baseline candidate")
		return 2
	}
	a, err := loadResults(args[0])
	if err == nil {
		var b *resultsFile
		if b, err = loadResults(args[1]); err == nil {
			return compareFiles(a, b)
		}
	}
	fmt.Fprintf(os.Stderr, "bench: %v\n", err)
	return 2
}

func compareFiles(a, b *resultsFile) int {
	counts := make(map[verdict]int)
	fmt.Printf("%-12s %-20s %14s %14s %9s %9s %7s  %s\n", "workload", "metric", "baseline", "candidate", "change", "spread", "bound", "verdict")
	for _, w := range a.Workloads {
		for _, d := range a.Metrics {
			if d.Bound <= 0 {
				continue
			}
			va, vb := a.values(w.Name, d.Name), b.values(w.Name, d.Name)
			v := judge(d, va, vb)
			counts[v]++
			medA, medB := stats.Median(va), stats.Median(vb)
			fmt.Printf("%-12s %-20s %14.4f %14.4f %+8.2f%% %8.2f%% %6.0f%%  %s\n", w.Name, d.Name, medA, medB,
				100*(medB-medA)/math.Abs(medA), 100*math.Max(spread(va), spread(vb)), 100*d.Bound, v)
		}
	}
	failed := 0
	for _, r := range b.Runs {
		if !r.Correct {
			failed++
			fmt.Printf("candidate run failed its output checks: %s seed %d\n", r.Workload, r.Seed)
		}
	}
	fmt.Printf("same=%d better=%d worse=%d unresolved=%d\n", counts[same], counts[better], counts[worse], counts[unresolved])
	if counts[worse] > 0 || failed > 0 {
		return 1
	}
	return 0
}
