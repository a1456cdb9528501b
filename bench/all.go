//go:build linux

package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
)

// resultsFile is what `go run ./bench` writes: the environment the numbers
// were taken in, what was declared, every run, and a summary per workload
// and metric. Two of these are what -compare compares.
type resultsFile struct {
	Command     []string       `json:"command"`
	Environment environment    `json:"environment"`
	Seed        uint64         `json:"seed"`
	Seconds     float64        `json:"seconds"`
	Traced      bool           `json:"traced"`
	Smoke       bool           `json:"smoke,omitempty"`
	Workloads   []workloadInfo `json:"workloads"`
	Metrics     []metricDecl   `json:"metrics"`
	Runs        []*runResult   `json:"runs"`
	// Summary is workload -> metric -> median, quartiles and sample count
	// over that workload's runs.
	Summary map[string]map[string]summary `json:"summary"`
}

type workloadInfo struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// runAll runs every workload runs times, each run in a fresh child of this
// binary under the same contract a driver uses (-workload, -seed, -seconds,
// -trace; the last line is the result), prints the summary and writes the
// results file. It returns the process exit status.
func runAll(seed uint64, seconds float64, traced bool, runs int, smoke bool, outPath string) int {
	if runs < 1 {
		fmt.Fprintln(os.Stderr, "bench: -runs must be at least 1")
		return 2
	}
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	if outPath == "" {
		dir, err := outDir()
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			return 1
		}
		outPath = filepath.Join(dir, "results.json")
		if traced {
			outPath = filepath.Join(dir, "results-trace.json")
		}
	}
	decls := endToEnd
	if traced {
		decls = perLayer
	}
	file := &resultsFile{
		Command:     []string{"go", "run", "./bench"},
		Environment: readEnvironment(),
		Seed:        seed, Seconds: seconds, Traced: traced, Smoke: smoke,
		Metrics: decls,
	}
	status := 0
	for _, w := range workloads {
		file.Workloads = append(file.Workloads, workloadInfo{w.Name, w.Why})
		for r := 0; r < runs; r++ {
			s := seed + uint64(r)
			args := []string{
				"-workload", w.Name, "-seed", strconv.FormatUint(s, 10),
				"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", "0",
			}
			if traced {
				args[len(args)-1] = "1"
			}
			if smoke {
				args = append(args, "-smoke")
			}
			last, err := runChild(self, args)
			var res *runResult
			if last != "" {
				var perr error
				if res, perr = parseLine(last, w.Name, s, traced); perr != nil && err == nil {
					err = fmt.Errorf("unreadable result line: %w", perr)
				}
			}
			if res != nil {
				file.Runs = append(file.Runs, res)
			}
			if err != nil {
				fmt.Fprintf(os.Stderr, "bench: %s seed %d: %v\n", w.Name, s, err)
				status = 1
			}
		}
	}
	file.summarize()
	file.print()
	data, err := json.MarshalIndent(file, "", "  ")
	if err == nil {
		err = os.WriteFile(outPath, append(data, '\n'), 0o644)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: writing results: %v\n", err)
		return 1
	}
	fmt.Printf("results written to %s\n", outPath)
	return status
}

// runChild runs one workload in a child, passing its output through, and
// returns its last line when that line is a JSON object.
func runChild(self string, args []string) (last string, err error) {
	cmd := exec.Command(self, args...)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return "", err
	}
	if err := cmd.Start(); err != nil {
		return "", err
	}
	r := bufio.NewReader(stdout)
	for {
		line, rerr := r.ReadString('\n')
		if t := strings.TrimSpace(line); t != "" {
			last = t
			if !strings.HasPrefix(t, "{") {
				fmt.Println(t)
			}
		}
		if rerr != nil {
			if rerr != io.EOF {
				err = rerr
			}
			break
		}
	}
	if werr := cmd.Wait(); werr != nil && err == nil {
		err = werr
	}
	if !strings.HasPrefix(last, "{") {
		last = ""
	}
	return last, err
}

func (f *resultsFile) summarize() {
	f.Summary = make(map[string]map[string]summary)
	values := make(map[string]map[string][]float64)
	for _, r := range f.Runs {
		if values[r.Workload] == nil {
			values[r.Workload] = make(map[string][]float64)
		}
		for name, v := range r.Metrics {
			values[r.Workload][name] = append(values[r.Workload][name], v)
		}
	}
	for w, byMetric := range values {
		f.Summary[w] = make(map[string]summary)
		for name, vs := range byMetric {
			f.Summary[w][name] = summarize(vs)
		}
	}
}

// print writes one row per workload and metric: median, quartiles, sample
// count and the spread the bound is sized against.
func (f *resultsFile) print() {
	fmt.Printf("\n%-12s %-34s %-6s %16s %16s %16s %3s %8s %6s\n", "workload", "metric", "unit", "median", "q1", "q3", "n", "spread", "bound")
	for _, w := range f.Workloads {
		for _, d := range f.Metrics {
			s, ok := f.Summary[w.Name][d.Name]
			if !ok {
				continue
			}
			sp := 0.0
			if s.Median != 0 {
				sp = (s.Q3 - s.Q1) / s.Median
				if sp < 0 {
					sp = -sp
				}
			}
			bound := "-"
			if d.Bound > 0 {
				bound = fmt.Sprintf("%.0f%%", 100*d.Bound)
			}
			fmt.Printf("%-12s %-34s %-6s %16.4f %16.4f %16.4f %3d %7.2f%% %6s\n", w.Name, d.Name, d.Unit, s.Median, s.Q1, s.Q3, s.N, 100*sp, bound)
		}
	}
	for _, r := range f.Runs {
		if !r.Correct {
			fmt.Printf("OUTPUT CHECK FAILED: %s seed %d\n", r.Workload, r.Seed)
		}
	}
}

func loadResults(path string) (*resultsFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultsFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}
