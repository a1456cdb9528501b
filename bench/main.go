//go:build linux

// Command bench is the repository's one benchmark: four fixed workloads
// (serve_hot, serve_junk, campaign, replay), a handful of end-to-end metrics
// with noise-sized bounds, and a per-layer decomposition taken from outside
// the program under test. See README.md in this directory.
//
// Usage:
//
//	go run ./bench                                   every workload, end to end
//	go run ./bench -trace 1                          every workload, per layer
//	go run ./bench -workload serve_hot -seed 2       one workload, another seed
//	go run ./bench -compare a.json b.json            verdict on two result files
//
// Run with -workload it prints every metric by name and unit and ends with
// one JSON line {"correct","attempted","failed","metrics"}; it exits
// non-zero when an output check fails.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"time"
)

// sizes fixes how much work each workload does. The full sizes are the
// benchmark; the smoke sizes exercise the same code in about a second per
// workload, for the tests.
type sizes struct {
	smoke      bool
	hotCorpus  int
	junkPrimer int
	campaign   studySize
	replay     studySize
	// answerTimeout overrides the generator's one second when positive, and
	// loopBudget is how long each function-level loop of a traced run lasts.
	answerTimeout time.Duration
	loopBudget    time.Duration
}

func fullSizes() sizes {
	return sizes{
		hotCorpus:  hotCorpusSize,
		junkPrimer: junkPrimer,
		// The whole timeline at a quarter of the VP population, thinned to one
		// round every four days: about 470k events and six seconds a pass.
		campaign:   studySize{scale: 192, vpScale: 4, tlds: 80},
		replay:     studySize{scale: 192, vpScale: 4, tlds: 80},
		loopBudget: 150 * time.Millisecond,
	}
}

func smokeSizes() sizes {
	month := studySize{
		scale: 512, vpScale: 20, tlds: 20,
		start: time.Date(2023, 9, 1, 0, 0, 0, 0, time.UTC),
		end:   time.Date(2023, 10, 1, 0, 0, 0, 0, time.UTC),
	}
	return sizes{
		smoke: true, hotCorpus: 256, junkPrimer: 64, campaign: month, replay: month,
		// The tests run beside every other package's: a server child may
		// wait seconds for a CPU, and that must not read as lost queries.
		answerTimeout: 10 * time.Second,
		loopBudget:    5 * time.Millisecond,
	}
}

func sizesFor(smoke bool) sizes {
	if smoke {
		return smokeSizes()
	}
	return fullSizes()
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "-child" {
		os.Exit(childMain(os.Args[2:]))
	}
	workload := flag.String("workload", "", "run one workload (serve_hot, serve_junk, campaign, replay); empty = all")
	seed := flag.Uint64("seed", 1, "workload seed: the same seed gives the same inputs")
	seconds := flag.Float64("seconds", defaultSeconds, "how long one run measures")
	trace := flag.Int("trace", 0, "0 = end-to-end metrics with tracing off; 1 = the traced run and per-layer metrics")
	runs := flag.Int("runs", 3, "with no -workload: runs per workload, at seeds seed, seed+1, ...")
	out := flag.String("out", "", "with no -workload: write the results to this file (default bench/out/results.json)")
	smoke := flag.Bool("smoke", false, "tiny sizes: exercise every workload in seconds, measuring nothing worth keeping")
	compare := flag.Bool("compare", false, "compare two result files: bench -compare a.json b.json")
	declare := flag.Bool("declare", false, "print BENCHMARK.json as decl.go declares it")
	flag.Parse()

	switch {
	case *compare:
		os.Exit(compareMain(flag.Args()))
	case *declare:
		fmt.Print(benchmarkJSON())
		return
	case flag.NArg() != 0:
		fmt.Fprintf(os.Stderr, "bench: unexpected arguments %q\n", flag.Args())
		os.Exit(2)
	case *trace != 0 && *trace != 1:
		fmt.Fprintln(os.Stderr, "bench: -trace wants 0 or 1")
		os.Exit(2)
	case *workload == "":
		os.Exit(runAll(*seed, *seconds, *trace == 1, *runs, *smoke, *out))
	}
	os.Exit(runOne(*workload, *seed, *seconds, *trace == 1, sizesFor(*smoke)))
}

// runOne runs one workload in this process and prints its result line.
func runOne(name string, seed uint64, seconds float64, traced bool, sz sizes) int {
	w := findWorkload(name)
	if w == nil {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", name)
		return 2
	}
	if seconds <= 0 {
		fmt.Fprintln(os.Stderr, "bench: -seconds must be positive")
		return 2
	}
	var res *runResult
	var err error
	decls := endToEnd
	if traced {
		decls = perLayer
		res, err = runTraced(name, sz, seed, seconds)
	} else {
		res, err = w.run(sz, seed, seconds)
	}
	if err == nil {
		err = res.conform(decls)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %s: %v\n", name, err)
		return 1
	}
	res.print(decls)
	fmt.Println(res.line(decls))
	if !res.Correct {
		return 1
	}
	return 0
}

// childMain runs one of the benchmark's own child roles.
func childMain(args []string) int {
	var err error
	switch {
	case len(args) == 1 && args[0] == "echo":
		err = runEcho()
	case len(args) == 4 && args[0] == "record":
		var smoke bool
		var seed uint64
		if smoke, err = strconv.ParseBool(args[1]); err != nil {
			break
		}
		if seed, err = strconv.ParseUint(args[2], 10, 64); err != nil {
			break
		}
		var p, t int
		if p, t, err = recordDataset(sizesFor(smoke).replay, seed, args[3]); err == nil {
			fmt.Printf("recorded %d %d\n", p, t)
		}
	default:
		err = fmt.Errorf("unknown child role %q", args)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench child: %v\n", err)
		return 1
	}
	return 0
}
