// Command rootlint runs the repository's static-analysis suite
// (internal/lint) over the module; `rootlint -list` names the analyzers,
// from detrand (no wall clock or global randomness in simulation packages)
// to deadcode (no declaration that no binary reaches). Any finding is a
// build failure: the invariants these analyzers enforce are the ones the
// campaign's byte-identical-output guarantees rest on.
//
// Usage:
//
//	rootlint [-list] [-time] [packages]
//
// The package arguments are accepted for familiarity ("./...") but the
// whole enclosing module is always analyzed: every invariant here is a
// whole-program property. -time prints per-analyzer wall time to stderr
// (plus the load/type-check time), which is what scripts/check.sh uses to
// keep whole-program passes from rotting the edit loop.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/lint"
)

func main() {
	list := flag.Bool("list", false, "list analyzers and exit")
	timing := flag.Bool("time", false, "print per-analyzer wall time to stderr")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: rootlint [-list] [-time] [packages]\n\nAnalyzers:\n")
		for _, a := range lint.Suite() {
			fmt.Fprintf(os.Stderr, "  %-14s %s\n", a.Name, a.Doc)
		}
	}
	flag.Parse()
	if *list {
		for _, a := range lint.Suite() {
			fmt.Printf("%-14s %s\n", a.Name, a.Doc)
		}
		return
	}

	t0 := time.Now()
	prog, err := lint.LoadModule(".")
	if err != nil {
		fmt.Fprintln(os.Stderr, "rootlint:", err)
		os.Exit(2)
	}
	if *timing {
		fmt.Fprintf(os.Stderr, "rootlint: %-14s %8.0fms\n", "load+typecheck", time.Since(t0).Seconds()*1000)
	}

	var diags []lint.Diagnostic
	if *timing {
		// Run analyzers one at a time so each gets its own wall-time line;
		// RunAnalyzers sorts within each call and the final report re-sorts
		// nothing, so ordering per analyzer stays deterministic.
		for _, a := range lint.Suite() {
			ta := time.Now()
			ds, err := lint.RunAnalyzers(prog, []*lint.Analyzer{a})
			if err != nil {
				fmt.Fprintln(os.Stderr, "rootlint:", err)
				os.Exit(2)
			}
			fmt.Fprintf(os.Stderr, "rootlint: %-14s %8.0fms\n", a.Name, time.Since(ta).Seconds()*1000)
			diags = append(diags, ds...)
		}
	} else {
		diags, err = lint.RunAnalyzers(prog, lint.Suite())
		if err != nil {
			fmt.Fprintln(os.Stderr, "rootlint:", err)
			os.Exit(2)
		}
	}
	for _, d := range diags {
		p := prog.Fset.Position(d.Pos)
		fmt.Printf("%s:%d:%d: [%s] %s\n", p.Filename, p.Line, p.Column, d.Analyzer, d.Message)
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "rootlint: %d finding(s)\n", len(diags))
		os.Exit(1)
	}
}
