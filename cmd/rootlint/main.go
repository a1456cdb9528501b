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
	"fmt"
	"io"
	"os"
	"sort"
	"time"

	"repro/internal/cli"
	"repro/internal/lint"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := cli.NewFlagSet("rootlint", stderr)
	list := fs.Bool("list", false, "list analyzers and exit")
	timing := fs.Bool("time", false, "print per-analyzer wall time to stderr")
	listTo := func(w io.Writer, indent string) {
		for _, a := range lint.Suite() {
			fmt.Fprintf(w, "%s%-14s %s\n", indent, a.Name, a.Doc)
		}
	}
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: rootlint [-list] [-time] [packages]\n\nAnalyzers:\n")
		listTo(stderr, "  ")
	}
	if code, done := cli.Parse(fs, args); done {
		return code
	}
	if *list {
		listTo(stdout, "")
		return cli.ExitOK
	}
	// Every analyzer runs in a call of its own, so that -time can give each
	// its line; the findings are put back in position order below.
	timed := func(what string, step func() error) error {
		t0 := time.Now()
		err := step()
		if *timing {
			fmt.Fprintf(stderr, "rootlint: %-14s %8.0fms\n", what, time.Since(t0).Seconds()*1000)
		}
		return err
	}

	var prog *lint.Program
	err := timed("load+typecheck", func() (err error) {
		prog, err = lint.LoadModule(".")
		return err
	})
	var diags []lint.Diagnostic
	for _, a := range lint.Suite() {
		if err != nil {
			break
		}
		err = timed(a.Name, func() error {
			ds, err := lint.RunAnalyzers(prog, []*lint.Analyzer{a})
			diags = append(diags, ds...)
			return err
		})
	}
	if err != nil {
		return cli.Usage(fs, "%v", err)
	}
	sort.SliceStable(diags, func(i, j int) bool { return diags[i].Pos < diags[j].Pos })
	for _, d := range diags {
		p := prog.Fset.Position(d.Pos)
		fmt.Fprintf(stdout, "%s:%d:%d: [%s] %s\n", p.Filename, p.Line, p.Column, d.Analyzer, d.Message)
	}
	if len(diags) > 0 {
		fmt.Fprintf(stderr, "rootlint: %d finding(s)\n", len(diags))
		return cli.ExitFailed
	}
	return cli.ExitOK
}
