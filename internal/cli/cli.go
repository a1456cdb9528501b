// Package cli is what the binaries under cmd/ share at their front door
// (README.md, "Front door"): each is a run(args, stdout, stderr) that returns
// its exit code to a one-line main, so what it deferred happens on every way
// out and a test can call it. Here are the exit-code table, the flag-set
// plumbing of a run, and the walker of the key=value spec grammar (walk.go).
package cli

import (
	"errors"
	"flag"
	"fmt"
	"io"
)

// The exit codes of every binary.
const (
	ExitOK     = 0 // done; for the comparing modes (rootanalyze -diff, -qlog diff|join, rootlint): nothing differs, nothing found
	ExitFailed = 1 // the run failed; a comparing mode found a difference or a finding
	ExitUsage  = 2 // the command line was refused before anything ran; for a comparing mode, as with cmp, also an input it cannot read
	ExitKilled = 3 // a kill failpoint fired (rootmeasure -chaos …=kill): restart with -resume
)

// NewFlagSet starts a run's flag set: errors are returned, not exited on,
// and usage and diagnostics go to stderr.
func NewFlagSet(name string, stderr io.Writer) *flag.FlagSet {
	fs := flag.NewFlagSet(name, flag.ContinueOnError)
	fs.SetOutput(stderr)
	return fs
}

// Parse parses args into fs. done reports that the run is over already, with
// the code to return: -h printed the usage (ExitOK), or the flag package
// refused the command line and said why (ExitUsage).
func Parse(fs *flag.FlagSet, args []string) (code int, done bool) {
	switch err := fs.Parse(args); {
	case err == nil:
		return ExitOK, false
	case errors.Is(err, flag.ErrHelp):
		return ExitOK, true
	}
	return ExitUsage, true
}

// Fail reports err under the binary's name and returns ExitFailed.
func Fail(fs *flag.FlagSet, err error) int {
	fmt.Fprintf(fs.Output(), "%s: %v\n", fs.Name(), err)
	return ExitFailed
}

// Usage reports a command line the flag package accepted but the binary does
// not, and returns ExitUsage.
func Usage(fs *flag.FlagSet, format string, args ...any) int {
	fmt.Fprintf(fs.Output(), "%s: %s\n", fs.Name(), fmt.Sprintf(format, args...))
	return ExitUsage
}
