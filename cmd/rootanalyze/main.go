// Command rootanalyze replays a dataset recorded by rootmeasure through the
// full analysis suite and prints every active-measurement table and figure.
// The world is rebuilt from the description of its run the recording opens
// with: no flag here can name another.
//
//	rootanalyze -in study.rgds [-workers 4] [-checkpoint replay.ckpt [-resume]]
//	rootanalyze -diff a.json b.json
//	rootanalyze [-filter kind=...,class=...,rcode=...] -qlog show|compose flight.qlog
//	rootanalyze -qlog diff a.qlog b.qlog
//	rootanalyze -qlog join server.qlog client.qlog
//
// Flags come before the mode's arguments. -h lists them; the groups shared
// with the other binaries and the exit codes are README.md's "Front door".
//
// With -workers > 1 the sealed blocks of the dataset are decoded by a
// bounded worker pool while an ordered drain keeps every analysis output
// byte-identical to a serial replay. With -checkpoint the replay is
// crash-safe: accumulator state is sealed to the sidecar as blocks are
// delivered, and -resume fast-forwards a restarted replay past the
// checkpointed blocks after verifying the dataset fingerprint.
//
// -diff compares two -metrics snapshots on their logical (deterministic)
// namespace and prints a one-line verdict: "behavior unchanged" when every
// stream- and process-class metric matches, "behavior changed" otherwise.
// Like cmp: exit 0 means unchanged, 1 changed, 2 a file it cannot compare.
//
// -qlog switches to flight-log mode (see runQlog): decode and filter a
// per-query flight recording, print composition tables, diff two logs in
// canonical order, or join a server-side log against a client-side one and
// check the loss accounting balances.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/analysis"
	"repro/internal/cli"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/telemetry"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := cli.NewFlagSet("rootanalyze", stderr)
	in := fs.String("in", "study.rgds", "dataset input file")
	workers := fs.Int("workers", 1, "block-decode workers (output is identical at any count)")
	checkpoint := fs.String("checkpoint", "", "checkpoint sidecar path (enables crash-safe replay)")
	resume := fs.Bool("resume", false, "resume from -checkpoint if it exists")
	diff := fs.Bool("diff", false, "compare two -metrics snapshots: rootanalyze -diff a.json b.json")
	qlogMode := fs.Bool("qlog", false, "flight-log mode: rootanalyze -qlog <show|compose|diff|join> file...")
	var filter qlogFilter
	fs.Var(&filter, "filter", "event filter `spec` for -qlog show/compose (kind=...,class=...,rcode=...)")
	startTel := telemetry.RegisterFlags(fs)
	if code, done := cli.Parse(fs, args); done {
		return code
	}
	switch {
	case *diff:
		return runDiff(fs, stdout)
	case *qlogMode:
		return runQlog(fs, stdout, filter)
	case fs.NArg() != 0:
		return cli.Usage(fs, "unexpected arguments %q", fs.Args())
	case *resume && *checkpoint == "":
		return cli.Usage(fs, "-resume requires -checkpoint")
	}

	stopTel, err := startTel()
	if err != nil {
		return cli.Fail(fs, err)
	}
	defer stopTel()

	f, err := os.Open(*in)
	if err != nil {
		return cli.Fail(fs, err)
	}
	defer f.Close()
	var cfg core.Config
	if err := dataset.ReadDescription(f, &cfg.Run); err != nil {
		return cli.Fail(fs, err)
	}
	_, world, err := core.NewWorld(cfg)
	if err != nil {
		return cli.Fail(fs, err)
	}
	reader, err := dataset.NewReader(f, world.Population)
	if err != nil {
		return cli.Fail(fs, err)
	}
	defer reader.Close()

	coverage := analysis.NewCoverage(world.System)
	stability := analysis.NewStability()
	colocation := analysis.NewColocation(world.Population)
	distance := analysis.NewDistance(world.System, world.Population)
	rtt := analysis.NewRTT()
	integrity := analysis.NewIntegrity()

	opts := dataset.ReplayOptions{
		Workers:        *workers,
		CheckpointPath: *checkpoint,
		Resume:         *resume,
	}
	probes, transfers, err := reader.ReplayWith(opts,
		coverage, stability, colocation, distance, rtt, integrity)
	if err != nil {
		return cli.Fail(fs, err)
	}
	if reader.Torn() {
		fmt.Fprintf(stderr, "rootanalyze: warning: dataset has a torn trailing block (%v); "+
			"replayed the sealed prefix only — the recording was likely interrupted "+
			"and can be completed with rootmeasure -resume\n", reader.TornReason())
	}
	fmt.Fprintf(stdout, "replayed %d probes, %d transfers from %s\n", probes, transfers, *in)
	for _, write := range []func(io.Writer){
		coverage.WriteTable1, coverage.WriteTable4, stability.WriteFigure3,
		colocation.WriteFigure4, distance.WriteFigure5, rtt.WriteFigure6,
		rtt.WriteFigure14, integrity.WriteTable2, integrity.WriteFigure10,
	} {
		fmt.Fprintln(stdout)
		write(stdout)
	}
	return cli.ExitOK
}

// runDiff implements -diff: load two snapshots, compare the logical
// namespace, print the verdict. Like cmp, it answers 0 for no difference, 1
// for a difference and 2 for a file it cannot compare.
func runDiff(fs *flag.FlagSet, stdout io.Writer) int {
	if fs.NArg() != 2 {
		return cli.Usage(fs, "-diff wants exactly two snapshot files")
	}
	a, errA := os.ReadFile(fs.Arg(0))
	b, errB := os.ReadFile(fs.Arg(1))
	if err := errors.Join(errA, errB); err != nil {
		return cli.Usage(fs, "%v", err)
	}
	res, err := telemetry.DiffSnapshots(a, b)
	if err != nil {
		return cli.Usage(fs, "%v", err)
	}
	res.WriteDiff(stdout)
	if res.Identical() {
		return cli.ExitOK
	}
	return cli.ExitFailed
}
