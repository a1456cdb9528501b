// Command rootmeasure runs the active measurement campaign and records the
// event stream to a compressed dataset file, the equivalent of the paper's
// published NLNOG-DNS-1 data. The recording opens with a description of its
// run, from which rootanalyze rebuilds the world deterministically.
//
//	rootmeasure -out study.rgds [-checkpoint study.ckpt] [flags]
//	rootmeasure -out study.rgds -checkpoint study.ckpt -resume
//
// -h lists the flags; the groups it shares with the other binaries and the
// exit codes (3: a -chaos kill fired, restart with -resume) are README.md's
// "Front door".
//
// With -checkpoint, the recording is crash-safe: progress is checkpointed
// every -checkpoint-every ticks, and a killed run restarted with -resume
// continues from the checkpoint and produces a byte-identical dataset. The
// resumed run is the one the recording describes: a flag that would describe
// another (-seed, -vpscale, -tlds, -scale, -start, -end, -checkpoint-every)
// is a usage error next to -resume.
//
// -qlog additionally records one flight-recorder event per campaign probe
// and transfer (decode with `rootanalyze -qlog`). The flight log rides the
// same checkpoint protocol as the dataset, so a killed-and-resumed recording
// reproduces it byte-identically; a panic, chaos kill, or error-budget abort
// dumps the in-memory black-box ring to <path>.blackbox.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"repro/internal/cli"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/failpoint"
	"repro/internal/measure"
	"repro/internal/prof"
	"repro/internal/qlog"
	"repro/internal/telemetry"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := cli.NewFlagSet("rootmeasure", stderr)
	cfg := core.DefaultConfig()
	core.WorldFlags(fs, &cfg)
	core.ScheduleFlags(fs, &cfg)
	out := fs.String("out", "study.rgds", "dataset output file")
	checkpoint := fs.String("checkpoint", "", "checkpoint sidecar file (enables crash-safe, resumable recording)")
	fs.IntVar(&cfg.CheckpointEvery, "checkpoint-every", 0, "checkpoint cadence in ticks (0 = 32)")
	resume := fs.Bool("resume", false, "resume the interrupted recording -out from -checkpoint, as the run -out describes")
	failpoint.RegisterFlag(fs)
	flight := qlog.RegisterFlags(fs)
	startProf := prof.RegisterFlags(fs)
	startTel := telemetry.RegisterFlags(fs)
	if code, done := cli.Parse(fs, args); done {
		return code
	}
	if *resume {
		if *checkpoint == "" {
			return cli.Usage(fs, "-resume requires -checkpoint")
		}
		var retyped []string
		fs.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "seed", "vpscale", "tlds", "scale", "start", "end", "checkpoint-every":
				retyped = append(retyped, "-"+f.Name)
			}
		})
		if retyped != nil {
			return cli.Usage(fs, "-resume continues the run %s describes: drop %s", *out, strings.Join(retyped, " "))
		}
	}

	stopProf, err := startProf()
	if err != nil {
		return cli.Fail(fs, err)
	}
	defer stopProf()
	stopTel, err := startTel()
	if err != nil {
		return cli.Fail(fs, err)
	}
	defer stopTel()

	// A resumed run reopens the interrupted recording instead of truncating
	// it, takes its description from it, and builds the same handlers over
	// it: Campaign.Run rewinds each to the offset the checkpoint recorded.
	openFlags := os.O_RDWR | os.O_CREATE | os.O_TRUNC
	if *resume {
		openFlags = os.O_RDWR
	}
	f, err := os.OpenFile(*out, openFlags, 0o666)
	if err != nil {
		return cli.Fail(fs, err)
	}
	defer f.Close()
	if *resume {
		if err := dataset.ReadDescription(f, &cfg.Run); err != nil {
			return cli.Fail(fs, err)
		}
	}
	mCfg, world, err := core.NewWorld(cfg)
	if err != nil {
		return cli.Fail(fs, err)
	}
	mCfg.CheckpointPath, mCfg.Resume = *checkpoint, *resume
	writer, err := dataset.NewWriter(f)
	if err == nil && !*resume {
		err = writer.Describe(cfg.Run)
	}
	if err != nil {
		return cli.Fail(fs, err)
	}
	handlers := []measure.Handler{writer}
	qrec, err := flight.Open(*resume)
	if err != nil {
		return cli.Fail(fs, err)
	}
	defer qrec.Close()
	defer qlog.DumpOnPanic(flight.Blackbox())
	if qrec != nil {
		handlers = append(handlers, measure.NewFlightLog(qrec))
	}

	began := time.Now()
	if err := measure.NewCampaign(mCfg, world).Run(handlers...); err != nil {
		// The black-box ring is the crash artifact itself: a chaos kill and a
		// fatal campaign error (error-budget aborts above all) both leave an
		// inspectable flight-history dump.
		if flight.Path != "" {
			_ = qlog.DumpBlackbox(flight.Blackbox())
		}
		if errors.Is(err, failpoint.ErrKilled) {
			// Simulated SIGKILL: leave without sealing, closing or running
			// what is deferred, so the on-disk state is what a real kill
			// would leave.
			fmt.Fprintf(stderr, "rootmeasure: %v (restart with -resume)\n", err)
			os.Exit(cli.ExitKilled) // exit-guard: the simulated kill
		}
		return cli.Fail(fs, err)
	}
	if err := writer.Close(); err != nil {
		return cli.Fail(fs, err)
	}
	if err := qrec.Close(); err != nil {
		return cli.Fail(fs, err)
	}
	info, _ := f.Stat()
	fmt.Fprintf(stdout, "recorded %d probes and %d transfers from %d VPs in %s",
		writer.Probes, writer.Transfers, len(world.Population.VPs),
		time.Since(began).Round(time.Second))
	if info != nil {
		fmt.Fprintf(stdout, " (%d bytes, %.1f B/event)", info.Size(),
			float64(info.Size())/float64(writer.Probes+writer.Transfers))
	}
	fmt.Fprintln(stdout)
	if qrec != nil {
		fmt.Fprintf(stdout, "flight log: %d events in %s\n", qrec.Events(), flight.Path)
	}
	return cli.ExitOK
}
