// Command rootmeasure runs the active measurement campaign and records the
// event stream to a compressed dataset file, the equivalent of the paper's
// published NLNOG-DNS-1 data. Analyze the recording with rootanalyze using
// the same seed and scale flags (the world is reconstructed
// deterministically from them).
//
// Usage:
//
//	rootmeasure -out study.rgds [-seed 1] [-workers N] [-scale 96] [-vpscale 1] [-start YYYY-MM-DD] [-end YYYY-MM-DD]
//	            [-checkpoint study.ckpt] [-checkpoint-every N] [-resume] [-errbudget N] [-chaos spec]
//	            [-qlog flight.qlog] [-qlog-sample every=64,seed=7]
//	            [-cpuprofile prof.out] [-memprofile mem.out]
//	            [-metrics out.json] [-trace out.json] [-telemetry-addr host:port]
//
// With -checkpoint, the recording is crash-safe: progress is checkpointed
// every -checkpoint-every ticks, and a killed run restarted with -resume
// continues from the checkpoint and produces a byte-identical dataset.
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
	"os"
	"time"

	"repro/internal/dataset"
	"repro/internal/failpoint"
	"repro/internal/measure"
	"repro/internal/prof"
	"repro/internal/qlog"
	"repro/internal/telemetry"
	"repro/internal/topology"
	"repro/internal/vantage"
)

func main() {
	out := flag.String("out", "study.rgds", "dataset output file")
	seed := flag.Int64("seed", 1, "world seed (must match rootanalyze)")
	workers := flag.Int("workers", 0, "campaign worker goroutines (0 = one per CPU; recorded datasets are identical at any count)")
	scale := flag.Int("scale", 96, "schedule thinning factor")
	vpScale := flag.Int("vpscale", 1, "VP population divisor (must match rootanalyze)")
	tlds := flag.Int("tlds", 80, "synthesized root zone TLD count")
	start := flag.String("start", "", "campaign start (YYYY-MM-DD)")
	end := flag.String("end", "", "campaign end (YYYY-MM-DD)")
	checkpoint := flag.String("checkpoint", "", "checkpoint sidecar file (enables crash-safe, resumable recording)")
	ckptEvery := flag.Int("checkpoint-every", 0, "checkpoint cadence in ticks (0 = 32; must match between a run and its resume)")
	resume := flag.Bool("resume", false, "resume an interrupted recording from -checkpoint")
	errBudget := flag.Int("errbudget", 0, "degraded outcomes (recovered panics, probe errors, retried write errors) tolerated before aborting; negative = unlimited")
	chaos := flag.String("chaos", "", "failpoint spec site=action[@N][,...] with action panic|error|kill, e.g. campaign/tick=kill@5")
	qlogPath := flag.String("qlog", "", "record a per-event flight log to this file (empty = off)")
	qlogSample := flag.String("qlog-sample", "", "flight-log sampler, e.g. every=64,seed=7 (empty = every event)")
	telemetry.RegisterFlags()
	flag.Parse()

	if *chaos != "" {
		if err := failpoint.Enable(*chaos); err != nil {
			fatal(err)
		}
	}
	if *resume && *checkpoint == "" {
		fatal(errors.New("-resume requires -checkpoint"))
	}

	stopProf, err := prof.Start()
	if err != nil {
		fatal(err)
	}
	defer stopProf()

	stopTel, err := telemetry.Start()
	if err != nil {
		fatal(err)
	}
	defer stopTel()

	mCfg := measure.DefaultConfig()
	mCfg.Seed, mCfg.Scale, mCfg.TLDCount = *seed, *scale, *tlds
	mCfg.Workers = *workers
	mCfg.CheckpointPath = *checkpoint
	mCfg.CheckpointEvery = *ckptEvery
	mCfg.Resume = *resume
	mCfg.ErrorBudget = *errBudget
	if *start != "" {
		t, err := time.Parse("2006-01-02", *start)
		if err != nil {
			fatal(err)
		}
		mCfg.Start = t
	}
	if *end != "" {
		t, err := time.Parse("2006-01-02", *end)
		if err != nil {
			fatal(err)
		}
		mCfg.End = t
	}
	topoCfg := topology.DefaultConfig()
	topoCfg.Seed = *seed
	vpCfg := vantage.DefaultConfig()
	vpCfg.Seed = *seed
	vpCfg.Scale = *vpScale

	world, err := measure.NewWorld(mCfg, topoCfg, vpCfg)
	if err != nil {
		fatal(err)
	}
	// A resumed run reopens the interrupted recording instead of truncating
	// it, and builds the same handlers over it: Campaign.Run rewinds each to
	// the offset the checkpoint recorded.
	openFlags := os.O_RDWR | os.O_CREATE | os.O_TRUNC
	if *resume {
		openFlags = os.O_RDWR
	}
	f, err := os.OpenFile(*out, openFlags, 0o666)
	if err != nil {
		fatal(err)
	}
	defer f.Close()
	writer, err := dataset.NewWriter(f)
	if err != nil {
		fatal(err)
	}
	handlers := []measure.Handler{writer}
	var qrec *qlog.Recorder
	blackbox := ""
	if *qlogPath != "" {
		sampler, err := qlog.ParseSampler(*qlogSample)
		if err != nil {
			fatal(err)
		}
		blackbox = *qlogPath + ".blackbox"
		qf, err := os.OpenFile(*qlogPath, openFlags, 0o666)
		if err != nil {
			fatal(err)
		}
		defer qf.Close()
		if qrec, err = qlog.New(qf, sampler, blackbox); err != nil {
			fatal(err)
		}
		defer qlog.DumpOnPanic(blackbox)
		handlers = append(handlers, measure.NewFlightLog(qrec))
	}

	began := time.Now()
	if err := measure.NewCampaign(mCfg, world).Run(handlers...); err != nil {
		if errors.Is(err, failpoint.ErrKilled) {
			// Simulated SIGKILL: exit without sealing or closing, leaving
			// the on-disk state exactly as a real kill would — except the
			// black-box ring, which is the crash artifact itself: every
			// chaos kill leaves an inspectable flight-history dump.
			if blackbox != "" {
				_ = qlog.DumpBlackbox(blackbox)
			}
			fmt.Fprintf(os.Stderr, "rootmeasure: %v (restart with -resume)\n", err)
			os.Exit(3)
		}
		// Fatal campaign errors (error-budget aborts above all) leave the
		// same trace.
		if blackbox != "" {
			_ = qlog.DumpBlackbox(blackbox)
		}
		fatal(err)
	}
	if err := writer.Close(); err != nil {
		fatal(err)
	}
	if err := qrec.Close(); err != nil {
		fatal(err)
	}
	info, _ := f.Stat()
	fmt.Printf("recorded %d probes and %d transfers from %d VPs in %s",
		writer.Probes, writer.Transfers, len(world.Population.VPs),
		time.Since(began).Round(time.Second))
	if info != nil {
		fmt.Printf(" (%d bytes, %.1f B/event)", info.Size(),
			float64(info.Size())/float64(writer.Probes+writer.Transfers))
	}
	fmt.Println()
	if qrec != nil {
		fmt.Printf("flight log: %d events in %s\n", qrec.Events(), *qlogPath)
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "rootmeasure: %v\n", err)
	os.Exit(1)
}
