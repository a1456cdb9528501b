// Command rootblast is a DNS load generator modeled on ZDNS's client
// architecture: sharded connected UDP sockets, pipelined queries matched by
// message ID, and a seeded query-composition generator reproducing the
// B-Root traffic mix (A/AAAA ratios, junk queries for nonexistent TLDs,
// heavy-hitter TLD skew, DNSSEC DO-bit ratio). It reports throughput and a
// latency distribution read from the telemetry layer's per-bucket
// histograms.
//
//	rootblast [-server 127.0.0.1:5353] [-duration 5s | -count N] [flags]
//
// -h lists the flags (the mix, the window, retry and backoff, a client-side
// -netem); the groups it shares with the other binaries and the exit codes
// are README.md's "Front door".
//
// -qlog records one blast/query flight-recorder event per sampled query at
// its terminal outcome (decode with `rootanalyze -qlog`); a panic dumps the
// black-box ring to <path>.blackbox. Give the server the same -qlog-sample
// spec so `rootanalyze -qlog join` can pair both sides' records.
package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"time"

	"repro/internal/blast"
	"repro/internal/cli"
	"repro/internal/prof"
	"repro/internal/qlog"
	"repro/internal/telemetry"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := cli.NewFlagSet("rootblast", stderr)
	mix := blast.DefaultMix()
	cfg := blast.Config{}
	fs.StringVar(&cfg.Addr, "server", "127.0.0.1:5353", "target server address (UDP)")
	fs.DurationVar(&cfg.Duration, "duration", 5*time.Second, "how long to blast (ignored when -count is set)")
	fs.Int64Var(&cfg.Count, "count", 0, "total queries to send instead of a duration")
	fs.IntVar(&cfg.Workers, "blast-workers", 4, "independent client sockets, each with its own pipeline")
	fs.IntVar(&cfg.Window, "window", 64, "outstanding (pipelined) queries per socket")
	fs.DurationVar(&cfg.Timeout, "timeout", 250*time.Millisecond, "reap outstanding queries older than this")
	tlds := fs.Int("tlds", 120, "TLD delegation count of the target zone (must match rootserve -tlds)")
	seed := fs.Uint64("seed", 1, "query-composition seed")
	corpusSize := fs.Int("corpus", 8192, "distinct queries to pregenerate")
	fs.Float64Var(&mix.Junk, "junk", mix.Junk, "fraction of A/AAAA qnames naming a nonexistent TLD")
	fs.Float64Var(&mix.AAAA, "aaaa", mix.AAAA, "AAAA fraction of all queries")
	fs.Float64Var(&mix.DO, "do", mix.DO, "fraction of queries with EDNS0 and the DO bit")
	fs.Float64Var(&mix.Skew, "skew", mix.Skew, "heavy-hitter Zipf exponent over existing TLDs")
	fs.IntVar(&cfg.Retries, "retry", 0, "re-sends per query after its attempt deadline expires (same ID, same wire)")
	fs.DurationVar(&cfg.Backoff.Base, "backoff", 0, "base delay folded into each retry's deadline; 0 = immediate, like dig")
	fs.DurationVar(&cfg.Backoff.Cap, "backoff-cap", 0, "cap on the exponential backoff; 0 = 8x base")
	fs.Var(&cfg.Netem, "netem", "client-side adverse-network profile `spec`, e.g. loss=0.1,seed=7 (see internal/netem)")
	flight := qlog.RegisterFlags(fs)
	report := fs.String("report", "", "write the run report as JSON to `file`")
	startProf := prof.RegisterFlags(fs)
	startTel := telemetry.RegisterFlags(fs)
	if code, done := cli.Parse(fs, args); done {
		return code
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
	// The RTT histogram is the tool's primary output; record it whether or
	// not a telemetry flag was given.
	telemetry.SetEnabled(true)

	if cfg.Corpus, err = blast.BuildCorpus(mix, *tlds, *corpusSize, *seed); err != nil {
		return cli.Fail(fs, err)
	}
	if cfg.QLog, err = flight.Open(false); err != nil {
		return cli.Fail(fs, err)
	}
	defer cfg.QLog.Close()
	defer qlog.DumpOnPanic(flight.Blackbox())
	cfg.Backoff.Seed = *seed
	if cfg.Count > 0 {
		cfg.Duration = 0
	}
	res, err := blast.Run(cfg)
	if err != nil {
		return cli.Fail(fs, err)
	}
	if err := cfg.QLog.Close(); err != nil {
		return cli.Fail(fs, err)
	}
	fmt.Fprintln(stdout, res)
	if *report != "" {
		data, err := json.MarshalIndent(res, "", "  ")
		if err != nil {
			return cli.Fail(fs, err)
		}
		if err := os.WriteFile(*report, append(data, '\n'), 0o644); err != nil {
			return cli.Fail(fs, err)
		}
	}
	return cli.ExitOK
}
