// Command rootstudy runs the full reproduction study and prints every table
// and figure of the paper.
//
//	rootstudy [-quick] [-extensions] [flags]
//
// -h lists the flags; the groups it shares with the other binaries and the
// exit codes are README.md's "Front door".
package main

import (
	"fmt"
	"io"
	"os"
	"time"

	"repro"
	"repro/internal/cli"
	"repro/internal/control"
	"repro/internal/core"
	"repro/internal/failpoint"
	"repro/internal/prof"
	"repro/internal/propagation"
	"repro/internal/telemetry"
	"repro/internal/topology"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := cli.NewFlagSet("rootstudy", stderr)
	quick := fs.Bool("quick", false, "use the fast smoke-test preset instead of the full one")
	extensions := fs.Bool("extensions", false, "also run the Appendix-E extensions (control group, per-second SOA propagation)")
	// What -scale and -vpscale leave at 0 the preset fills in below, with the
	// zone and passive-population sizes it alone decides.
	cfg := repro.Config{Run: core.Run{Seed: 1}}
	core.WorldFlags(fs, &cfg)
	core.ScheduleFlags(fs, &cfg)
	failpoint.RegisterFlag(fs)
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

	preset := repro.DefaultConfig()
	if *quick {
		preset = repro.QuickConfig()
	}
	if cfg.Scale <= 0 {
		cfg.Scale = preset.Scale
	}
	if cfg.VPScale <= 0 {
		cfg.VPScale = preset.VPScale
	}
	cfg.TLDCount, cfg.PassiveClients = preset.TLDCount, preset.PassiveClients

	study, err := repro.NewStudy(cfg)
	if err != nil {
		return cli.Fail(fs, err)
	}
	began := time.Now()
	if err := study.Run(); err != nil {
		return cli.Fail(fs, fmt.Errorf("campaign: %w", err))
	}
	study.WriteReport(stdout)

	if *extensions {
		fmt.Fprintln(stdout, "\n== Extensions (Appendix E future work) ==")
		ctrlCfg := control.DefaultConfig()
		ctrlCfg.Ticks = 100
		exp := control.New(ctrlCfg, study.World.Topo, study.World.Catchments, study.World.Population)
		exp.Run("h", topology.IPv4).Write(stdout)
		fmt.Fprintln(stdout)
		prop := &propagation.Experiment{
			Catchments: study.World.Catchments,
			Population: study.World.Population,
			Models:     propagation.DefaultSyncModels(),
			Window:     2 * time.Minute,
			Seed:       cfg.Seed,
		}
		propagation.Write(stdout, prop.Run(topology.IPv4))
	}

	fmt.Fprintf(stdout, "\ncampaign wall time: %s\n", time.Since(began).Round(time.Millisecond))
	return cli.ExitOK
}
