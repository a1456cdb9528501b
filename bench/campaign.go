//go:build linux

package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/dataset"
	"repro/internal/measure"
	"repro/internal/rss"
	"repro/internal/stats"
	"repro/internal/topology"
	"repro/internal/vantage"
)

// studySize fixes how much of the paper's campaign a workload runs: the
// schedule thinning, the divisor of the 675-VP population, the zone size and
// the window of the timeline.
type studySize struct {
	scale, vpScale, tlds int
	start, end           time.Time
}

// workers is the pool size campaign and replay run with.
func workers() int { return min(runtime.GOMAXPROCS(0), 4) }

// configs expands a size into the three configurations a world needs.
func (s studySize) configs(seed uint64) (measure.Config, topology.Config, vantage.Config) {
	mCfg := measure.DefaultConfig()
	mCfg.Seed, mCfg.Scale, mCfg.TLDCount = int64(seed), s.scale, s.tlds
	mCfg.Workers = workers()
	if !s.start.IsZero() {
		mCfg.Start, mCfg.End = s.start, s.end
	}
	topoCfg := topology.DefaultConfig()
	topoCfg.Seed = int64(seed)
	vpCfg := vantage.DefaultConfig()
	vpCfg.Seed = int64(seed)
	vpCfg.Scale = s.vpScale
	return mCfg, topoCfg, vpCfg
}

// expectedEvents is the number of probes and transfers a campaign of this
// shape must record: every VP probes every service address on every tick,
// and transfers join from AXFRStart on.
func expectedEvents(cfg measure.Config, vps int) (probes, transfers int) {
	perTick := vps * len(rss.AllServiceAddrs())
	for _, t := range measure.Ticks(cfg.Start, cfg.End, cfg.Scale) {
		probes += perTick
		if !t.Time.Before(measure.AXFRStart) {
			transfers += perTick
		}
	}
	return probes, transfers
}

// campaignPass is one world built and one campaign run into a dataset file.
type campaignPass struct {
	setup, wall, cpu  time.Duration
	probes, transfers int
	sha               string
	bytes             int64
	wireQueries       int
	// failed counts wire-check failures and degraded events; problems says
	// why the pass's outputs are wrong, when they are.
	failed   int
	problems []string
}

// runCampaignPass builds a fresh world and records one campaign to path as
// rootstudy runs it (wire check on). wrap, when non-nil, wraps the dataset
// writer: the traced run times every handler call through it.
func runCampaignPass(size studySize, seed uint64, wireCheck bool, path string, wrap func(measure.Handler) measure.Handler) (*campaignPass, error) {
	// Every pass starts from a collected heap, so that what the previous
	// pass left behind is not this one's garbage to trace.
	runtime.GC()
	began := time.Now()
	mCfg, topoCfg, vpCfg := size.configs(seed)
	mCfg.WireCheck = wireCheck
	world, err := measure.NewWorld(mCfg, topoCfg, vpCfg)
	if err != nil {
		return nil, err
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	writer, err := dataset.NewWriter(f)
	if err != nil {
		return nil, err
	}
	camp := measure.NewCampaign(mCfg, world)
	var handler measure.Handler = writer
	if wrap != nil {
		handler = wrap(writer)
	}
	pass := &campaignPass{setup: time.Since(began)}

	cpu0, t0 := selfCPU(), time.Now()
	if err := camp.Run(handler); err != nil {
		return nil, fmt.Errorf("campaign: %w", err)
	}
	if err := writer.Close(); err != nil {
		return nil, fmt.Errorf("campaign: closing the dataset: %w", err)
	}
	pass.wall, pass.cpu = time.Since(t0), selfCPU()-cpu0

	pass.probes, pass.transfers, pass.wireQueries = writer.Probes, writer.Transfers, camp.WireQueries
	wantP, wantT := expectedEvents(camp.Cfg, len(world.Population.VPs))
	if pass.probes != wantP || pass.transfers != wantT {
		pass.problems = append(pass.problems, fmt.Sprintf("recorded %d probes and %d transfers, want %d and %d", pass.probes, pass.transfers, wantP, wantT))
	}
	if n := len(camp.WireFailures); n > 0 {
		pass.failed += n
		pass.problems = append(pass.problems, fmt.Sprintf("%d wire-check failures (first: %s)", n, camp.WireFailures[0]))
	}
	if n := camp.Degraded().Total(); n > 0 {
		pass.failed += n
		pass.problems = append(pass.problems, fmt.Sprintf("%d degraded events", n))
	}
	if pass.sha, pass.bytes, err = fileSHA256(path); err != nil {
		return nil, err
	}
	return pass, nil
}

func fileSHA256(path string) (string, int64, error) {
	f, err := os.Open(path)
	if err != nil {
		return "", 0, err
	}
	defer f.Close()
	h := sha256.New()
	n, err := io.Copy(h, f)
	if err != nil {
		return "", 0, err
	}
	return hex.EncodeToString(h.Sum(nil)), n, nil
}

// runCampaign is the end-to-end run of the campaign workload: whole passes
// (fresh world, fresh campaign, fresh dataset) until seconds have gone by,
// and at least two so the datasets can be compared.
func runCampaign(sz sizes, seed uint64, seconds float64) (*runResult, error) {
	out, err := outDir()
	if err != nil {
		return nil, err
	}
	path := filepath.Join(out, fmt.Sprintf("campaign-%d.rgds", seed))
	defer os.Remove(path)

	res := newRunResult("campaign", seed, false)
	var setup, ops, cpuPerOp []float64
	sha := ""
	for n, began := 0, time.Now(); n < 2 || time.Since(began).Seconds() < seconds; n++ {
		pass, err := runCampaignPass(sz.campaign, seed, true, path, nil)
		if err != nil {
			return nil, err
		}
		events := pass.probes + pass.transfers
		res.Attempted += events
		res.Failed += pass.failed
		for _, p := range pass.problems {
			res.fail("campaign pass %d: %s", n, p)
		}
		if sha == "" {
			sha = pass.sha
		} else if pass.sha != sha {
			res.fail("campaign pass %d: dataset SHA-256 %s differs from pass 0's %s", n, pass.sha, sha)
		}
		setup = append(setup, pass.setup.Seconds())
		ops = append(ops, float64(events)/pass.wall.Seconds())
		cpuPerOp = append(cpuPerOp, pass.cpu.Seconds()*1e6/float64(events))
	}
	rssBytes, err := procPeakRSS(os.Getpid())
	if err != nil {
		return nil, err
	}
	res.set("setup_s", stats.Median(setup))
	res.set("ops_per_s", fastRate(ops))
	res.set("cpu_us_per_op", fastCost(cpuPerOp))
	res.set("peak_rss_mb", float64(rssBytes)/(1<<20))
	return res, nil
}
