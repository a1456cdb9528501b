//go:build linux

package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"repro/internal/analysis"
	"repro/internal/dataset"
	"repro/internal/measure"
	"repro/internal/stats"
)

// recordDataset is the replay workload's input generation: one campaign
// (wire check off, as rootmeasure records) written to path. It runs in a
// child of the benchmark so that the campaign's heap does not count toward
// the replay's peak memory.
func recordDataset(size studySize, seed uint64, path string) (probes, transfers int, err error) {
	pass, err := runCampaignPass(size, seed, false, path, nil)
	if err != nil {
		return 0, 0, err
	}
	if len(pass.problems) > 0 {
		return 0, 0, fmt.Errorf("recording the replay dataset: %s", strings.Join(pass.problems, "; "))
	}
	return pass.probes, pass.transfers, nil
}

// recordInChild runs recordDataset in a child of this binary and returns
// what the child says it recorded.
func recordInChild(smoke bool, seed uint64, path string) (probes, transfers int, err error) {
	self, err := os.Executable()
	if err != nil {
		return 0, 0, err
	}
	cmd := exec.Command(self, "-child", "record", strconv.FormatBool(smoke), strconv.FormatUint(seed, 10), path)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return 0, 0, fmt.Errorf("recording child: %w", err)
	}
	if _, err := fmt.Sscanf(string(out), "recorded %d %d", &probes, &transfers); err != nil {
		return 0, 0, fmt.Errorf("recording child said %q", out)
	}
	return probes, transfers, nil
}

// accumulators are the six analyses rootanalyze replays into, in its order.
type accumulators struct {
	coverage   *analysis.Coverage
	stability  *analysis.Stability
	colocation *analysis.Colocation
	distance   *analysis.Distance
	rtt        *analysis.RTT
	integrity  *analysis.Integrity
}

func newAccumulators(w *measure.World) *accumulators {
	return &accumulators{
		coverage:   analysis.NewCoverage(w.System),
		stability:  analysis.NewStability(),
		colocation: analysis.NewColocation(w.Population),
		distance:   analysis.NewDistance(w.System, w.Population),
		rtt:        analysis.NewRTT(),
		integrity:  analysis.NewIntegrity(),
	}
}

// handlers lists the accumulators in the order of accumulatorNames.
func (a *accumulators) handlers() []measure.Handler {
	return []measure.Handler{a.coverage, a.stability, a.colocation, a.distance, a.rtt, a.integrity}
}

// accumulatorNames are the layers the traced run books each accumulator's
// time to; with "_ns" appended they are its per-layer metrics.
var accumulatorNames = []string{"analysis.coverage", "analysis.stability", "analysis.colocation", "analysis.distance", "analysis.rtt", "analysis.integrity"}

// tablesSHA renders every table and figure rootanalyze prints and hashes the
// text: two replays of one dataset must agree on every byte of it.
func (a *accumulators) tablesSHA() string {
	var b bytes.Buffer
	a.coverage.WriteTable1(&b)
	a.coverage.WriteTable4(&b)
	a.stability.WriteFigure3(&b)
	a.colocation.WriteFigure4(&b)
	a.distance.WriteFigure5(&b)
	a.rtt.WriteFigure6(&b)
	a.rtt.WriteFigure14(&b)
	a.integrity.WriteTable2(&b)
	a.integrity.WriteFigure10(&b)
	sum := sha256.Sum256(b.Bytes())
	return hex.EncodeToString(sum[:])
}

// replayPass is one world built, one reader opened and one dataset replayed
// into fresh accumulators.
type replayPass struct {
	setup, wall, cpu  time.Duration
	probes, transfers int
	torn              bool
	sha               string
}

// runReplayPass replays data as rootanalyze does. wrap, when non-nil, wraps
// each accumulator (named by accumulatorNames) for the traced run.
func runReplayPass(size studySize, seed uint64, data []byte, wrap func(name string, h measure.Handler) measure.Handler) (*replayPass, error) {
	runtime.GC() // as in runCampaignPass: start from a collected heap
	began := time.Now()
	mCfg, topoCfg, vpCfg := size.configs(seed)
	world, err := measure.NewWorld(mCfg, topoCfg, vpCfg)
	if err != nil {
		return nil, err
	}
	reader, err := dataset.NewReader(bytes.NewReader(data), world.Population)
	if err != nil {
		return nil, err
	}
	defer reader.Close()
	acc := newAccumulators(world)
	handlers := acc.handlers()
	if wrap != nil {
		for i, h := range handlers {
			handlers[i] = wrap(accumulatorNames[i], h)
		}
	}
	pass := &replayPass{setup: time.Since(began)}

	cpu0, t0 := selfCPU(), time.Now()
	pass.probes, pass.transfers, err = reader.ReplayWith(dataset.ReplayOptions{Workers: workers()}, handlers...)
	if err != nil {
		return nil, fmt.Errorf("replay: %w", err)
	}
	pass.wall, pass.cpu = time.Since(t0), selfCPU()-cpu0
	pass.torn = reader.Torn()
	pass.sha = acc.tablesSHA()
	return pass, nil
}

// runReplay is the end-to-end run of the replay workload: record the input
// dataset once, then whole passes over it until seconds of replay time have
// gone by, and at least three.
func runReplay(sz sizes, seed uint64, seconds float64) (*runResult, error) {
	out, err := outDir()
	if err != nil {
		return nil, err
	}
	path := filepath.Join(out, fmt.Sprintf("replay-%d.rgds", seed))
	defer os.Remove(path)
	wantP, wantT, err := recordInChild(sz.smoke, seed, path)
	if err != nil {
		return nil, err
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}

	res := newRunResult("replay", seed, false)
	var setup, ops, cpuPerOp []float64
	sha := ""
	for n, began := 0, time.Now(); n < 3 || time.Since(began).Seconds() < seconds; n++ {
		pass, err := runReplayPass(sz.replay, seed, data, nil)
		if err != nil {
			return nil, err
		}
		events := pass.probes + pass.transfers
		res.Attempted += wantP + wantT
		if missing := wantP + wantT - events; missing != 0 {
			res.Failed += max(missing, 0)
			res.fail("replay pass %d: replayed %d probes and %d transfers of %d and %d recorded", n, pass.probes, pass.transfers, wantP, wantT)
		}
		if pass.torn {
			res.fail("replay pass %d: the dataset reads as torn", n)
		}
		if sha == "" {
			sha = pass.sha
		} else if pass.sha != sha {
			res.fail("replay pass %d: tables SHA-256 %s differs from pass 0's %s", n, pass.sha, sha)
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
