//go:build linux

package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"syscall"
	"time"

	"repro/internal/stats"
)

// serveRepeats is how many fresh servers one run starts, primes and
// measures, each for a third of the run's seconds.
const serveRepeats = 3

// junkPrimer is the number of never-repeating queries sent to a fresh
// server before a serve_junk window: a little more than its 8 MiB cache
// holds (about 19k NXDOMAIN answers at the B-Root DO share), so that every
// insert in the timed window also evicts.
const junkPrimer = 20000

// compareEvery is how often a serve_hot reply is byte-compared with the
// answer captured while priming.
const compareEvery = 64

// serveSpec is one of the two socket workloads.
type serveSpec struct {
	name string
	// rate is the open-loop offered load in queries per second.
	rate int
	junk bool
}

var (
	// serveHot offers about a third of what one pinned read loop saturates
	// at, so queueing stays out of the latency.
	serveHot = serveSpec{name: "serve_hot", rate: 40000}
	// serveJunk offers a little under half of the miss path's single-core
	// capacity (about 4.3k qps).
	serveJunk = serveSpec{name: "serve_junk", rate: 2000, junk: true}
)

// serveWindow is one primed server measured over one open-loop pass.
type serveWindow struct {
	setup time.Duration // child start to primed
	gen   *genResult
	// cpuAt is the server's CPU clock at the start of every second of the
	// schedule, and last at the end of the pass.
	cpuAt   []time.Duration
	peakRSS int64
	metrics map[string]float64 // rootserve's -metrics counters (traced runs)
}

// sliceCosts is the server's CPU per query, in microseconds, over each
// second of the pass's schedule. Queries answered a moment after their
// second ended are booked to the next one, which at these rates moves a cost
// by well under a percent. A trailing slice of less than half a second is
// folded into the one before it.
func (w *serveWindow) sliceCosts(rate int) []float64 {
	var costs []float64
	sent := w.gen.sent
	for k := 1; k < len(w.cpuAt); k++ {
		first, queries := k-1, min(rate, sent-(k-1)*rate)
		if k == len(w.cpuAt)-2 && sent-k*rate < rate/2 {
			// The next slice is a short tail: take it in here.
			queries += sent - k*rate
			k++
		}
		if queries > 0 {
			costs = append(costs, (w.cpuAt[k]-w.cpuAt[first]).Seconds()*1e6/float64(queries))
		}
	}
	return costs
}

// serveCorpus builds everything a run of spec sends: for serve_hot the one
// repeating corpus; for serve_junk one stretch of fresh names per window,
// each preceded by its primer.
func serveCorpus(spec serveSpec, sz sizes, seed uint64, windows, perWindow int) (*corpus, error) {
	if spec.junk {
		return junkCorpus(windows*(sz.junkPrimer+perWindow), seed)
	}
	return hotCorpus(sz.hotCorpus, seed)
}

// serveRun describes one fresh server child primed and measured over one
// open-loop pass.
type serveRun struct {
	spec serveSpec
	p    placement
	// bin and args start the child: rootserve, or this binary as the echo.
	bin  string
	args []string
	echo bool
	c    *corpus
	// window is the index of this pass in the run and primer the length of
	// a junk window's primer; together they select the stretch of a junk
	// corpus. count is the number of queries in the timed pass.
	window, primer, count int
	// metricsFile, when set, is passed to rootserve as -metrics and read
	// back after the child has exited.
	metricsFile string
	spans       *layerSpans
	// timeout overrides the generator's answer timeout when positive.
	timeout time.Duration
	// after, when set, runs against the still-live server once the pass is
	// over: the TCP probes of the traced run.
	after func(srv *child) error
}

// measure starts the child, primes it, runs the timed pass and stops it.
func (r serveRun) measure() (*serveWindow, error) {
	began := time.Now()
	args := r.args
	if r.metricsFile != "" {
		args = append(append([]string(nil), args...), "-metrics", r.metricsFile)
	}
	srv, err := startChild(r.p, r.bin, args...)
	if err != nil {
		return nil, err
	}
	stopped := false
	defer func() {
		if !stopped {
			srv.stop()
		}
	}()
	fd, err := dialUDP(srv.addr)
	if err != nil {
		return nil, err
	}
	defer syscall.Close(fd)

	w := &serveWindow{}
	mode := verifyDNS
	if r.echo {
		mode = verifyEcho
	}
	first := 0
	prime := genConfig{corpus: r.c, count: r.c.len(), verify: mode, capture: !r.spec.junk, timeout: r.timeout}
	if r.spec.junk {
		first = r.window * (r.primer + r.count)
		prime.first, prime.count = first, r.primer
		first += r.primer
	}
	pr, err := generate(fd, r.p, prime)
	if err != nil {
		return nil, err
	}
	if pr.failed() > 0 {
		return nil, fmt.Errorf("%s: priming: %d of %d queries failed (%d timed out; %s)", r.spec.name, pr.failed(), pr.sent, pr.timeouts, pr.firstBad)
	}
	w.setup = time.Since(began)

	compare := 0
	if !r.spec.junk && !r.echo {
		compare = compareEvery
	}
	// The server's CPU clock is read as every second of the schedule begins
	// and when the pass ends, so the pass yields a cost per slice as well as
	// a total.
	var cpuErr error
	w.gen, err = generate(fd, r.p, genConfig{
		corpus: r.c, first: first, count: r.count, rate: r.spec.rate,
		verify: mode, compareEvery: compare, spans: r.spans, timeout: r.timeout,
		everySecond: func() {
			cpu, err := procCPU(srv.pid())
			if err != nil && cpuErr == nil {
				cpuErr = err
			}
			w.cpuAt = append(w.cpuAt, cpu)
		},
	})
	if err == nil {
		err = cpuErr
	}
	if err != nil {
		return nil, err
	}
	if w.peakRSS, err = procPeakRSS(srv.pid()); err != nil {
		return nil, err
	}
	if r.after != nil {
		if err := r.after(srv); err != nil {
			return nil, err
		}
	}
	srv.stop()
	stopped = true
	if r.metricsFile != "" {
		if w.metrics, err = readMetricsSnapshot(r.metricsFile); err != nil {
			return nil, err
		}
	}
	return w, nil
}

// rootserveArgs is the shipping server as every serve workload runs it: one
// read loop on one core (GOMAXPROCS=1 comes from startChild), because two
// shared vCPUs can show per-core cost but not multi-core scaling.
func rootserveArgs() []string {
	return []string{"-addr", "127.0.0.1:0", "-tlds", fmt.Sprint(serveTLDs), "-serve-workers", "1"}
}

// runServe is the end-to-end run of a serve workload: serveRepeats fresh
// servers, each primed and then measured for seconds/serveRepeats.
func runServe(spec serveSpec, sz sizes, seed uint64, seconds float64) (*runResult, error) {
	bin, err := buildRootserve()
	if err != nil {
		return nil, err
	}
	p := choosePlacement()
	count := int(float64(spec.rate) * seconds / serveRepeats)
	c, err := serveCorpus(spec, sz, seed, serveRepeats, count)
	if err != nil {
		return nil, err
	}
	res := newRunResult(spec.name, seed, false)
	var setup, ops, cpuPerOp, rss, p50, late []float64
	for i := 0; i < serveRepeats; i++ {
		w, err := serveRun{
			spec: spec, p: p, bin: bin, args: rootserveArgs(),
			c: c, window: i, primer: sz.junkPrimer, count: count, timeout: sz.answerTimeout,
		}.measure()
		if err != nil {
			return nil, err
		}
		g := w.gen
		res.Attempted += g.sent
		res.Failed += g.failed()
		if g.bad > 0 {
			res.fail("%s window %d: %d replies failed verification (first: %s)", spec.name, i, g.bad, g.firstBad)
		}
		if g.verified == 0 {
			return nil, fmt.Errorf("%s window %d: no query was answered", spec.name, i)
		}
		setup = append(setup, w.setup.Seconds())
		ops = append(ops, float64(g.verified)/g.wall.Seconds())
		cpuPerOp = append(cpuPerOp, w.sliceCosts(spec.rate)...)
		rss = append(rss, float64(w.peakRSS)/(1<<20))
		p50 = append(p50, stats.Median(sliceP50s(g.latNs, spec.rate)))
		late = append(late, float64(g.late)/float64(g.sent))
		fmt.Printf("# %s window %d: sent=%d verified=%d timeouts=%d bad=%d stray=%d late=%d late_max=%s setup=%s\n",
			spec.name, i, g.sent, g.verified, g.timeouts, g.bad, g.stray, g.late, g.lateMax, w.setup.Round(time.Millisecond))
	}
	res.checkFailedShare()
	res.set("setup_s", stats.Median(setup))
	res.set("ops_per_s", stats.Median(ops))
	res.set("cpu_us_per_op", fastCost(cpuPerOp))
	res.set("peak_rss_mb", stats.Median(rss))
	fmt.Printf("# %s: latency_p50_us=%.1f late_share=%.5f (informative here; the traced run reports both)\n", spec.name, stats.Median(p50), stats.Median(late))
	res.Pinned = p.pinned
	return res, nil
}

// readMetricsSnapshot loads the counters of the JSON snapshot rootserve
// writes on exit when started with -metrics.
func readMetricsSnapshot(path string) (map[string]float64, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var snap struct {
		Metrics []struct {
			Name  string `json:"name"`
			Kind  string `json:"kind"`
			Value int64  `json:"value"`
		} `json:"metrics"`
	}
	if err := json.Unmarshal(data, &snap); err != nil {
		return nil, fmt.Errorf("%s: %w", filepath.Base(path), err)
	}
	counters := make(map[string]float64)
	for _, m := range snap.Metrics {
		if m.Kind == "counter" {
			counters[m.Name] = float64(m.Value)
		}
	}
	return counters, nil
}
