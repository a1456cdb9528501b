//go:build linux

package main

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"sort"
	"time"

	"repro/internal/dataset"
	"repro/internal/dnsclient"
	"repro/internal/measure"
	"repro/internal/stats"
)

// A traced run measures every per-layer metric, for whichever workload it is
// asked about: the function-level loops of layers.go, then one small probe
// of each workload with spans on (the generator records a span per query;
// campaign and replay handlers are wrapped). The workload named on the
// command line additionally gets an untraced twin of its probe, and the two
// trace.* metrics are about that pair.

const (
	// probeShare is the share of -seconds each serve probe's window lasts.
	probeShare = 6
	// probeThinning thins the campaign probe's schedule relative to the
	// campaign workload's, so a traced and an untraced pass fit a run.
	probeThinning = 4
	// tcpQueries is how many hot-corpus queries the TCP probe sends, one at
	// a time, on one connection.
	tcpQueries = 3000
)

// probeOutcome is what a traced run keeps of one workload's probe to compute
// the trace.* metrics from.
type probeOutcome struct {
	// costTraced and costUntraced are the workload's cost per op with and
	// without tracing: server CPU for serve, wall time for campaign and
	// replay. costUntraced is zero when no twin ran.
	costTraced, costUntraced float64
	// cpuPerOp is the untraced twin's CPU per op in microseconds, and
	// explained the sum of layer costs per op that the suite accounts for.
	cpuPerOp, explained float64
}

func runTraced(name string, sz sizes, seed uint64, seconds float64) (*runResult, error) {
	out, err := outDir()
	if err != nil {
		return nil, err
	}
	res := newRunResult(name, seed, true)
	m := res.Metrics
	tr := newTracer()

	in, err := newLayerInputs(sz, seed)
	if err != nil {
		return nil, err
	}
	if err := measureLayers(in, sz.loopBudget, m); err != nil {
		return nil, err
	}
	serve, err := serveProbes(name, sz, seed, seconds, out, tr, res)
	if err != nil {
		return nil, err
	}
	study, err := studyProbes(name, sz, seed, out, tr, in, res)
	if err != nil {
		return nil, err
	}
	res.checkFailedShare()

	po := serve
	if name == "campaign" || name == "replay" {
		po = study
	}
	m["trace.overhead_share"] = po.costTraced/po.costUntraced - 1
	m["trace.unexplained_share"] = 1 - po.explained/po.cpuPerOp
	m["trace.spans"] = float64(tr.count())
	if err := tr.writeFile(filepath.Join(out, "trace-"+name+".json")); err != nil {
		return nil, err
	}
	return res, nil
}

// serveProbes runs the stall probe, the socket-echo floor and one traced
// window of each serve workload, and fills the loadgen, sockecho and
// socket-side dnsserver metrics.
func serveProbes(name string, sz sizes, seed uint64, seconds float64, out string, tr *tracer, res *runResult) (probeOutcome, error) {
	var po probeOutcome
	m := res.Metrics
	bin, err := buildRootserve()
	if err != nil {
		return po, err
	}
	self, err := os.Executable()
	if err != nil {
		return po, err
	}
	p := choosePlacement()
	res.Pinned = p.pinned
	window := seconds / probeShare
	m["loadgen.stall_share"] = stallProbe(p, time.Duration(min(1, window)*float64(time.Second)))

	hotCount := int(float64(serveHot.rate) * window)
	hot, err := serveCorpus(serveHot, sz, seed, 1, hotCount)
	if err != nil {
		return po, err
	}
	account := func(spec serveSpec, w *serveWindow) error {
		g := w.gen
		res.Attempted += g.sent
		res.Failed += g.failed()
		if g.bad > 0 {
			res.fail("%s probe: %d replies failed verification (first: %s)", spec.name, g.bad, g.firstBad)
		}
		if g.verified == 0 {
			return fmt.Errorf("%s probe: no query was answered", spec.name)
		}
		return nil
	}
	// Server CPU per query is condensed exactly as the end-to-end run does it.
	cpuPerOp := func(spec serveSpec, w *serveWindow) float64 { return fastCost(w.sliceCosts(spec.rate)) }

	// The floor: the hot corpus at the hot rate against a bare echo loop.
	echo, err := serveRun{
		spec: serveHot, p: p, bin: self, args: []string{"-child", "echo"}, echo: true,
		c: hot, count: hotCount, timeout: sz.answerTimeout,
	}.measure()
	if err != nil {
		return po, err
	}
	if err := account(serveHot, echo); err != nil {
		return po, err
	}
	floor := cpuPerOp(serveHot, echo)
	m["sockecho.cpu_us_per_pkt"] = floor
	m["sockecho.latency_p50_us"] = stats.Median(sliceP50s(echo.gen.latNs, serveHot.rate))

	// serve_hot, traced: spans per query, -metrics on the server, and the
	// TCP probes against the same primed server.
	var tcpQueryUs, tcpTransferMs float64
	hotW, err := serveRun{
		spec: serveHot, p: p, bin: bin, args: rootserveArgs(),
		c: hot, count: hotCount, timeout: sz.answerTimeout,
		metricsFile: filepath.Join(out, "metrics-serve_hot.json"),
		spans:       tr.layer("dnsserver.udp_hot"),
		after: func(srv *child) error {
			var err error
			if tcpQueryUs, err = tcpQueryProbe(srv, hot, min(tcpQueries, hot.len())); err != nil {
				return err
			}
			tcpTransferMs, err = tcpTransferProbe(srv)
			return err
		},
	}.measure()
	if err != nil {
		return po, err
	}
	if err := account(serveHot, hotW); err != nil {
		return po, err
	}
	g := hotW.gen
	lat := sortedLatencies(g.latNs)
	m["loadgen.hot_latency_p50_us"] = stats.Median(sliceP50s(g.latNs, serveHot.rate))
	m["loadgen.hot_latency_p99_us"] = percentile(lat, 99) / 1e3
	m["loadgen.late_share"] = float64(g.late) / float64(g.sent)
	m["loadgen.late_max_us"] = float64(g.lateMax) / 1e3
	m["loadgen.cpu_us_per_op"] = g.cpu.Seconds() * 1e6 / float64(g.sent)
	m["dnsserver.hit_path_us"] = cpuPerOp(serveHot, hotW) - floor
	m["dnsserver.tcp_query_us"] = tcpQueryUs
	m["axfr.tcp_transfer_ms"] = tcpTransferMs
	lookups := hotW.metrics["dns/cache/hits"] + hotW.metrics["dns/cache/misses"]
	if lookups == 0 {
		return po, fmt.Errorf("serve_hot probe: the -metrics snapshot counts no cache lookup")
	}
	m["dnsserver.cache_hit_share"] = hotW.metrics["dns/cache/hits"] / lookups

	// serve_junk, traced.
	junkCount := int(float64(serveJunk.rate) * window)
	junk, err := serveCorpus(serveJunk, sz, seed, 2, junkCount)
	if err != nil {
		return po, err
	}
	junkW, err := serveRun{
		spec: serveJunk, p: p, bin: bin, args: rootserveArgs(),
		c: junk, window: 0, primer: sz.junkPrimer, count: junkCount, timeout: sz.answerTimeout,
		metricsFile: filepath.Join(out, "metrics-serve_junk.json"),
		spans:       tr.layer("dnsserver.udp_junk"),
	}.measure()
	if err != nil {
		return po, err
	}
	if err := account(serveJunk, junkW); err != nil {
		return po, err
	}
	m["loadgen.junk_latency_p50_us"] = stats.Median(sliceP50s(junkW.gen.latNs, serveJunk.rate))
	jm := junkW.metrics
	lookups = jm["dns/cache/hits"] + jm["dns/cache/misses"]
	if lookups == 0 {
		return po, fmt.Errorf("serve_junk probe: the -metrics snapshot counts no cache lookup")
	}
	m["dnsserver.slow_share"] = jm["dns/cache/misses"] / lookups
	m["dnsserver.shed_share"] = jm["serve/sheds"] / lookups
	m["dnsserver.evictions_per_op"] = jm["dns/cache/evictions"] / lookups

	// The workload asked about runs once more with nothing on.
	switch name {
	case "serve_hot":
		twin, err := serveRun{
			spec: serveHot, p: p, bin: bin, args: rootserveArgs(),
			c: hot, count: hotCount, timeout: sz.answerTimeout,
		}.measure()
		if err != nil {
			return po, err
		}
		if err := account(serveHot, twin); err != nil {
			return po, err
		}
		po.costTraced, po.costUntraced = cpuPerOp(serveHot, hotW), cpuPerOp(serveHot, twin)
		po.cpuPerOp = po.costUntraced
		po.explained = floor + (m["qlog.sample_ns"]+2*m["netem.admit_off_ns"])/1e3
	case "serve_junk":
		twin, err := serveRun{
			spec: serveJunk, p: p, bin: bin, args: rootserveArgs(),
			c: junk, window: 1, primer: sz.junkPrimer, count: junkCount, timeout: sz.answerTimeout,
		}.measure()
		if err != nil {
			return po, err
		}
		if err := account(serveJunk, twin); err != nil {
			return po, err
		}
		po.costTraced, po.costUntraced = cpuPerOp(serveJunk, junkW), cpuPerOp(serveJunk, twin)
		po.cpuPerOp = po.costUntraced
		po.explained = floor + (m["dnswire.unpack_ns"]+m["dnsserver.handle_junk_ns"]+m["dnswire.pack_ns"]+
			m["qlog.sample_ns"]+2*m["netem.admit_off_ns"])/1e3
	}
	return po, nil
}

func sortedLatencies(latNs []uint32) []uint32 {
	lat := make([]uint32, 0, len(latNs))
	for _, l := range latNs {
		if l != 0 {
			lat = append(lat, l)
		}
	}
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	return lat
}

// tcpQueryProbe sends n corpus queries one at a time over one TCP connection
// and returns the server's CPU per query in microseconds: the miss path is
// the only path TCP has.
func tcpQueryProbe(srv *child, c *corpus, n int) (float64, error) {
	conn, err := net.DialTimeout("tcp", srv.addr.String(), 5*time.Second)
	if err != nil {
		return 0, err
	}
	defer conn.Close()
	if err := conn.SetDeadline(time.Now().Add(60 * time.Second)); err != nil {
		return 0, err
	}
	r := bufio.NewReader(conn)
	frame := make([]byte, 0, 514)
	resp := make([]byte, 64<<10)
	cpu0, err := procCPU(srv.pid())
	if err != nil {
		return 0, err
	}
	for i := 0; i < n; i++ {
		w := c.wires[i]
		frame = binary.BigEndian.AppendUint16(frame[:0], uint16(len(w)))
		frame = append(frame, w...)
		binary.BigEndian.PutUint16(frame[2:], uint16(i+1))
		if _, err := conn.Write(frame); err != nil {
			return 0, fmt.Errorf("tcp query %d: %w", i, err)
		}
		var lenBuf [2]byte
		if _, err := io.ReadFull(r, lenBuf[:]); err != nil {
			return 0, fmt.Errorf("tcp query %d: %w", i, err)
		}
		body := resp[:binary.BigEndian.Uint16(lenBuf[:])]
		if _, err := io.ReadFull(r, body); err != nil {
			return 0, fmt.Errorf("tcp query %d: %w", i, err)
		}
		if len(body) < 2 || binary.BigEndian.Uint16(body) != uint16(i+1) {
			return 0, fmt.Errorf("tcp query %d: reply carries another ID", i)
		}
		if why := checkResponse(body, w, c.qEnd[i], c.rcode[i]); why != "" {
			return 0, fmt.Errorf("tcp query %d: %s", i, why)
		}
	}
	cpu1, err := procCPU(srv.pid())
	if err != nil {
		return 0, err
	}
	return (cpu1 - cpu0).Seconds() * 1e6 / float64(n), nil
}

// tcpTransferProbe pulls the zone from the server over loopback TCP with the
// repository's own client and returns the median wall time in milliseconds.
func tcpTransferProbe(srv *child) (float64, error) {
	client := dnsclient.New(srv.addr.String())
	client.SetTimeout(10 * time.Second)
	var ms []float64
	for i := 0; i < 5; i++ {
		t0 := time.Now()
		z, err := client.TransferZone()
		if err != nil {
			return 0, fmt.Errorf("zone transfer over TCP: %w", err)
		}
		if len(z.Records) == 0 {
			return 0, fmt.Errorf("zone transfer over TCP: empty zone")
		}
		ms = append(ms, float64(time.Since(t0))/1e6)
	}
	return stats.Median(ms), nil
}

// datasetReader opens an in-memory dataset against a world's population.
func datasetReader(data []byte, w *measure.World) (*dataset.Reader, error) {
	return dataset.NewReader(bytes.NewReader(data), w.Population)
}

// studyProbes runs one traced campaign pass (its dataset writer wrapped),
// the container and decoder loops on the dataset it wrote, and traced replay
// passes over the same dataset (each accumulator wrapped).
func studyProbes(name string, sz sizes, seed uint64, out string, tr *tracer, in *layerInputs, res *runResult) (probeOutcome, error) {
	var po probeOutcome
	m := res.Metrics
	size := sz.campaign
	size.scale *= probeThinning
	path := filepath.Join(out, fmt.Sprintf("trace-%s-%d.rgds", name, seed))
	defer os.Remove(path)

	// Campaign, traced: every handler call is a dataset.write span under
	// the pass's span.
	write := tr.layer("dataset.write")
	passSpans := tr.layer("measure.campaign")
	parent := passSpans.begin()
	camp, err := runCampaignPass(size, seed, true, path, func(h measure.Handler) measure.Handler {
		return &timedHandler{inner: h, spans: write, parent: parent}
	})
	passSpans.end(parent)
	if err != nil {
		return po, err
	}
	events := camp.probes + camp.transfers
	res.Attempted += events
	res.Failed += camp.failed
	for _, p := range camp.problems {
		res.fail("campaign probe: %s", p)
	}
	m["dataset.write_ns"] = write.perCall()
	m["measure.drain_share"] = float64(write.ns) / float64(camp.wall)

	if name == "campaign" {
		twinPath := path + ".twin"
		defer os.Remove(twinPath)
		twin, err := runCampaignPass(size, seed, true, twinPath, nil)
		if err != nil {
			return po, err
		}
		if twin.sha != camp.sha {
			res.fail("campaign probe: the traced and untraced datasets differ (%s, %s)", camp.sha, twin.sha)
		}
		po.costTraced, po.costUntraced = camp.wall.Seconds()/float64(events), twin.wall.Seconds()/float64(events)
		po.cpuPerOp = twin.cpu.Seconds() * 1e6 / float64(events)
		// Per event: one catchment selection and one traceroute per probe,
		// one dataset write; per tick (each tick here is a new zone
		// version): sign, digest, a new in-process server, one full
		// validation and one battery run.
		mCfg, _, _ := size.configs(seed)
		ticks := float64(len(measure.Ticks(mCfg.Start, mCfg.End, mCfg.Scale)))
		perTickUs := m["dnssec.sign_ms"]*1e3 + m["zonemd.digest_us"] + m["dnsserver.new_ms"]*1e3 +
			m["dnssec.validate_us"]*float64(in.campSigs) + m["measure.battery_ms"]*1e3
		po.explained = float64(camp.probes)/float64(events)*(m["anycast.select_ns"]+m["traceroute.run_ns"])/1e3 +
			m["dataset.write_ns"]/1e3 + perTickUs*ticks/float64(events)
	}

	// The container and the decoder, on the dataset just written.
	data, err := os.ReadFile(path)
	if err != nil {
		return po, err
	}
	containerNs, err := datasetLayers(in, sz.loopBudget, data, events, m)
	if err != nil {
		return po, err
	}

	// Replay, traced: one span per accumulator per event.
	layers := make([]*layerSpans, len(accumulatorNames))
	for i, n := range accumulatorNames {
		layers[i] = tr.layer(n)
	}
	replaySpans := tr.layer("dataset.replay")
	var traced, untraced []float64
	var twinCPU []float64
	sha := ""
	for pass := 0; pass < 3; pass++ {
		parent := replaySpans.begin()
		rp, err := runReplayPass(size, seed, data, func(n string, h measure.Handler) measure.Handler {
			return &timedHandler{inner: h, spans: tr.layer(n), parent: parent}
		})
		replaySpans.end(parent)
		if err != nil {
			return po, err
		}
		res.Attempted += events
		if got := rp.probes + rp.transfers; got != events || rp.torn {
			res.Failed += max(events-got, 0)
			res.fail("replay probe: replayed %d of %d events (torn=%v)", got, events, rp.torn)
		}
		if sha == "" {
			sha = rp.sha
		} else if rp.sha != sha {
			res.fail("replay probe: tables SHA-256 differs between passes")
		}
		traced = append(traced, rp.wall.Seconds()/float64(events))
		if name == "replay" {
			twin, err := runReplayPass(size, seed, data, nil)
			if err != nil {
				return po, err
			}
			if twin.sha != sha {
				res.fail("replay probe: traced and untraced tables differ")
			}
			untraced = append(untraced, twin.wall.Seconds()/float64(events))
			twinCPU = append(twinCPU, twin.cpu.Seconds()*1e6/float64(events))
		}
	}
	var analyses float64
	for i, l := range layers {
		m[accumulatorNames[i]+"_ns"] = l.perCall()
		analyses += l.perCall()
	}
	if name == "replay" {
		po.costTraced, po.costUntraced = stats.Median(traced), stats.Median(untraced)
		po.cpuPerOp = stats.Median(twinCPU)
		po.explained = (containerNs + m["dataset.decode_ns"] + analyses) / 1e3
	}
	return po, nil
}
