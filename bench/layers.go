//go:build linux

package main

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"runtime"
	"time"

	"repro/internal/axfr"
	"repro/internal/dnssec"
	"repro/internal/dnsserver"
	"repro/internal/dnswire"
	"repro/internal/measure"
	"repro/internal/netem"
	"repro/internal/qlog"
	"repro/internal/rss"
	"repro/internal/segment"
	"repro/internal/stats"
	"repro/internal/topology"
	"repro/internal/traceroute"
	"repro/internal/zone"
	"repro/internal/zonemd"
)

// layerCorpus is how many queries of each kind the function-level loops
// rotate through.
const layerCorpus = 1024

// timeLoop calls fn in batches for about budget and returns the median
// batch's time per call in nanoseconds and the allocations per call. The
// budget is short (sizes.loopBudget), because a traced run has some thirty
// of these loops; the median of five batches is what keeps a short loop
// steady.
func timeLoop(budget time.Duration, fn func()) (nsPerCall, allocsPerCall float64) {
	const batches = 5
	n := 1
	for {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			fn()
		}
		d := time.Since(t0)
		if d >= budget/(2*batches) || n >= 1<<26 {
			break
		}
		if d < time.Microsecond {
			d = time.Microsecond
		}
		n = max(n+1, min(n*100, int(float64(n)*float64(budget/batches)/float64(d))))
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	mallocs := ms.Mallocs
	per := make([]float64, batches)
	for b := range per {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			fn()
		}
		per[b] = float64(time.Since(t0)) / float64(n)
	}
	runtime.ReadMemStats(&ms)
	return stats.Median(per), float64(ms.Mallocs-mallocs) / float64(batches*n)
}

// The sinks keep results alive so the compiler cannot drop the measured
// calls; sink takes pointers only, which an interface holds without
// allocating.
var (
	sink     any
	sinkInt  int
	sinkBool bool
)

// layerInputs is everything the function-level loops work on, made from the
// seed: the zone rootserve would serve, queries of both corpora with the
// answers a server gives, and the campaign's world with one of its signed
// zone versions.
type layerInputs struct {
	seed uint64
	now  time.Time

	serveZone *zone.Zone
	serveCfg  dnsserver.Config
	server    *dnsserver.Server

	hotWires, junkWires [][]byte
	hotMsgs, junkMsgs   []*dnswire.Message
	junkResps           []*dnswire.Message
	junkRespWires       [][]byte

	world    *measure.World
	campBase *zone.Zone
	campZone *zone.Zone
	campSigs int // RRSIG records in campZone
}

func newLayerInputs(sz sizes, seed uint64) (*layerInputs, error) {
	in := &layerInputs{seed: seed, now: measure.StudyStart.Add(100 * 24 * time.Hour)}

	// The served zone, built the way rootserve builds it but from the seed.
	signer := dnssec.NewDeterministicSigner(int64(seed))
	zcfg := zone.DefaultRootConfig()
	zcfg.TLDCount = serveTLDs
	zcfg.Seed = int64(seed)
	signed, err := signer.Sign(zone.SynthesizeRoot(zcfg), in.now)
	if err != nil {
		return nil, err
	}
	if in.serveZone, err = zonemd.AttachAndSign(signed, signer, zonemd.StateVerifiable, in.now); err != nil {
		return nil, err
	}
	in.serveCfg = dnsserver.Config{
		Zone:       in.serveZone,
		ExtraZones: []*zone.Zone{zone.SynthesizeRootServersNet(zcfg.Serial, false)},
		Identity:   dnsserver.Identity{Hostname: "bench.root.example", Version: "repro-bench"},
		AllowAXFR:  true,
	}
	if in.server, err = dnsserver.New(in.serveCfg); err != nil {
		return nil, err
	}

	n := min(layerCorpus, sz.hotCorpus)
	hot, err := hotCorpus(n, seed)
	if err != nil {
		return nil, err
	}
	junk, err := junkCorpus(n, seed)
	if err != nil {
		return nil, err
	}
	in.hotWires, in.junkWires = hot.wires, junk.wires
	for _, w := range hot.wires {
		m, err := dnswire.Unpack(w)
		if err != nil {
			return nil, err
		}
		in.hotMsgs = append(in.hotMsgs, m)
	}
	for i, w := range junk.wires {
		m, err := dnswire.Unpack(w)
		if err != nil {
			return nil, err
		}
		resp := in.server.Handle(m, false)
		if resp == nil || resp.Header.Rcode != dnswire.RcodeNXDomain {
			return nil, fmt.Errorf("layer inputs: junk query %d was not answered NXDOMAIN", i)
		}
		wire, err := resp.Pack()
		if err != nil {
			return nil, err
		}
		in.junkMsgs = append(in.junkMsgs, m)
		in.junkResps = append(in.junkResps, resp)
		in.junkRespWires = append(in.junkRespWires, wire)
	}

	// The campaign's world and one signed zone version, as signedZone makes it.
	mCfg, topoCfg, vpCfg := sz.campaign.configs(seed)
	if in.world, err = measure.NewWorld(mCfg, topoCfg, vpCfg); err != nil {
		return nil, err
	}
	in.campBase = in.world.BaseZone.BumpSerial(measure.SerialAt(in.now))
	signed, err = in.world.Signer.Sign(in.campBase, in.now)
	if err != nil {
		return nil, err
	}
	if in.campZone, err = zonemd.AttachAndSign(signed, in.world.Signer, zonemd.StateVerifiable, in.now); err != nil {
		return nil, err
	}
	for _, rr := range in.campZone.Records {
		if rr.Type() == dnswire.TypeRRSIG {
			in.campSigs++
		}
	}
	if in.campSigs == 0 {
		return nil, errors.New("layer inputs: the signed zone holds no RRSIG")
	}
	return in, nil
}

// measureLayers times calls into the public functions of each layer and
// stores the per-layer metrics that need no socket and no traced workload.
func measureLayers(in *layerInputs, loopBudget time.Duration, m map[string]float64) error {
	var firstErr error
	fail := func(err error) {
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	next := func(n int) func() int {
		i := -1
		return func() int {
			i++
			if i == n {
				i = 0
			}
			return i
		}
	}

	// dnswire: what the miss path does to a junk query and its answer.
	ix := next(len(in.junkWires))
	m["dnswire.unpack_ns"], m["dnswire.unpack_allocs"] = timeLoop(loopBudget, func() {
		msg, err := dnswire.Unpack(in.junkWires[ix()])
		fail(err)
		sink = msg
	})
	ix = next(len(in.junkResps))
	var packBuf []byte
	m["dnswire.pack_ns"], m["dnswire.pack_allocs"] = timeLoop(loopBudget, func() {
		out, err := in.junkResps[ix()].AppendPack(packBuf[:0])
		fail(err)
		packBuf = out
	})
	ix = next(len(in.junkRespWires))
	m["dnswire.view_walk_ns"], _ = timeLoop(loopBudget, func() {
		v, err := dnswire.NewView(in.junkRespWires[ix()])
		fail(err)
		cur := v.Records()
		var rr dnswire.RawRR
		for cur.Next(&rr) {
		}
		fail(cur.Err())
	})

	// dnsserver: the lookup itself, per corpus, and what a zone change costs.
	ix = next(len(in.hotMsgs))
	m["dnsserver.handle_hot_ns"], m["dnsserver.handle_hot_allocs"] = timeLoop(loopBudget, func() {
		sink = in.server.Handle(in.hotMsgs[ix()], false)
	})
	ix = next(len(in.junkMsgs))
	m["dnsserver.handle_junk_ns"], m["dnsserver.handle_junk_allocs"] = timeLoop(loopBudget, func() {
		sink = in.server.Handle(in.junkMsgs[ix()], false)
	})
	ns, _ := timeLoop(loopBudget, func() {
		srv, err := dnsserver.New(in.serveCfg)
		fail(err)
		sink = srv
	})
	m["dnsserver.new_ms"] = ns / 1e6
	ns, _ = timeLoop(loopBudget, func() { in.server.SetZone(in.serveZone) })
	m["dnsserver.setzone_us"] = ns / 1e3

	// netem and qlog sit on the hit path even when off.
	pkt := append([]byte(nil), in.hotWires[0]...)
	var off *netem.Link // the nil link is what a server without -netem holds
	m["netem.admit_off_ns"], _ = timeLoop(loopBudget, func() {
		a, b := off.Admit(netem.Ingress, 1, pkt)
		sinkInt = len(a) + len(b)
	})
	on := netem.NewLink(netem.Profile{Loss: 0.01, Dup: 0.01, Seed: in.seed})
	m["netem.admit_on_ns"], _ = timeLoop(loopBudget, func() {
		a, b := on.Admit(netem.Ingress, 1, pkt)
		sinkInt = len(a) + len(b)
	})
	sampler := qlog.Sampler{Every: 64, Seed: in.seed}
	ix = next(len(in.hotWires))
	m["qlog.sample_ns"], _ = timeLoop(loopBudget, func() {
		w := in.hotWires[ix()]
		sinkBool = sampler.Sampled(qlog.Key(w[:qlog.QuestionEnd(w)]))
	})
	// Event kinds are claimed once by the packages that emit them, so Emit
	// is reached through the one public handler that records every event.
	rec, err := qlog.New(io.Discard, qlog.Sampler{Every: 1, Seed: in.seed}, "")
	if err != nil {
		return err
	}
	flight := measure.NewFlightLog(rec)
	targets := rss.AllServiceAddrs()
	tick := 0
	m["qlog.emit_ns"], _ = timeLoop(loopBudget, func() {
		tick++
		flight.HandleProbe(measure.ProbeEvent{
			Tick: measure.Tick{Index: tick}, VPIdx: tick % 167,
			Target: targets[tick%len(targets)], RTTms: 12.5,
		})
	})
	fail(rec.Close())

	// axfr: serving the zone as a stream, and the compare-only receive.
	axfrQuery := dnswire.NewQuery(7, dnswire.Root, dnswire.TypeAXFR)
	var stream bytes.Buffer
	ns, _ = timeLoop(loopBudget, func() {
		stream.Reset()
		fail(axfr.Serve(&stream, in.campZone, axfrQuery))
	})
	m["axfr.serve_ms"] = ns / 1e6
	raw := append([]byte(nil), stream.Bytes()...)
	var allocs float64
	ns, allocs = timeLoop(loopBudget, func() {
		_, err := axfr.ReceiveCompare(bytes.NewReader(raw), 7, in.campZone)
		fail(err)
	})
	m["axfr.receive_compare_ms"], m["axfr.receive_compare_allocs"] = ns/1e6, allocs

	// dnssec and zonemd, on the zone version the campaign signs per serial.
	ns, _ = timeLoop(loopBudget, func() {
		z, err := in.world.Signer.Sign(in.campBase, in.now)
		fail(err)
		sink = z
	})
	m["dnssec.sign_ms"] = ns / 1e6
	ns, _ = timeLoop(loopBudget, func() {
		// A fresh copy each time: validation verdicts are cached on the zone.
		fail(dnssec.ValidateZone(in.campZone.Clone(), in.world.Anchor, in.now))
	})
	m["dnssec.validate_us"] = ns / 1e3 / float64(in.campSigs)
	ns, _ = timeLoop(loopBudget, func() {
		d, err := zonemd.Digest(in.campZone)
		fail(err)
		sinkInt = len(d)
	})
	m["zonemd.digest_us"] = ns / 1e3

	// The campaign's per-probe and per-tick calls.
	dep := in.world.System.Deployments["k"]
	ns, _ = timeLoop(loopBudget, func() {
		sink = in.world.Topo.ComputeRoutes(dep.Origins(), topology.IPv4)
	})
	m["topology.routes_ms"] = ns / 1e6
	catch := in.world.Catchments["k"][topology.IPv4]
	vps := in.world.Population.VPs
	scale := 192
	ix = next(len(vps))
	tick = 0
	m["anycast.select_ns"], _ = timeLoop(loopBudget, func() {
		tick++
		r, ok := catch.SelectAt(vps[ix()].ASN, tick, int64(in.seed), scale)
		sinkBool = ok
		sinkInt = len(r.ASPath)
	})
	var routes []topology.Route
	for i := range vps {
		if r, ok := catch.SelectAt(vps[i].ASN, 0, int64(in.seed), scale); ok {
			routes = append(routes, r)
		}
	}
	if len(routes) == 0 {
		return errors.New("layer inputs: no vantage point reaches k.root")
	}
	trCfg := traceroute.DefaultConfig()
	ix = next(len(routes))
	tick = 0
	m["traceroute.run_ns"], _ = timeLoop(loopBudget, func() {
		tick++
		r := routes[ix()]
		site, _ := dep.SiteByID(r.Origin.SiteID)
		tr := traceroute.Run(in.world.Topo, r, site, topology.IPv4, trCfg, int64(in.seed), tick)
		sinkInt = len(tr.Hops)
	})
	battery, err := measure.NewBattery(in.campZone, dnsserver.Identity{Hostname: "wirecheck.local", Version: "repro-bench"})
	if err != nil {
		return err
	}
	target := rss.ServiceAddr{Letter: "a", Family: topology.IPv4}
	var batteryFailures []string
	ns, _ = timeLoop(loopBudget, func() {
		res := battery.Run(target, "wirecheck.local")
		batteryFailures = res.Failures
	})
	m["measure.battery_ms"] = ns / 1e6
	if len(batteryFailures) > 0 {
		fail(fmt.Errorf("wire battery: %s", batteryFailures[0]))
	}
	return firstErr
}

// datasetLayers measures the container and the decoder on a recorded
// dataset: frame scanning, CRC + inflate, and what decoding adds on top.
// Events is how many events the file holds. It returns what scanning and
// inflating cost per event, in nanoseconds.
func datasetLayers(in *layerInputs, loopBudget time.Duration, data []byte, events int, m map[string]float64) (containerNs float64, err error) {
	if len(data) < 5 {
		return 0, errors.New("dataset too short")
	}
	// The file says which container it is: four bytes of magic, then the
	// version as a uvarint.
	magic := string(data[:4])
	version, n := binary.Uvarint(data[4:])
	if n <= 0 {
		return 0, errors.New("dataset has no version")
	}

	var frames []segment.Frame
	scan := func() error {
		frames = frames[:0]
		r, err := segment.NewReader(bytes.NewReader(data), magic, version)
		if err != nil {
			return err
		}
		for {
			f, err := r.NextFrame()
			if errors.Is(err, io.EOF) {
				break
			}
			if err != nil {
				return err
			}
			frames = append(frames, f)
		}
		if r.Torn() {
			return fmt.Errorf("dataset reads as torn: %v", r.TornReason())
		}
		return nil
	}
	var firstErr error
	scanNs, _ := timeLoop(loopBudget, func() {
		if err := scan(); err != nil && firstErr == nil {
			firstErr = err
		}
	})
	if firstErr != nil {
		return 0, firstErr
	}
	m["segment.scan_mb_s"] = float64(len(data)) / 1e6 / (scanNs / 1e9)

	inflated := 0
	inflateNs, _ := timeLoop(loopBudget, func() {
		inflated = 0
		for _, f := range frames {
			p, err := segment.Decompress(f)
			if err != nil && firstErr == nil {
				firstErr = err
			}
			inflated += len(p)
		}
	})
	if firstErr != nil {
		return 0, firstErr
	}
	m["segment.crc_inflate_mb_s"] = float64(inflated) / 1e6 / (inflateNs / 1e9)

	// Replay with no handler scans, inflates and decodes; the difference
	// from the two loops above is the decoder alone.
	replayed := 0
	replayNs, _ := timeLoop(2*loopBudget, func() {
		r, err := datasetReader(data, in.world)
		if err == nil {
			var p, t int
			p, t, err = r.Replay()
			replayed = p + t
		}
		if err != nil && firstErr == nil {
			firstErr = err
		}
	})
	if firstErr != nil {
		return 0, firstErr
	}
	if replayed != events {
		return 0, fmt.Errorf("replayed %d events of %d recorded", replayed, events)
	}
	m["dataset.decode_ns"] = (replayNs - scanNs - inflateNs) / float64(events)
	m["dataset.bytes_per_event"] = float64(len(data)) / float64(events)
	return (scanNs + inflateNs) / float64(events), nil
}
