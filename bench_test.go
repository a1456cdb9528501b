package repro

// The benchmark harness regenerates every table and figure of the paper
// (see DESIGN.md §4 for the experiment index). The expensive part — the
// simulated world and the active campaign — runs once and is shared;
// BenchmarkArtefacts then measures regenerating each artefact from the
// accumulated state, and prints it once so `go test -bench` output doubles as
// the reproduction report. Micro-benchmarks for the substrates and the
// ablation benches live at the bottom.

import (
	"fmt"
	"io"
	mrand "math/rand"
	"os"
	"sync"
	"testing"
	"time"

	"repro/internal/analysis"
	"repro/internal/anycast"
	"repro/internal/axfr"
	"repro/internal/control"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/dnssec"
	"repro/internal/dnswire"
	"repro/internal/geo"
	"repro/internal/measure"
	"repro/internal/propagation"
	"repro/internal/rss"
	"repro/internal/telemetry"
	"repro/internal/topology"
	"repro/internal/vantage"
	"repro/internal/zone"
	"repro/internal/zonemd"
)

var (
	studyOnce sync.Once
	study     *core.Study
	studyErr  error
)

// benchStudy runs the shared campaign once. BENCH_SCALE overrides the
// schedule thinning (smaller = closer to the paper's fidelity, slower).
func benchStudy(b *testing.B) *core.Study {
	b.Helper()
	studyOnce.Do(func() {
		cfg := core.DefaultConfig()
		if s := os.Getenv("BENCH_SCALE"); s != "" {
			fmt.Sscanf(s, "%d", &cfg.Scale)
		}
		study, studyErr = core.NewStudy(cfg)
		if studyErr != nil {
			return
		}
		start := time.Now()
		studyErr = study.Run()
		fmt.Fprintf(os.Stderr, "[bench setup] campaign (scale=%d, vps=%d) took %s\n",
			cfg.Scale, len(study.World.Population.VPs), time.Since(start).Round(time.Second))
	})
	if studyErr != nil {
		b.Fatal(studyErr)
	}
	return study
}

// printedArtifacts makes each artefact print once, however often its
// benchmark runs, so the bench log is the report.
var printedArtifacts sync.Map

// BenchmarkArtefacts regenerates every artefact of analysis.Artefacts from the
// shared campaign, one sub-benchmark per paper ID (BenchmarkArtefacts/T1).
func BenchmarkArtefacts(b *testing.B) {
	s := benchStudy(b)
	for _, a := range analysis.Artefacts {
		b.Run(a.ID, func(b *testing.B) {
			if _, loaded := printedArtifacts.LoadOrStore(a.ID, true); !loaded {
				a.Write(s.Suite, os.Stderr)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				a.Write(s.Suite, io.Discard)
			}
		})
	}
}

// --- Campaign engine scaling ----------------------------------------------

var (
	campaignWorldOnce sync.Once
	campaignWorld     *measure.World
	campaignWorldErr  error
)

// campaignBenchConfig is a QuickConfig-scale campaign: full target set, the
// fault-richest stretch of the timeline, thinned schedule.
func campaignBenchConfig(workers int) measure.Config {
	cfg := measure.DefaultConfig()
	cfg.Start = time.Date(2023, 11, 20, 0, 0, 0, 0, time.UTC)
	cfg.End = time.Date(2023, 12, 10, 0, 0, 0, 0, time.UTC)
	cfg.Scale = 16
	cfg.TLDCount = 20
	cfg.Workers = workers
	return cfg
}

// countingHandler keeps the campaign honest without analysis cost.
type countingHandler struct{ probes, transfers int }

func (h *countingHandler) HandleProbe(measure.ProbeEvent)       { h.probes++ }
func (h *countingHandler) HandleTransfer(measure.TransferEvent) { h.transfers++ }

// benchmarkCampaignWorkers measures a full Campaign.Run at the given worker
// count over a shared world, making the engine's core-scaling visible in the
// bench trajectory.
func benchmarkCampaignWorkers(b *testing.B, workers int) {
	campaignWorldOnce.Do(func() {
		cfg := campaignBenchConfig(1)
		topoCfg := topology.DefaultConfig()
		topoCfg.Seed = cfg.Seed
		vpCfg := vantage.DefaultConfig()
		vpCfg.Seed = cfg.Seed
		vpCfg.Scale = 20
		campaignWorld, campaignWorldErr = measure.NewWorld(cfg, topoCfg, vpCfg)
	})
	if campaignWorldErr != nil {
		b.Fatal(campaignWorldErr)
	}
	cfg := campaignBenchConfig(workers)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h := &countingHandler{}
		if err := measure.NewCampaign(cfg, campaignWorld).Run(h); err != nil {
			b.Fatal(err)
		}
		if h.probes == 0 {
			b.Fatal("campaign emitted no probes")
		}
	}
}

func BenchmarkCampaignWorkers1(b *testing.B) { benchmarkCampaignWorkers(b, 1) }
func BenchmarkCampaignWorkers4(b *testing.B) { benchmarkCampaignWorkers(b, 4) }
func BenchmarkCampaignWorkers8(b *testing.B) { benchmarkCampaignWorkers(b, 8) }

// benchmarkCampaignWorkersTelemetry is the same campaign with the telemetry
// layer fully live — counters, gauges, and the wall-clock histogram timers
// that SetEnabled gates (the exact state a `-metrics`/`-telemetry-addr` run
// is in). Pair these against the plain variants to read the layer's overhead
// on the campaign (the budget is ≤3%); the gated end-to-end figures are
// `go run ./bench`'s.
func benchmarkCampaignWorkersTelemetry(b *testing.B, workers int) {
	telemetry.Reset()
	telemetry.SetEnabled(true)
	defer telemetry.SetEnabled(false)
	benchmarkCampaignWorkers(b, workers)
}

func BenchmarkCampaignWorkersTelemetry1(b *testing.B) { benchmarkCampaignWorkersTelemetry(b, 1) }
func BenchmarkCampaignWorkersTelemetry4(b *testing.B) { benchmarkCampaignWorkersTelemetry(b, 4) }
func BenchmarkCampaignWorkersTelemetry8(b *testing.B) { benchmarkCampaignWorkersTelemetry(b, 8) }

// --- Substrate micro-benchmarks ------------------------------------------

func benchMessage() *dnswire.Message {
	m := dnswire.NewQuery(1, dnswire.Root, dnswire.TypeNS)
	m.Header.Response = true
	for i := 0; i < 13; i++ {
		host := dnswire.MustName(fmt.Sprintf("%c.root-servers.net.", 'a'+i))
		m.Answers = append(m.Answers, dnswire.RR{
			Name: dnswire.Root, Class: dnswire.ClassINET, TTL: 518400,
			Data: dnswire.NSRecord{Host: host},
		})
	}
	return m
}

func BenchmarkWirePack(b *testing.B) {
	m := benchMessage()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := m.Pack(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWireAppendPack is the steady-state encode: the caller reuses its
// output buffer, so with the pooled compression map the pack is expected to
// show 0 allocs/op (pinned by TestAppendPackSteadyStateZeroAllocs).
func BenchmarkWireAppendPack(b *testing.B) {
	m := benchMessage()
	buf, err := m.AppendPack(nil)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, err := m.AppendPack(buf[:0])
		if err != nil {
			b.Fatal(err)
		}
		buf = out
	}
}

func BenchmarkWireUnpack(b *testing.B) {
	wire, err := benchMessage().Pack()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := dnswire.Unpack(wire); err != nil {
			b.Fatal(err)
		}
	}
}

func benchSignedZone(b testing.TB, tlds int) (*zone.Zone, *dnssec.Signer) {
	b.Helper()
	signer, err := dnssec.NewSigner(mrand.New(mrand.NewSource(1)))
	if err != nil {
		b.Fatal(err)
	}
	cfg := zone.DefaultRootConfig()
	cfg.TLDCount = tlds
	signed, err := signer.Sign(zone.SynthesizeRoot(cfg),
		time.Date(2023, 12, 10, 0, 0, 0, 0, time.UTC))
	if err != nil {
		b.Fatal(err)
	}
	return signed, signer
}

func BenchmarkZoneSign(b *testing.B) {
	signer, err := dnssec.NewSigner(mrand.New(mrand.NewSource(1)))
	if err != nil {
		b.Fatal(err)
	}
	cfg := zone.DefaultRootConfig()
	cfg.TLDCount = 80
	unsigned := zone.SynthesizeRoot(cfg)
	when := time.Date(2023, 12, 10, 0, 0, 0, 0, time.UTC)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := signer.Sign(unsigned, when); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkZoneValidate(b *testing.B) {
	z, signer := benchSignedZone(b, 80)
	anchor := signer.TrustAnchor().Data.(dnswire.DSRecord)
	when := time.Date(2023, 12, 10, 1, 0, 0, 0, time.UTC)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := dnssec.ValidateZone(z, anchor, when); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkZonemdDigest(b *testing.B) {
	z, _ := benchSignedZone(b, 80)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := zonemd.Digest(z); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAXFRServeReceive(b *testing.B) {
	z, _ := benchSignedZone(b, 80)
	q := &dnswire.Message{
		Header: dnswire.Header{ID: 1},
		Questions: []dnswire.Question{{
			Name: dnswire.Root, Type: dnswire.TypeAXFR, Class: dnswire.ClassINET,
		}},
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var buf sliceBuffer
		if err := axfr.Serve(&buf, z, q); err != nil {
			b.Fatal(err)
		}
		if _, err := axfr.Receive(&buf, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAXFRServeReceiveLazy is BenchmarkAXFRServeReceive with the
// receive side on the lazy wire view: ReceiveCompare byte-verifies every
// record against the zone's canonical sidecar without materializing one
// decoded RR. The allocs/op delta against the full-decode bench above is
// the lazy path's whole point (pinned by TestAXFRLazyReceiveAllocs).
func BenchmarkAXFRServeReceiveLazy(b *testing.B) {
	z, _ := benchSignedZone(b, 80)
	q := &dnswire.Message{
		Header: dnswire.Header{ID: 1},
		Questions: []dnswire.Question{{
			Name: dnswire.Root, Type: dnswire.TypeAXFR, Class: dnswire.ClassINET,
		}},
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var buf sliceBuffer
		if err := axfr.Serve(&buf, z, q); err != nil {
			b.Fatal(err)
		}
		if _, err := axfr.ReceiveCompare(&buf, 1, z); err != nil {
			b.Fatal(err)
		}
	}
}

// sliceBuffer is a minimal in-memory byte pipe for the AXFR bench.
type sliceBuffer struct {
	data []byte
	off  int
}

func (s *sliceBuffer) Write(p []byte) (int, error) {
	s.data = append(s.data, p...)
	return len(p), nil
}

func (s *sliceBuffer) Read(p []byte) (int, error) {
	if s.off >= len(s.data) {
		return 0, io.EOF
	}
	n := copy(p, s.data[s.off:])
	s.off += n
	return n, nil
}

func BenchmarkRouteComputation(b *testing.B) {
	topo := topology.Build(topology.DefaultConfig())
	origins := []topology.Origin{
		{SiteID: "s1", ASN: 100}, {SiteID: "s2", ASN: 105},
		{SiteID: "s3", ASN: 110}, {SiteID: "s4", ASN: topology.ASNOpenV6},
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		topo.ComputeRoutes(origins, topology.IPv6)
	}
}

// --- Ablation benchmarks ---------------------------------------------------

// BenchmarkAblationCompression compares packing the priming response with
// and without name compression (DESIGN.md §5).
func BenchmarkAblationCompression(b *testing.B) {
	m := benchMessage()
	b.Run("compressed", func(b *testing.B) {
		b.ReportAllocs()
		var size int
		for i := 0; i < b.N; i++ {
			wire, err := m.Pack()
			if err != nil {
				b.Fatal(err)
			}
			size = len(wire)
		}
		b.ReportMetric(float64(size), "bytes/msg")
	})
	b.Run("uncompressed", func(b *testing.B) {
		b.ReportAllocs()
		var size int
		for i := 0; i < b.N; i++ {
			wire, err := m.PackUncompressed()
			if err != nil {
				b.Fatal(err)
			}
			size = len(wire)
		}
		b.ReportMetric(float64(size), "bytes/msg")
	})
}

// BenchmarkAblationCanonicalSort compares digesting a pre-sorted zone with
// digesting a shuffled one (the sort dominates for unsorted input).
func BenchmarkAblationCanonicalSort(b *testing.B) {
	z, _ := benchSignedZone(b, 80)
	sorted := z.Clone().Canonicalize()
	shuffled := z.Clone()
	rng := mrand.New(mrand.NewSource(3))
	rng.Shuffle(len(shuffled.Records), func(i, j int) {
		shuffled.Records[i], shuffled.Records[j] = shuffled.Records[j], shuffled.Records[i]
	})
	for _, sel := range []struct {
		name string
		z    *zone.Zone
	}{{"presorted", sorted}, {"shuffled", shuffled}} {
		b.Run(sel.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := zonemd.Digest(sel.z); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationCatchmentCache compares resolving a site through the
// precomputed catchment against recomputing routes per query.
func BenchmarkAblationCatchmentCache(b *testing.B) {
	topo := topology.Build(topology.DefaultConfig())
	builder := anycast.NewBuilder(topo, 1)
	d := &anycast.Deployment{Name: "x"}
	d.Sites = builder.PlaceSites("x", anycast.Global, geo.Europe, 12)
	stubs := topo.StubASNs(nil)
	b.Run("cached", func(b *testing.B) {
		c := anycast.ComputeCatchment(topo, d, topology.IPv4)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			c.Choices(stubs[i%len(stubs)], 1)
		}
	})
	b.Run("recompute", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			c := anycast.ComputeCatchment(topo, d, topology.IPv4)
			c.Choices(stubs[i%len(stubs)], 1)
		}
	})
}

// BenchmarkAblationPolicyWeights compares policy (Gao-Rexford) routing with
// classless shortest-path routing and reports the route-inflation gap: the
// share of stubs whose policy route is geographically longer than their
// shortest-path route.
func BenchmarkAblationPolicyWeights(b *testing.B) {
	topo := topology.Build(topology.DefaultConfig())
	origins := []topology.Origin{
		{SiteID: "s1", ASN: 100}, {SiteID: "s2", ASN: 104},
		{SiteID: "s3", ASN: 108}, {SiteID: "s4", ASN: 111},
	}
	b.Run("policy", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			topo.ComputeRoutes(origins, topology.IPv4)
		}
	})
	b.Run("shortest", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			topo.ComputeRoutesShortest(origins, topology.IPv4)
		}
	})
	// Report inflation once.
	policy := topo.ComputeRoutes(origins, topology.IPv4)
	shortest := topo.ComputeRoutesShortest(origins, topology.IPv4)
	inflated, total := 0, 0
	for _, asn := range topo.StubASNs(nil) {
		p, s := policy.Candidates(asn), shortest.Candidates(asn)
		if len(p) == 0 || len(s) == 0 {
			continue
		}
		total++
		if p[0].PathKm > s[0].PathKm+250 {
			inflated++
		}
	}
	if _, loaded := printedArtifacts.LoadOrStore("ablation-policy", true); !loaded {
		fmt.Fprintf(os.Stderr, "[ablation] policy routing inflates %d/%d stub paths vs shortest-path\n",
			inflated, total)
	}
}

// BenchmarkExtensionControlGroup runs the Appendix-E control-group
// comparison (a 13-site deployment under experimenter control vs h.root).
func BenchmarkExtensionControlGroup(b *testing.B) {
	topo := topology.Build(topology.DefaultConfig())
	sys := rss.Build(topo, 1)
	vpCfg := vantage.DefaultConfig()
	vpCfg.Scale = 5
	pop := vantage.Generate(topo, vpCfg)
	cfg := control.DefaultConfig()
	cfg.Ticks = 50
	exp := control.New(cfg, topo, sys, pop)
	var res *control.Result
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res = exp.Run("h", topology.IPv4)
	}
	b.StopTimer()
	if _, loaded := printedArtifacts.LoadOrStore("ext-control", true); !loaded {
		res.Write(os.Stderr)
	}
}

// BenchmarkExtensionSOAPropagation runs the per-second SOA convergence
// experiment (Appendix E, "Limited Temporal Resolution").
func BenchmarkExtensionSOAPropagation(b *testing.B) {
	topo := topology.Build(topology.DefaultConfig())
	sys := rss.Build(topo, 1)
	vpCfg := vantage.DefaultConfig()
	vpCfg.Scale = 10
	exp := &propagation.Experiment{
		Topo:       topo,
		System:     sys,
		Population: vantage.Generate(topo, vpCfg),
		Models:     propagation.DefaultSyncModels(),
		Window:     2 * time.Minute,
		Seed:       3,
	}
	var results []propagation.LetterResult
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		results = exp.Run(topology.IPv4)
	}
	b.StopTimer()
	if _, loaded := printedArtifacts.LoadOrStore("ext-soa", true); !loaded {
		propagation.Write(os.Stderr, results)
	}
}

// BenchmarkDatasetWrite measures recording throughput of the compressed
// event log (the paper's data-publication path).
func BenchmarkDatasetWrite(b *testing.B) {
	s := benchStudy(b)
	// Synthesize a representative probe event once.
	e := measure.ProbeEvent{
		Tick:         measure.Tick{Index: 10, Time: measure.StudyStart},
		VP:           &s.World.Population.VPs[0],
		Target:       rss.AllServiceAddrs()[0],
		SiteID:       "a-fra1",
		Identifier:   "fra",
		Facility:     "IX-FRA",
		SiteCity:     s.World.Population.VPs[0].City,
		RTTms:        17.3,
		ASPath:       []int{4242, 1001, 100, 5555},
		SecondToLast: "fac-IX-FRA-edge-IPv4",
		STLOK:        true,
	}
	w, err := dataset.NewWriter(io.Discard)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Tick.Index = i
		w.HandleProbe(e)
	}
	b.StopTimer()
	if err := w.Close(); err != nil {
		b.Fatal(err)
	}
}
