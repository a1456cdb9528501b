package traceroute

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/anycast"
	"repro/internal/geo"
	"repro/internal/rss"
	"repro/internal/seeded"
	"repro/internal/topology"
)

func setup(t *testing.T) (*topology.Topology, *anycast.Deployment, *anycast.Deployment) {
	t.Helper()
	cfg := topology.Config{
		Seed: 9,
		StubsPerRegion: map[geo.Region]int{
			geo.Africa: 3, geo.Asia: 6, geo.Europe: 20,
			geo.NorthAmerica: 10, geo.SouthAmerica: 4, geo.Oceania: 4,
		},
		Tier2PerRegion: map[geo.Region]int{
			geo.Africa: 2, geo.Asia: 2, geo.Europe: 4,
			geo.NorthAmerica: 3, geo.SouthAmerica: 2, geo.Oceania: 2,
		},
	}
	topo := topology.Build(cfg)
	b := anycast.NewBuilder(topo, 2)
	d1 := &anycast.Deployment{Name: "p"}
	d1.Sites = b.PlaceSites("p", anycast.Global, geo.Europe, 5)
	d2 := &anycast.Deployment{Name: "q"}
	d2.Sites = b.PlaceSites("q", anycast.Global, geo.Europe, 5)
	return topo, d1, d2
}

// bestRoute returns asn's preferred route into the catchment, if it has one.
func bestRoute(c *anycast.Catchment, asn int) (topology.Route, bool) {
	rs := c.Choices(asn, 1).Routes
	if rs.Len() == 0 {
		return topology.Route{}, false
	}
	return rs.At(0), true
}

func TestRunShape(t *testing.T) {
	topo, d, _ := setup(t)
	c := anycast.ComputeCatchment(topo, d, topology.IPv4)
	asn := topo.StubASNs(nil)[0]
	route, ok := bestRoute(c, asn)
	if !ok {
		t.Fatal("unroutable")
	}
	site, _ := d.SiteByID(route.Origin.SiteID)
	tr := Run(topo, route, site, topology.IPv4, DefaultConfig(), 1, 0)

	if len(tr.Hops) < 3 {
		t.Fatalf("only %d hops", len(tr.Hops))
	}
	last := tr.Hops[len(tr.Hops)-1]
	if !strings.HasPrefix(last.Router, "site-") {
		t.Errorf("last hop %q is not the site", last.Router)
	}
	// RTT must be monotonically plausible: final >= first.
	if last.RTTms < tr.Hops[0].RTTms {
		t.Error("destination RTT below first hop RTT")
	}
	// Second-to-last identifies the facility when responsive.
	if stl, ok := tr.SecondToLast(); ok && !strings.HasPrefix(stl, "fac-") {
		t.Errorf("second-to-last %q is not a facility edge", stl)
	}
}

func TestColocatedDeploymentsShareSecondToLast(t *testing.T) {
	topo, d1, d2 := setup(t)
	// Find a facility hosting sites of both deployments.
	facOf := map[string]bool{}
	for _, s := range d1.Sites {
		facOf[s.Facility] = true
	}
	var shared string
	for _, s := range d2.Sites {
		if facOf[s.Facility] {
			shared = s.Facility
			break
		}
	}
	if shared == "" {
		t.Skip("no shared facility in this topology draw")
	}
	var s1, s2 anycast.Site
	for _, s := range d1.Sites {
		if s.Facility == shared {
			s1 = s
		}
	}
	for _, s := range d2.Sites {
		if s.Facility == shared {
			s2 = s
		}
	}
	cfg := DefaultConfig()
	cfg.MissProb = 0 // deterministic responsiveness for the assertion
	route1 := topology.Route{Origin: topology.Origin{SiteID: s1.ID, ASN: s1.HostASN}, ASPath: []int{1000, s1.HostASN}, PathKm: 100}
	route2 := topology.Route{Origin: topology.Origin{SiteID: s2.ID, ASN: s2.HostASN}, ASPath: []int{1000, s2.HostASN}, PathKm: 100}
	t1 := Run(topo, route1, s1, topology.IPv4, cfg, 1, 0)
	t2 := Run(topo, route2, s2, topology.IPv4, cfg, 1, 0)
	stl1, ok1 := t1.SecondToLast()
	stl2, ok2 := t2.SecondToLast()
	if !ok1 || !ok2 {
		t.Fatal("second-to-last unresponsive with MissProb 0")
	}
	if stl1 != stl2 {
		t.Errorf("co-located sites have different last-hop infra: %q vs %q", stl1, stl2)
	}
}

func TestFamiliesDistinctRouters(t *testing.T) {
	topo, d, _ := setup(t)
	c4 := anycast.ComputeCatchment(topo, d, topology.IPv4)
	asn := topo.StubASNs(nil)[0]
	route, ok := bestRoute(c4, asn)
	if !ok {
		t.Fatal("unroutable")
	}
	site, _ := d.SiteByID(route.Origin.SiteID)
	cfg := DefaultConfig()
	cfg.MissProb = 0
	t4 := Run(topo, route, site, topology.IPv4, cfg, 1, 0)
	t6 := Run(topo, route, site, topology.IPv6, cfg, 1, 0)
	stl4, _ := t4.SecondToLast()
	stl6, _ := t6.SecondToLast()
	if stl4 == stl6 {
		t.Error("v4 and v6 share router identities; families must be distinct")
	}
}

func TestMissedHops(t *testing.T) {
	topo, d, _ := setup(t)
	c := anycast.ComputeCatchment(topo, d, topology.IPv4)
	cfg := DefaultConfig()
	cfg.MissProb = 0.5
	missed, total := 0, 0
	for i, asn := range topo.StubASNs(nil) {
		route, ok := bestRoute(c, asn)
		if !ok {
			continue
		}
		site, _ := d.SiteByID(route.Origin.SiteID)
		tr := Run(topo, route, site, topology.IPv4, cfg, int64(i), 0)
		for _, h := range tr.Hops[:len(tr.Hops)-1] {
			total++
			if h.Router == "" {
				missed++
			}
		}
	}
	if missed == 0 {
		t.Error("MissProb 0.5 produced no missed hops")
	}
	if missed*10 < total { // at least ~10% missing with p=0.5
		t.Errorf("missed %d/%d hops; too few for MissProb 0.5", missed, total)
	}
}

func TestShortTraceSecondToLast(t *testing.T) {
	tr := Trace{Hops: []Hop{{Router: "only"}}}
	if _, ok := tr.SecondToLast(); ok {
		t.Error("single-hop trace has a second-to-last")
	}
}

func TestRunAllocatesTwice(t *testing.T) {
	topo, d, _ := setup(t)
	c := anycast.ComputeCatchment(topo, d, topology.IPv4)
	var route topology.Route
	for _, asn := range topo.StubASNs(nil) {
		if r, ok := bestRoute(c, asn); ok && len(r.ASPath) > len(route.ASPath) {
			route = r
		}
	}
	site, _ := d.SiteByID(route.Origin.SiteID)
	tick := 0
	// The hop slice and the one string the router names share.
	if allocs := testing.AllocsPerRun(1000, func() {
		tick++
		Run(topo, route, site, topology.IPv4, DefaultConfig(), 1, tick)
	}); allocs > 2 {
		t.Errorf("Run over a %d-AS path: %v allocs/op, want at most 2", len(route.ASPath), allocs)
	}
}

// Router names are what the co-location analysis keys on and what datasets
// record; fmt.Sprintf is the oracle for the hand-rendered form.
func TestRouterNamesMatchSprintf(t *testing.T) {
	topo, d, _ := setup(t)
	def := DefaultConfig()
	checked := 0
	for _, f := range topology.Families() {
		c := anycast.ComputeCatchment(topo, d, f)
		for _, asn := range topo.StubASNs(nil) {
			routes := c.Choices(asn, 1).Routes
			for i := range routes.Len() {
				route := routes.At(i)
				site, _ := d.SiteByID(route.Origin.SiteID)
				var want []string
				for i, hopASN := range route.ASPath {
					routers := def.RoutersPerAS
					if i == len(route.ASPath)-1 {
						routers = 1
					}
					for r := 1; r <= routers; r++ {
						want = append(want, fmt.Sprintf("as%d-r%d-%s", hopASN, r, f))
					}
				}
				want = append(want, fmt.Sprintf("fac-%s-edge-%s", site.Facility, f), fmt.Sprintf("site-%s-%s", site.ID, f))
				for _, missProb := range []float64{0, def.MissProb} {
					cfg := def
					cfg.MissProb = missProb
					tr := Run(topo, route, site, f, cfg, 1, asn)
					if len(tr.Hops) != len(want) || cap(tr.Hops) != len(want) {
						t.Fatalf("AS%d %s: %d hops (cap %d), want %d", asn, f, len(tr.Hops), cap(tr.Hops), len(want))
					}
					for k, h := range tr.Hops {
						if h.Router != want[k] && (missProb == 0 || h.Router != "") {
							t.Errorf("AS%d %s hop %d: %q, want %q", asn, f, k, h.Router, want[k])
						}
						checked++
					}
				}
			}
		}
	}
	if checked < 1000 {
		t.Fatalf("only %d hops checked", checked)
	}
}

// missStats runs traces over (tick, origin, path-length) coordinates and
// returns the interior and edge miss shares, plus how often two neighbouring
// interior hops, and the first hop at two neighbouring ticks, are both missed.
func missStats(seed int64) (interior, edge, pairHops, pairTicks float64, missed []bool) {
	topo := &topology.Topology{}
	cfg := DefaultConfig()
	var nInterior, nEdge, nPairs, nTicks float64
	for origin := 1; origin <= 50; origin++ {
		for pathLen := 2; pathLen <= 5; pathLen++ {
			route := topology.Route{Origin: topology.Origin{ASN: origin}, ASPath: make([]int, pathLen)}
			prevFirst := false
			for tick := 0; tick < 500; tick++ {
				tr := Run(topo, route, anycast.Site{}, topology.IPv4, cfg, seed, tick)
				hops := tr.Hops[:len(tr.Hops)-2]
				for k, h := range hops {
					nInterior++
					missed = append(missed, h.Router == "")
					if h.Router == "" {
						interior++
						if k > 0 && hops[k-1].Router == "" {
							pairHops++
						}
					}
				}
				nPairs += float64(len(hops) - 1)
				nEdge++
				if _, ok := tr.SecondToLast(); !ok {
					edge++
				}
				first := hops[0].Router == ""
				if first && prevFirst {
					pairTicks++
				}
				prevFirst = first
				nTicks++
			}
		}
	}
	return interior / nInterior, edge / nEdge, pairHops / nPairs, pairTicks / nTicks, missed
}

func TestMissDistribution(t *testing.T) {
	p := DefaultConfig().MissProb
	interior, edge, pairHops, pairTicks, missed := missStats(1)
	if len(missed) < 100000 {
		t.Fatalf("only %d interior hops", len(missed))
	}
	if math.Abs(interior-p) > 0.005 {
		t.Errorf("interior miss share %.4f, want %.4f ± 0.005", interior, p)
	}
	if math.Abs(edge-p/2) > 0.005 {
		t.Errorf("edge miss share %.4f, want %.4f ± 0.005", edge, p/2)
	}
	// No lock-step between hop k and k+1, or between tick t and t+1.
	if math.Abs(pairHops-p*p) > 0.002 {
		t.Errorf("neighbouring hops both missed on %.4f of pairs, independent draws give %.4f", pairHops, p*p)
	}
	if math.Abs(pairTicks-p*p) > 0.002 {
		t.Errorf("first hop missed at t and t+1 on %.4f of ticks, independent draws give %.4f", pairTicks, p*p)
	}
	_, _, _, _, other := missStats(2)
	differ := 0
	for i := range missed {
		if missed[i] != other[i] {
			differ++
		}
	}
	if differ == 0 {
		t.Error("seeds 1 and 2 miss the same hops")
	}
}

// The campaign records of a trace only its second-to-last hop, and reads it
// off EdgeName and EdgeAnswers without expanding the trace; Run is what the
// two must equal. Every candidate route of every letter and family of a built
// system, 200 ticks, three trace shapes; the draw itself is restated here
// (hop index = position in Run's output, key and threshold as documented), so
// moving either side moves the test.
func TestEdgeFunctionsMatchRun(t *testing.T) {
	topo, _, _ := setup(t)
	sys := rss.Build(topo, 3)
	type trace struct {
		route topology.Route
		site  anycast.Site
		f     topology.Family
	}
	// An empty path and the origin's own one-AS path, then the system's.
	traces := []trace{
		{topology.Route{Origin: topology.Origin{ASN: 7}}, anycast.Site{ID: "x-1", Facility: "F0"}, topology.IPv6},
		{topology.Route{Origin: topology.Origin{ASN: 7}, ASPath: []int{7}}, anycast.Site{ID: "x-1", Facility: "F1"}, topology.IPv4},
	}
	for l, byFamily := range sys.Catchments() {
		for f, c := range byFamily {
			for _, asn := range topo.StubASNs(nil) {
				routes := c.Choices(asn, 1).Routes
				for i := range routes.Len() {
					route := routes.At(i)
					site, ok := sys.Deployments[l].SiteByID(route.Origin.SiteID)
					if !ok {
						t.Fatalf("%s.root: no site %q", l, route.Origin.SiteID)
					}
					traces = append(traces, trace{route, site, f})
				}
			}
		}
	}
	if len(traces) < 1000 {
		t.Fatalf("only %d routes", len(traces))
	}
	answered, missed := 0, 0
	for _, routers := range []int{1, 2, 3} {
		cfg := Config{RoutersPerAS: routers, MissProb: 0.3, PerHopMs: 0.25}
		for _, tr := range traces {
			n := len(tr.route.ASPath)
			name := EdgeName(tr.site.Facility, tr.f)
			if want := fmt.Sprintf("fac-%s-edge-%s", tr.site.Facility, tr.f); name != want {
				t.Fatalf("EdgeName = %q, want %q", name, want)
			}
			k := 0
			if n > 0 {
				k = routers*(n-1) + 1
			}
			for tick := 0; tick < 200; tick++ {
				run := Run(topo, tr.route, tr.site, tr.f, cfg, 5, tick)
				if len(run.Hops)-2 != k {
					t.Fatalf("%d-AS path, %d routers per AS: the edge is hop %d, want %d", n, routers, len(run.Hops)-2, k)
				}
				key := uint64(5 ^ int64(tick)<<32 ^ int64(tr.route.Origin.ASN)<<8 ^ int64(n))
				want := seeded.Unit(seeded.Draw(key, k)) >= cfg.MissProb/2
				got := EdgeAnswers(cfg, 5, tick, tr.route.Origin.ASN, n)
				stl, ok := run.SecondToLast()
				if got != want || ok != want || (ok && stl != name) || (!ok && stl != "") {
					t.Fatalf("%d-AS path into AS%d, tick %d: Run says (%q, %v), EdgeAnswers %v, the draw %v",
						n, tr.route.Origin.ASN, tick, stl, ok, got, want)
				}
				if ok {
					answered++
				} else {
					missed++
				}
			}
		}
	}
	if share := float64(missed) / float64(answered+missed); math.Abs(share-0.15) > 0.01 {
		t.Errorf("edge missed on %.3f of traces, want 0.15", share)
	}
}
