package topology

import (
	"testing"

	"repro/internal/geo"
)

// best returns asn's preferred route, if it has one.
func best(rt *RoutingTable, asn int) (Route, bool) {
	rs := rt.Candidates(asn)
	if rs.Len() == 0 {
		return Route{}, false
	}
	return rs.At(0), true
}

func buildSmall(t *testing.T) *Topology {
	t.Helper()
	cfg := Config{
		Seed: 7,
		StubsPerRegion: map[geo.Region]int{
			geo.Africa: 4, geo.Asia: 8, geo.Europe: 30,
			geo.NorthAmerica: 15, geo.SouthAmerica: 5, geo.Oceania: 5,
		},
		Tier2PerRegion: map[geo.Region]int{
			geo.Africa: 2, geo.Asia: 3, geo.Europe: 5,
			geo.NorthAmerica: 4, geo.SouthAmerica: 2, geo.Oceania: 2,
		},
	}
	topo := Build(cfg)
	if err := topo.Validate(); err != nil {
		t.Fatal(err)
	}
	return topo
}

func TestBuildDeterministic(t *testing.T) {
	a := Build(DefaultConfig())
	b := Build(DefaultConfig())
	if len(a.ASes) != len(b.ASes) || len(a.Edges) != len(b.Edges) {
		t.Fatalf("sizes differ: %d/%d ASes, %d/%d edges",
			len(a.ASes), len(b.ASes), len(a.Edges), len(b.Edges))
	}
	for i := range a.Edges {
		if a.Edges[i] != b.Edges[i] {
			t.Fatalf("edge %d differs: %+v vs %+v", i, a.Edges[i], b.Edges[i])
		}
	}
}

func TestBuildShape(t *testing.T) {
	topo := Build(DefaultConfig())
	if err := topo.Validate(); err != nil {
		t.Fatal(err)
	}
	var tier1, tier2, stub int
	for _, as := range topo.ASes {
		switch as.Tier {
		case Tier1:
			tier1++
		case Tier2:
			tier2++
		case Stub:
			stub++
		}
	}
	if tier1 < 10 {
		t.Errorf("tier1 count = %d", tier1)
	}
	if stub < 500 {
		t.Errorf("stub count = %d, want >= 500 (Table 3 has 523 networks)", stub)
	}
	if topo.ASes[ASNOpenV6] == nil {
		t.Error("open-v6 carrier missing")
	}
	if topo.ASes[ASNCarrierV4] == nil {
		t.Error("v4 carrier missing")
	}
	if len(topo.IXPs) < 20 {
		t.Errorf("IXP count = %d", len(topo.IXPs))
	}
}

func TestAllStubsReachGlobalOrigin(t *testing.T) {
	topo := buildSmall(t)
	// Announce from one Frankfurt-area stub's provider; every stub must
	// have a route in both families (the graph must be connected).
	origin := Origin{SiteID: "site-a", ASN: 100}
	// IPv4 transit is universal: every stub must have a route. IPv6 edges
	// are probabilistically absent, so a few stubs may genuinely lack v6
	// connectivity, as on the real Internet; require >= 95%.
	rt4 := topo.ComputeRoutes([]Origin{origin}, IPv4)
	for _, asn := range topo.StubASNs(nil) {
		if rt4.Candidates(asn).Len() == 0 {
			t.Errorf("IPv4: stub %d cannot reach origin", asn)
		}
	}
	rt6 := topo.ComputeRoutes([]Origin{origin}, IPv6)
	stubs := topo.StubASNs(nil)
	reach := 0
	for _, asn := range stubs {
		if rt6.Candidates(asn).Len() > 0 {
			reach++
		}
	}
	if reach*100 < len(stubs)*90 {
		t.Errorf("IPv6: only %d/%d stubs reach the origin", reach, len(stubs))
	}
}

func TestValleyFreePaths(t *testing.T) {
	topo := buildSmall(t)
	origin := Origin{SiteID: "s", ASN: 101}
	rt := topo.ComputeRoutes([]Origin{origin}, IPv4)
	// Reconstruct relationships to verify no valley: once the path goes
	// down (provider→customer) or across (peer), it must never go up or
	// across again.
	relOf := make(map[[2]int]localRel) // rel of edge as seen from first AS
	for _, e := range topo.Edges {
		if !e.V4 {
			continue
		}
		switch e.Rel {
		case Transit:
			relOf[[2]int{e.A, e.B}] = relCustomer // A sees B as customer
			relOf[[2]int{e.B, e.A}] = relProvider
		default:
			relOf[[2]int{e.A, e.B}] = relPeer
			relOf[[2]int{e.B, e.A}] = relPeer
		}
	}
	for _, asn := range topo.StubASNs(nil) {
		r, ok := best(rt, asn)
		if !ok {
			continue
		}
		// Walk from source to origin: each step from ASPath[i] to
		// ASPath[i+1]. From the traffic sender's perspective, the route was
		// learned via ASPath[1]; valley-freeness is over the reversed
		// announcement path: downhill (toward customers) cannot be followed
		// by uphill or peering.
		wentDownOrAcross := false
		for i := 0; i < len(r.ASPath)-1; i++ {
			rel, ok := relOf[[2]int{r.ASPath[i], r.ASPath[i+1]}]
			if !ok {
				t.Fatalf("path %v uses nonexistent edge %d-%d", r.ASPath, r.ASPath[i], r.ASPath[i+1])
			}
			// Traffic going from ASPath[i] to ASPath[i+1]: announcement
			// flowed the other way. Announcement step ASPath[i+1]→ASPath[i]
			// is "up" when ASPath[i] is a provider of ASPath[i+1], i.e.
			// rel (i sees i+1) == relCustomer.
			switch rel {
			case relCustomer: // announcement went customer→provider (up)
				if wentDownOrAcross {
					t.Errorf("valley in path %v at %d", r.ASPath, i)
				}
			case relPeer, relProvider:
				wentDownOrAcross = true
			}
		}
	}
}

func TestLocalOriginScope(t *testing.T) {
	topo := buildSmall(t)
	// Pick a stub AS with at least one neighbor to host a local site.
	var host int
	for _, asn := range topo.StubASNs(nil) {
		if len(topo.adj[IPv4][topo.ord[asn]]) > 0 {
			host = asn
			break
		}
	}
	origin := Origin{SiteID: "local-1", ASN: host, Local: true}
	rt := topo.ComputeRoutes([]Origin{origin}, IPv4)
	reachable := 0
	for asn := range topo.ASes {
		if rt.Candidates(asn).Len() == 0 {
			continue
		}
		reachable++
		r, _ := best(rt, asn)
		if len(r.ASPath) > 2 {
			t.Errorf("local origin leaked beyond one hop: %v", r.ASPath)
		}
	}
	directNeighbors := len(topo.adj[IPv4][topo.ord[host]])
	if reachable > directNeighbors+1 {
		t.Errorf("local origin reachable from %d ASes, host has %d neighbors",
			reachable, directNeighbors)
	}
	if reachable == 0 {
		t.Error("local origin reachable from nowhere")
	}
}

func TestAnycastPrefersCloserOrigin(t *testing.T) {
	topo := buildSmall(t)
	// Two origins: one at a European tier1 (FRA-homed 103) and one at an
	// Asian tier1 (NRT-homed 106). European stubs should mostly win the
	// European origin; shared tie-breaks keep this a majority check.
	origins := []Origin{
		{SiteID: "eu", ASN: 103},
		{SiteID: "asia", ASN: 106},
	}
	rt := topo.ComputeRoutes(origins, IPv4)
	region := geo.Europe
	euWins, total := 0, 0
	for _, asn := range topo.StubASNs(&region) {
		r, ok := best(rt, asn)
		if !ok {
			continue
		}
		total++
		if r.Origin.SiteID == "eu" {
			euWins++
		}
	}
	if total == 0 {
		t.Fatal("no routable European stubs")
	}
	if euWins*2 <= total {
		t.Errorf("European stubs prefer the European origin %d/%d times", euWins, total)
	}
}

func TestRouteAlternatesOrdered(t *testing.T) {
	topo := buildSmall(t)
	origins := []Origin{{SiteID: "a", ASN: 100}, {SiteID: "b", ASN: 105}}
	rt := topo.ComputeRoutes(origins, IPv6)
	for _, asn := range topo.StubASNs(nil) {
		alts := rt.Candidates(asn)
		for i := 0; i+1 < alts.Len(); i++ {
			if better(alts.At(i+1), alts.At(i)) {
				t.Fatalf("alternates for %d out of order", asn)
			}
		}
		if alts.Len() > maxAlternates {
			t.Fatalf("too many alternates: %d", alts.Len())
		}
	}
}

func TestPathKmPositive(t *testing.T) {
	topo := buildSmall(t)
	rt := topo.ComputeRoutes([]Origin{{SiteID: "s", ASN: 100}}, IPv4)
	for _, asn := range topo.StubASNs(nil) {
		r, ok := best(rt, asn)
		if !ok {
			continue
		}
		if r.Hops() > 0 && r.PathKm <= 0 {
			t.Errorf("AS %d: %d hops but %.1f km", asn, r.Hops(), r.PathKm)
		}
		if r.Hops() == 0 && r.PathKm != 0 {
			t.Errorf("AS %d: zero hops but %.1f km", asn, r.PathKm)
		}
	}
}

func TestFamilyAsymmetry(t *testing.T) {
	topo := Build(DefaultConfig())
	// The open-v6 carrier must have many more v6 peer edges than v4.
	v4n := len(topo.adj[IPv4][topo.ord[ASNOpenV6]])
	v6n := len(topo.adj[IPv6][topo.ord[ASNOpenV6]])
	if v6n <= v4n {
		t.Errorf("open-v6 carrier: %d v6 neighbors vs %d v4", v6n, v4n)
	}
}

func TestIXPAt(t *testing.T) {
	topo := Build(DefaultConfig())
	ix, ok := topo.IXPAt("FRA")
	if !ok || len(ix.Members) == 0 {
		t.Errorf("FRA IXP = %+v, %v", ix, ok)
	}
	if _, ok := topo.IXPAt("TNR"); ok {
		t.Error("unexpected IXP at TNR")
	}
}
