package topology

import (
	"testing"

	"repro/internal/geo"
)

func TestShortestPathRoutesReachEverything(t *testing.T) {
	topo := buildSmall(t)
	origin := Origin{SiteID: "s", ASN: 100}
	rt := topo.ComputeRoutesShortest([]Origin{origin}, IPv4)
	for _, asn := range topo.StubASNs(nil) {
		if rt.Candidates(asn).Len() == 0 {
			t.Errorf("stub %d unreachable under shortest-path routing", asn)
		}
	}
}

func TestShortestNeverLongerThanPolicy(t *testing.T) {
	topo := buildSmall(t)
	origins := []Origin{{SiteID: "a", ASN: 100}, {SiteID: "b", ASN: 106}}
	policy := topo.ComputeRoutes(origins, IPv4)
	shortest := topo.ComputeRoutesShortest(origins, IPv4)
	for _, asn := range topo.StubASNs(nil) {
		p, okP := best(policy, asn)
		s, okS := best(shortest, asn)
		if !okP || !okS {
			continue
		}
		if len(s.ASPath) > len(p.ASPath) {
			t.Errorf("AS %d: shortest path %d hops > policy %d hops",
				asn, s.Hops(), p.Hops())
		}
	}
}

func TestShortestRespectsLocalScope(t *testing.T) {
	topo := buildSmall(t)
	var host int
	for _, asn := range topo.StubASNs(nil) {
		if len(topo.adj[IPv4][topo.ord[asn]]) > 0 {
			host = asn
			break
		}
	}
	rt := topo.ComputeRoutesShortest([]Origin{{SiteID: "l", ASN: host, Local: true}}, IPv4)
	for asn := range topo.ASes {
		if r, ok := best(rt, asn); ok && len(r.ASPath) > 2 {
			t.Errorf("local origin leaked to %d via %v", asn, r.ASPath)
		}
	}
}

func TestShortestDeterministic(t *testing.T) {
	topo := buildSmall(t)
	origins := []Origin{{SiteID: "a", ASN: 100}, {SiteID: "b", ASN: 103}}
	a := topo.ComputeRoutesShortest(origins, IPv6)
	b := topo.ComputeRoutesShortest(origins, IPv6)
	region := geo.Europe
	for _, asn := range topo.StubASNs(&region) {
		ra, okA := best(a, asn)
		rb, okB := best(b, asn)
		if okA != okB {
			t.Fatalf("AS %d reachability differs", asn)
		}
		if okA && ra.Origin.SiteID != rb.Origin.SiteID {
			t.Fatalf("AS %d selection differs: %s vs %s", asn, ra.Origin.SiteID, rb.Origin.SiteID)
		}
	}
}
