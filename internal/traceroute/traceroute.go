// Package traceroute simulates the mtr step of the measurement battery: it
// expands an AS-level route into router-level hops, models unresponsive
// hops, and extracts the second-to-last hop the paper's co-location analysis
// keys on. Router identities are deterministic per (AS, family) — except the
// final two hops, which are derived from the destination site's facility, so
// that co-located sites of different letters genuinely share last-hop
// infrastructure.
package traceroute

import (
	"strconv"

	"repro/internal/anycast"
	"repro/internal/seeded"
	"repro/internal/topology"
)

// Hop is one traceroute hop.
type Hop struct {
	// Router identifies the responding interface ("" when the hop did not
	// answer, which the analysis must treat as unique).
	Router string
	// ASN is the AS the router belongs to (0 when unresponsive).
	ASN int
	// RTTms is the round-trip time to this hop.
	RTTms float64
}

// Trace is one completed traceroute.
type Trace struct {
	// DestSite is the anycast site the probe landed on.
	DestSite anycast.Site
	Family   topology.Family
	Hops     []Hop
}

// SecondToLast returns the identity of the second-to-last responding hop —
// the facility-edge router in front of the destination. The second return
// is false when the hop was unresponsive (missed by traceroute), in which
// case the co-location analysis counts it as unique.
//
//rootlint:allow deadcode: the reading of Run that TestEdgeFunctionsMatchRun holds the edge functions, and measure's TestProbeMatchesReference the planned probe, to
func (t Trace) SecondToLast() (string, bool) {
	if len(t.Hops) < 2 {
		return "", false
	}
	h := t.Hops[len(t.Hops)-2]
	return h.Router, h.Router != ""
}

// Config tunes trace expansion.
type Config struct {
	// RoutersPerAS is how many router hops each transit AS contributes.
	RoutersPerAS int
	// MissProb is the probability a non-terminal hop does not respond.
	MissProb float64
	// PerHopMs is the queueing/processing delay added per hop.
	PerHopMs float64
}

// DefaultConfig matches typical mtr output shapes.
func DefaultConfig() Config {
	return Config{RoutersPerAS: 2, MissProb: 0.08, PerHopMs: 0.25}
}

// drawKey keys the hop draws of one trace — draw k decides whether hop k
// answers — by the tick, the origin AS and the AS-path length, not the client.
func drawKey(seed int64, tick, originASN, pathLen int) uint64 {
	return uint64(seed ^ int64(tick)<<32 ^ int64(originASN)<<8 ^ int64(pathLen))
}

// EdgeAnswers reports whether the facility edge router — the second-to-last
// hop, the one the co-location analysis keys on — answers the trace at tick
// over a path of pathLen ASes ending in originASN. It follows the interior
// hops (RoutersPerAS per transit AS, one in the destination AS), so its draw
// is RoutersPerAS·(pathLen−1)+1 — 0 on an empty path — and it is missed half
// as often as they are.
//
//rootlint:hotpath
func EdgeAnswers(cfg Config, seed int64, tick, originASN, pathLen int) bool {
	k := 0
	if pathLen > 0 {
		k = cfg.RoutersPerAS*(pathLen-1) + 1
	}
	return seeded.Unit(seeded.Draw(drawKey(seed, tick, originASN, pathLen), k)) >= cfg.MissProb/2
}

// EdgeName is the identity of a facility's edge router in family f, shared by
// every deployment with a site at the facility.
func EdgeName(facility string, f topology.Family) string {
	return string(appendEdgeName(nil, facility, f.String()))
}

func appendEdgeName(dst []byte, facility, fam string) []byte {
	dst = append(append(dst, "fac-"...), facility...)
	return append(append(dst, "-edge-"...), fam...)
}

// Run expands route into a Trace. The last hop is the destination itself;
// the second-to-last is the facility edge router of the destination site
// (EdgeName, answering when EdgeAnswers). The expansion is deterministic in
// (route, seed, tick) and does not depend on the client AS: draw k of the
// trace's key decides whether hop k answers.
//
// The campaign no longer calls Run: of a trace it records only SecondToLast,
// and expanding every hop to read one was a quarter of a probe. Run stays as
// the definition the two edge functions are held to
// (TestEdgeFunctionsMatchRun), and for callers that want every hop.
//
//rootlint:allow deadcode: bench/layers.go times it as traceroute.run_ns
func Run(topo *topology.Topology, route topology.Route, site anycast.Site, f topology.Family, cfg Config, seed int64, tick int) Trace {
	key := drawKey(seed, tick, route.Origin.ASN, len(route.ASPath))
	n := len(route.ASPath)
	hops := make([]Hop, 0, cfg.RoutersPerAS*max(n-1, 0)+3)
	// Router names are rendered into one buffer that becomes the one string
	// every Hop.Router slices; ends[k] is where hop k's name stops (where it
	// starts, for a hop that did not answer). Both begin on the stack and
	// only an unusually long path outgrows them.
	names := make([]byte, 0, 512)
	ends := make([]int, 0, 32)
	fam := f.String()
	// answers is the next hop's draw; add closes that hop once its name, if
	// it has one, is rendered.
	answers := func(missProb float64) bool {
		return seeded.Unit(seeded.Draw(key, len(hops))) >= missProb
	}
	add := func(asn int, km float64) {
		ends = append(ends, len(names))
		hops = append(hops, Hop{ASN: asn, RTTms: km*0.01 + float64(len(hops)+1)*cfg.PerHopMs})
	}

	// Interior hops: RoutersPerAS per transit AS on the path (excluding the
	// destination AS's facility hops added below).
	kmSoFar := 0.0
	for i, asn := range route.ASPath {
		// Accumulate distance to this AS.
		if i > 0 && topo.ASes[route.ASPath[i-1]] != nil && topo.ASes[asn] != nil {
			kmSoFar += segKm(route.PathKm, n)
		}
		routers := cfg.RoutersPerAS
		if i == n-1 {
			routers = 1 // destination AS interior; facility hops follow
		}
		for r := 1; r <= routers; r++ {
			if answers(cfg.MissProb) {
				names = strconv.AppendInt(append(names, "as"...), int64(asn), 10)
				names = strconv.AppendInt(append(names, "-r"...), int64(r), 10)
				names = append(append(names, '-'), fam...)
			}
			add(asn, kmSoFar)
		}
	}

	// Facility edge router: shared across deployments at the facility, and
	// rarely missed.
	if EdgeAnswers(cfg, seed, tick, route.Origin.ASN, n) {
		names = appendEdgeName(names, site.Facility, fam)
	}
	add(route.Origin.ASN, route.PathKm)

	// Destination.
	names = append(append(names, "site-"...), site.ID...)
	names = append(append(names, '-'), fam...)
	add(route.Origin.ASN, route.PathKm)

	all, start := string(names), 0
	for k, end := range ends {
		hops[k].Router = all[start:end]
		start = end
	}
	return Trace{DestSite: site, Family: f, Hops: hops}
}

// segKm apportions the total path distance over the inter-AS segments.
func segKm(totalKm float64, nASes int) float64 {
	if nASes <= 1 {
		return 0
	}
	return totalKm / float64(nASes-1)
}
