// Package topology provides a synthetic AS-level Internet with policy
// routing. It is the substitution for the real Internet's BGP substrate
// (DESIGN.md §2): ASes with geographic homes, customer/provider and peering
// edges (including IXP-mediated peering), per-address-family link
// availability, and Gao-Rexford route propagation (customer > peer >
// provider preference, valley-free export). Two special carrier ASes mirror
// the roles the paper attributes to AS6939 (open IPv6 peering, carrying
// traffic out of continent) and AS12956 (an IPv4 carrier fulfilling the same
// role in South America).
package topology

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"sort"

	"repro/internal/geo"
)

// Family is an IP address family.
type Family int

// Address families.
const (
	IPv4 Family = iota
	IPv6
)

// String returns "IPv4" or "IPv6".
func (f Family) String() string {
	if f == IPv4 {
		return "IPv4"
	}
	return "IPv6"
}

// Families lists both families in report order.
func Families() []Family { return []Family{IPv4, IPv6} }

// Relationship classifies an edge between two ASes.
type Relationship int

// Edge relationships. Transit edges are directed provider→customer in the
// data model; peering (bilateral or at an IXP) is symmetric.
const (
	Transit Relationship = iota
	Peering
	IXPPeering
)

// Tier classifies an AS's role.
type Tier int

// AS tiers.
const (
	Tier1 Tier = iota // transit-free backbone
	Tier2             // regional carrier
	Stub              // edge network: eyeball ISP, hosting, enterprise
)

// AS is one autonomous system.
type AS struct {
	ASN    int
	Tier   Tier
	Region geo.Region
	City   geo.City
}

// Special ASNs used by the study's analyses, named after their real-world
// counterparts in the paper.
const (
	ASNOpenV6    = 6939  // Hurricane-Electric-like
	ASNCarrierV4 = 12956 // Telxius-like
)

// Edge connects two ASes. For Transit edges, A is the provider and B the
// customer. V4 and V6 report availability per family.
type Edge struct {
	A, B   int // ASNs
	Rel    Relationship
	V4, V6 bool
}

// Available reports whether the edge carries family f.
func (e Edge) Available(f Family) bool {
	if f == IPv4 {
		return e.V4
	}
	return e.V6
}

// IXP is an exchange point: a facility at a metro where member ASes peer.
type IXP struct {
	Name    string
	City    geo.City
	Members []int
}

// Topology is the immutable AS graph. Build fills it and its caches, and
// nothing writes either afterwards, so any number of goroutines may read one.
type Topology struct {
	ASes  map[int]*AS
	Edges []Edge
	IXPs  []IXP

	// asns numbers the ASes: asns[o] is the ASN of ordinal o, in ascending
	// order, and ord maps an ASN back to its ordinal. Route propagation and
	// routing tables index by ordinal.
	asns []int
	ord  map[int]int32
	// adj caches per-family adjacency: for each AS ordinal, the neighbors
	// with the relationship as seen from that AS, in ordinal order.
	adj [2][][]neighbor
	// stubs and regionStubs cache StubASNs: every stub ASN, sorted, and the
	// same per region.
	stubs       []int
	regionStubs [geo.RegionCount][]int
}

type neighbor struct {
	// km is the great-circle distance a route crossing the edge to the
	// neighbor adds to its PathKm.
	km float64
	// ord is the neighbor's ordinal.
	ord int32
	// rel is the relationship from the owning AS's perspective:
	// relCustomer means the neighbor is my customer, etc.
	rel localRel
}

type localRel uint8

const (
	relCustomer localRel = iota
	relPeer
	relProvider
)

// Config sizes the synthetic topology.
type Config struct {
	Seed int64
	// StubsPerRegion is how many stub ASes to create in each region (VPs and
	// sites attach to stubs and tier2s).
	StubsPerRegion map[geo.Region]int
	// Tier2PerRegion is how many regional carriers each region gets.
	Tier2PerRegion map[geo.Region]int
}

// DefaultConfig mirrors the paper's VP network distribution (Table 3:
// 386 networks in Europe, 94 in North America, …) with headroom for the
// site-hosting networks.
func DefaultConfig() Config {
	return Config{
		Seed: 1,
		StubsPerRegion: map[geo.Region]int{
			geo.Africa: 14, geo.Asia: 40, geo.Europe: 400,
			geo.NorthAmerica: 110, geo.SouthAmerica: 18, geo.Oceania: 28,
		},
		Tier2PerRegion: map[geo.Region]int{
			geo.Africa: 3, geo.Asia: 6, geo.Europe: 10,
			geo.NorthAmerica: 8, geo.SouthAmerica: 3, geo.Oceania: 3,
		},
	}
}

// Build constructs a deterministic topology from cfg.
func Build(cfg Config) *Topology {
	rng := rand.New(rand.NewSource(cfg.Seed))
	t := &Topology{ASes: make(map[int]*AS)}

	// Tier-1 backbone: ~12 transit-free carriers spread over EU/NA/Asia.
	tier1Cities := []string{"IAD", "JFK", "LHR", "FRA", "AMS", "CDG", "NRT", "SIN", "SJC", "ORD", "HKG", "ARN"}
	var tier1 []int
	for i, code := range tier1Cities {
		city, _ := geo.CityByIATA(code)
		asn := 100 + i
		t.ASes[asn] = &AS{ASN: asn, Tier: Tier1, Region: city.Region, City: city}
		tier1 = append(tier1, asn)
	}
	// The HE-like open-v6 carrier and the Telxius-like v4 carrier.
	sjc, _ := geo.CityByIATA("SJC")
	t.ASes[ASNOpenV6] = &AS{ASN: ASNOpenV6, Tier: Tier1, Region: sjc.Region, City: sjc}
	mad, _ := geo.CityByIATA("MAD")
	t.ASes[ASNCarrierV4] = &AS{ASN: ASNCarrierV4, Tier: Tier1, Region: mad.Region, City: mad}
	tier1 = append(tier1, ASNOpenV6, ASNCarrierV4)

	// Full(ish) mesh peering among tier-1s; a few v4-only gaps.
	for i := 0; i < len(tier1); i++ {
		for j := i + 1; j < len(tier1); j++ {
			v6 := rng.Float64() > 0.06
			t.Edges = append(t.Edges, Edge{A: tier1[i], B: tier1[j], Rel: Peering, V4: true, V6: v6})
		}
	}

	// Tier-2 regional carriers: customers of 2-3 tier-1s, peer regionally.
	tier2ByRegion := make(map[geo.Region][]int)
	nextASN := 1000
	for _, region := range geo.Regions() {
		n := cfg.Tier2PerRegion[region]
		cities := geo.CitiesIn(region)
		for i := 0; i < n; i++ {
			asn := nextASN
			nextASN++
			city := cities[rng.Intn(len(cities))]
			t.ASes[asn] = &AS{ASN: asn, Tier: Tier2, Region: region, City: city}
			tier2ByRegion[region] = append(tier2ByRegion[region], asn)
			for _, p := range pickDistinct(rng, tier1, 2+rng.Intn(2)) {
				t.Edges = append(t.Edges, Edge{A: p, B: asn, Rel: Transit,
					V4: true, V6: rng.Float64() > 0.08})
			}
		}
		// Regional tier-2 peering mesh (sparse).
		t2 := tier2ByRegion[region]
		for i := 0; i < len(t2); i++ {
			for j := i + 1; j < len(t2); j++ {
				if rng.Float64() < 0.5 {
					t.Edges = append(t.Edges, Edge{A: t2[i], B: t2[j], Rel: Peering,
						V4: true, V6: rng.Float64() > 0.1})
				}
			}
		}
	}

	// IXPs: one per major metro; members are regional tier2s and stubs.
	ixpCities := []string{"FRA", "AMS", "LHR", "CDG", "WAW", "VIE", "ARN", "MAD", "PRG",
		"IAD", "JFK", "ORD", "SEA", "MIA", "SJC", "YYZ",
		"NRT", "SIN", "HKG", "ICN", "BOM",
		"GRU", "EZE", "SCL",
		"JNB", "NBO", "LOS",
		"SYD", "AKL"}
	ixpIndex := make(map[string]int)
	for _, code := range ixpCities {
		city, _ := geo.CityByIATA(code)
		t.IXPs = append(t.IXPs, IXP{Name: "IX-" + code, City: city})
		ixpIndex[code] = len(t.IXPs) - 1
	}

	// Stub ASes: customers of 1-2 regional tier2s (or a tier1 directly for a
	// few), members of their metro IXP with some probability.
	for _, region := range geo.Regions() {
		n := cfg.StubsPerRegion[region]
		cities := geo.CitiesIn(region)
		t2 := tier2ByRegion[region]
		for i := 0; i < n; i++ {
			asn := nextASN
			nextASN++
			city := cities[rng.Intn(len(cities))]
			t.ASes[asn] = &AS{ASN: asn, Tier: Stub, Region: region, City: city}
			// Upstreams.
			ups := 1 + rng.Intn(2)
			for _, p := range pickDistinct(rng, t2, ups) {
				t.Edges = append(t.Edges, Edge{A: p, B: asn, Rel: Transit,
					V4: true, V6: rng.Float64() > 0.07})
			}
			if rng.Float64() < 0.12 { // multihomed to a tier1 too
				p := tier1[rng.Intn(len(tier1))]
				t.Edges = append(t.Edges, Edge{A: p, B: asn, Rel: Transit,
					V4: true, V6: rng.Float64() > 0.1})
			}
			// IXP membership at the nearest exchange, if the metro has one.
			if idx, ok := ixpIndex[city.IATA]; ok && rng.Float64() < 0.55 {
				t.IXPs[idx].Members = append(t.IXPs[idx].Members, asn)
			}
			// The HE-like carrier peers openly on IPv6 with many stubs —
			// and offers v4 too, but v4 paths through it are long (modeled
			// in the path metric, not here).
			if rng.Float64() < 0.08 {
				t.Edges = append(t.Edges, Edge{A: ASNOpenV6, B: asn, Rel: Peering,
					V4: rng.Float64() < 0.25, V6: true})
			}
			// The Telxius-like carrier sells v4 transit in South America.
			if region == geo.SouthAmerica && rng.Float64() < 0.6 {
				t.Edges = append(t.Edges, Edge{A: ASNCarrierV4, B: asn, Rel: Transit,
					V4: true, V6: rng.Float64() < 0.3})
			}
		}
	}

	// Tier2s join their metro IXPs too.
	for region, t2s := range tier2ByRegion {
		_ = region
		for _, asn := range t2s {
			if idx, ok := ixpIndex[t.ASes[asn].City.IATA]; ok {
				t.IXPs[idx].Members = append(t.IXPs[idx].Members, asn)
			}
		}
	}

	// Materialize IXP peering edges: members of the same IXP peer with some
	// probability (route servers make this dense in practice).
	for i := range t.IXPs {
		m := t.IXPs[i].Members
		for a := 0; a < len(m); a++ {
			for b := a + 1; b < len(m); b++ {
				if rng.Float64() < 0.7 {
					t.Edges = append(t.Edges, Edge{A: m[a], B: m[b], Rel: IXPPeering,
						V4: true, V6: rng.Float64() > 0.04})
				}
			}
		}
	}

	t.buildOrdinals()
	t.buildAdjacency()
	t.buildStubLists()
	return t
}

func pickDistinct(rng *rand.Rand, from []int, n int) []int {
	if n >= len(from) {
		return append([]int(nil), from...)
	}
	idx := rng.Perm(len(from))[:n]
	out := make([]int, n)
	for i, j := range idx {
		out[i] = from[j]
	}
	return out
}

// buildOrdinals numbers the ASes in ascending-ASN order.
func (t *Topology) buildOrdinals() {
	t.asns = make([]int, 0, len(t.ASes))
	for asn := range t.ASes {
		t.asns = append(t.asns, asn)
	}
	sort.Ints(t.asns)
	t.ord = make(map[int]int32, len(t.asns))
	for o, asn := range t.asns {
		t.ord[asn] = int32(o)
	}
}

// buildAdjacency fills the per-family adjacency cache.
func (t *Topology) buildAdjacency() {
	// km is what a route held by from adds to its PathKm when to learns it.
	// The receiver's point goes first: the float is then the one
	// TestComputeRoutesMatchesReference's oracle adds.
	km := func(from, to int) float64 {
		return geo.DistanceKm(t.ASes[to].City.Point, t.ASes[from].City.Point)
	}
	for _, f := range Families() {
		t.adj[f] = make([][]neighbor, len(t.asns))
	}
	for _, e := range t.Edges {
		a, b := t.ord[e.A], t.ord[e.B]
		ab, ba := km(e.A, e.B), km(e.B, e.A)
		for _, f := range Families() {
			if !e.Available(f) {
				continue
			}
			adj := t.adj[f]
			switch e.Rel {
			case Transit:
				// A is provider of B.
				adj[a] = append(adj[a], neighbor{ord: b, rel: relCustomer, km: ab})
				adj[b] = append(adj[b], neighbor{ord: a, rel: relProvider, km: ba})
			case Peering, IXPPeering:
				adj[a] = append(adj[a], neighbor{ord: b, rel: relPeer, km: ab})
				adj[b] = append(adj[b], neighbor{ord: a, rel: relPeer, km: ba})
			}
		}
	}
	// Deterministic neighbor order. Two entries of one list share an ordinal
	// only when two edges join the same pair: the same relationship twice
	// (equal entries) or two relationships, which no propagation phase reads
	// together and which the classless search extends into equal candidates.
	for _, adj := range t.adj {
		for _, ns := range adj {
			slices.SortFunc(ns, func(x, y neighbor) int { return cmp.Compare(x.ord, y.ord) })
		}
	}
}

// buildStubLists fills the stub lists StubASNs returns.
func (t *Topology) buildStubLists() {
	for asn, as := range t.ASes {
		if as.Tier == Stub {
			t.stubs = append(t.stubs, asn)
		}
	}
	sort.Ints(t.stubs)
	for _, asn := range t.stubs {
		r := t.ASes[asn].Region
		t.regionStubs[r] = append(t.regionStubs[r], asn)
	}
}

// StubASNs returns all stub ASNs, sorted, optionally filtered by region. The
// slice is the topology's own, built once by Build and shared by every
// caller, and must not be written; its capacity is clipped so that an append
// reallocates.
func (t *Topology) StubASNs(region *geo.Region) []int {
	out := t.stubs
	if region != nil {
		out = t.regionStubs[*region]
	}
	return out[:len(out):len(out)]
}

// IXPAt returns the IXP in metro code, if any.
func (t *Topology) IXPAt(code string) (IXP, bool) {
	for _, ix := range t.IXPs {
		if ix.City.IATA == code {
			return ix, true
		}
	}
	return IXP{}, false
}

// Validate checks structural invariants; the campaign checks the topology
// it builds before routing over it.
func (t *Topology) Validate() error {
	for _, e := range t.Edges {
		if t.ASes[e.A] == nil || t.ASes[e.B] == nil {
			return fmt.Errorf("topology: edge %d-%d references unknown AS", e.A, e.B)
		}
		if !e.V4 && !e.V6 {
			return fmt.Errorf("topology: edge %d-%d carries no family", e.A, e.B)
		}
	}
	for _, ix := range t.IXPs {
		for _, m := range ix.Members {
			if t.ASes[m] == nil {
				return fmt.Errorf("topology: IXP %s member %d unknown", ix.Name, m)
			}
		}
	}
	return nil
}
