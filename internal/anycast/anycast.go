// Package anycast models anycast deployments of the root servers: sites
// (global or local), their hosting ASes and facilities, catchment
// computation over the policy-routed topology, and per-deployment route
// stability. Facilities are shared across deployments — several letters
// hosting instances at the same exchange reuse the same last-hop
// infrastructure, which is exactly the reduced redundancy the paper's RQ1
// quantifies.
package anycast

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/geo"
	"repro/internal/seeded"
	"repro/internal/topology"
)

// SiteKind is the announcement scope of a site.
type SiteKind int

// Site kinds.
const (
	Global SiteKind = iota
	Local
)

// String returns "global" or "local".
func (k SiteKind) String() string {
	if k == Global {
		return "global"
	}
	return "local"
}

// Site is one anycast instance location.
type Site struct {
	// ID is the site identifier, e.g. "b-lax1". Unique within a deployment.
	ID string
	// Kind is the announcement scope.
	Kind SiteKind
	// City locates the site.
	City geo.City
	// HostASN is the AS announcing the prefix from this site.
	HostASN int
	// Facility identifies the physical interconnection point (IXP fabric or
	// data center). Sites of different deployments sharing a facility share
	// last-hop infrastructure.
	Facility string
	// Identifier is what the site reports via hostname.bind/id.server.
	// Empty when the deployment does not expose mappable identifiers.
	Identifier string
}

// Deployment is one anycast service: a letter's set of sites.
type Deployment struct {
	// Name labels the deployment (e.g. "b" for b.root).
	//rootlint:immutable-after-start
	Name string
	//rootlint:allow lockcheck: appended to by whoever builds the deployment (rss.Build, control.New, tests) on one goroutine before it is shared, read-only from then on
	Sites []Site
	// InstabilityV4/V6 are per-interval probabilities that a client's
	// best-path tie-break re-rolls (route flap), producing site changes.
	// Calibrated per letter from the paper's Fig. 3 medians.
	//rootlint:immutable-after-start
	InstabilityV4, InstabilityV6 float64

	// index is SiteByID's table, built by the first lookup and again by the
	// first after Sites has grown; concurrent builders publish equal copies.
	index atomic.Pointer[siteIndex]
}

// siteIndex maps a site ID to its first position among Sites' first n.
type siteIndex struct {
	n    int
	byID map[string]int
}

// SiteByID returns the site with the given ID (the first, if it repeats),
// from an index: the campaign asks per probe and f.root has hundreds.
//
//rootlint:hotpath
func (d *Deployment) SiteByID(id string) (Site, bool) {
	idx := d.index.Load()
	if idx == nil || idx.n != len(d.Sites) {
		//rootlint:allow hotpath: built once per deployment, on the first lookup after its sites change
		idx = &siteIndex{len(d.Sites), make(map[string]int, len(d.Sites))}
		for i := len(d.Sites) - 1; i >= 0; i-- { // downwards: the first of a repeated ID wins
			idx.byID[d.Sites[i].ID] = i
		}
		d.index.Store(idx)
	}
	if i, ok := idx.byID[id]; ok {
		return d.Sites[i], true
	}
	return Site{}, false
}

// Origins converts the deployment's sites into routing origins.
func (d *Deployment) Origins() []topology.Origin {
	out := make([]topology.Origin, len(d.Sites))
	for i, s := range d.Sites {
		out[i] = topology.Origin{SiteID: s.ID, ASN: s.HostASN, Local: s.Kind == Local}
	}
	return out
}

// Catchment maps client ASes to the deployment site their traffic reaches
// in one family, with alternates for churn modeling. Its routing table is
// resolved once: by Resolve, or else by the first Choices.
type Catchment struct {
	Deployment *Deployment
	Family     topology.Family
	topo       *topology.Topology
	once       sync.Once
	table      *topology.RoutingTable
}

// NewCatchment describes the deployment's catchment over topo for f, its
// routing table not yet resolved.
func NewCatchment(topo *topology.Topology, d *Deployment, f topology.Family) *Catchment {
	return &Catchment{Deployment: d, Family: f, topo: topo}
}

// ComputeCatchment resolves the deployment's catchment over topo for f.
func ComputeCatchment(topo *topology.Topology, d *Deployment, f topology.Family) *Catchment {
	c := NewCatchment(topo, d, f)
	c.routes()
	return c
}

// Resolve computes the routing table on r's scratch unless it is resolved
// already: a goroutine that resolves many catchments over one topology keeps
// one Router for them all. r must route over the catchment's topology.
func (c *Catchment) Resolve(r *topology.Router) {
	c.once.Do(func() { c.table = r.ComputeRoutes(c.Deployment.Origins(), c.Family) })
}

// routes returns the routing table, resolving it on fresh scratch if no one
// has yet.
func (c *Catchment) routes() *topology.RoutingTable {
	c.once.Do(func() { c.table = c.topo.ComputeRoutes(c.Deployment.Origins(), c.Family) })
	return c.table
}

// Choices is what a client AS chooses between in one catchment at one
// schedule thinning: everything about a selection that no tick changes.
// SelectAt and the campaign's probe plan are both built on it, so they cannot
// disagree on what a flap is.
type Choices struct {
	// Routes are the candidate routes, best first: a view of the routing
	// table, whose paths are shared and not to be written. Empty when
	// unreachable.
	Routes topology.Routes
	// Usable counts the near-equal prefix of Routes a flap re-rolls among:
	// the best route and the alternates within one AS hop of it.
	Usable int
	// Instability is the probability that an interval flaps: the
	// deployment's per-interval probability compounded over the intervals a
	// thinned schedule skips (1-(1-p)^scale). That does not keep observed
	// change counts comparable across schedules: g.root's IPv6 Figure 3
	// median reads 32 changes at scale 192 and 90 at scale 12 (ROADMAP
	// item 3).
	Instability float64
}

// Choices resolves what asn chooses between; scale is the measurement
// schedule's thinning factor.
//
//rootlint:hotpath
func (c *Catchment) Choices(asn, scale int) Choices {
	ch := Choices{Routes: c.routes().Candidates(asn), Instability: c.Deployment.InstabilityV4}
	if c.Family == topology.IPv6 {
		ch.Instability = c.Deployment.InstabilityV6
	}
	if scale > 1 && ch.Instability > 0 {
		ch.Instability = 1 - pow1p(1-ch.Instability, scale)
	}
	if n := ch.Routes.Len(); n > 0 {
		limit := ch.Routes.Hops(0) + 1
		for ch.Usable < n && ch.Routes.Hops(ch.Usable) <= limit {
			ch.Usable++
		}
	}
	return ch
}

// Pick returns the index in Routes of the route asn uses at measurement
// interval tick (0 when there is none to choose), modeling route flaps: with
// probability Instability the client re-rolls its tie-break among the Usable
// near-equal routes for this interval; the following stable interval returns
// to the best route, so one flap surfaces as up to two observed site changes.
// The pick is deterministic in (asn, tick, seed): draw 0 of the key decides
// whether the interval flaps, draw 1 picks the alternate.
//
//rootlint:hotpath
func (ch Choices) Pick(asn, tick int, seed int64) int {
	if ch.Usable < 2 || ch.Instability == 0 {
		return 0
	}
	key := uint64(seed ^ int64(asn)<<20 ^ int64(tick))
	if seeded.Unit(seeded.Draw(key, 0)) >= ch.Instability {
		return 0
	}
	return int(seeded.Draw(key, 1) % uint64(ch.Usable))
}

// SelectAt returns the route asn uses at measurement interval tick on a
// schedule thinned by scale: Choices, then Pick.
//
//rootlint:hotpath
func (c *Catchment) SelectAt(asn, tick int, seed int64, scale int) (topology.Route, bool) {
	ch := c.Choices(asn, scale)
	if ch.Routes.Len() == 0 {
		return topology.Route{}, false
	}
	return ch.Routes.At(ch.Pick(asn, tick, seed)), true
}

// pow1p computes base^n for small integer n without importing math.
func pow1p(base float64, n int) float64 {
	out := 1.0
	for ; n > 0; n >>= 1 {
		if n&1 == 1 {
			out *= base
		}
		base *= base
	}
	return out
}

// Builder assigns sites to facilities and ASes.
type Builder struct {
	Topo *topology.Topology
	Rng  *rand.Rand
	// hostFor remembers which AS hosts each facility.
	hostFor map[string]int
	// siteSeq numbers sites per (letter, metro) so IDs stay unique across
	// PlaceSites calls.
	siteSeq map[string]int
}

// NewBuilder creates a site builder over topo with a deterministic rng.
func NewBuilder(topo *topology.Topology, seed int64) *Builder {
	return &Builder{
		Topo:    topo,
		Rng:     rand.New(rand.NewSource(seed)),
		hostFor: make(map[string]int),
		siteSeq: make(map[string]int),
	}
}

// PlaceSites creates n sites of the given kind for deployment letter in
// region, preferring established facilities (co-location pressure).
func (b *Builder) PlaceSites(letter string, kind SiteKind, region geo.Region, n int) []Site {
	cities := geo.CitiesIn(region)
	sites := make([]Site, 0, n)
	for i := 0; i < n; i++ {
		city := b.pickCity(cities)
		fac, host := b.pickFacility(letter, city, kind)
		seqKey := letter + city.IATA
		b.siteSeq[seqKey]++
		id := fmt.Sprintf("%s-%s%d", letter, strings.ToLower(city.IATA), b.siteSeq[seqKey])
		sites = append(sites, Site{
			ID:         id,
			Kind:       kind,
			City:       city,
			HostASN:    host,
			Facility:   fac,
			Identifier: id,
		})
	}
	return sites
}

// interconnectionHubs are the metros where deployments concentrate; sites
// land there several times more often than in other metros, producing the
// very-high co-location a minority of clients observes (paper: up to 12).
var interconnectionHubs = map[string]bool{
	"FRA": true, "AMS": true, "LHR": true,
	"IAD": true, "SJC": true, "MIA": true,
	"NRT": true, "SIN": true, "HKG": true,
	"GRU": true, "JNB": true, "SYD": true,
}

// pickCity draws a metro with hub weighting.
func (b *Builder) pickCity(cities []geo.City) geo.City {
	const hubWeight = 6
	total := 0
	for _, c := range cities {
		if interconnectionHubs[c.IATA] {
			total += hubWeight
		} else {
			total++
		}
	}
	pick := b.Rng.Intn(total)
	for _, c := range cities {
		w := 1
		if interconnectionHubs[c.IATA] {
			w = hubWeight
		}
		if pick < w {
			return c
		}
		pick -= w
	}
	return cities[len(cities)-1]
}

// pickFacility chooses (or creates) a facility in city. Global sites land
// on the metro IXP fabric (shared across operators — the co-location the
// paper measures) about half the time, in an operator-specific facility
// otherwise; local sites are mostly AS-local inside an operator facility.
// The mix is calibrated so roughly 70% of VPs observe co-location (§5).
func (b *Builder) pickFacility(letter string, city geo.City, kind SiteKind) (string, int) {
	ixProb := 0.5
	if kind == Local {
		ixProb = 0.25
	}
	if ix, ok := b.Topo.IXPAt(city.IATA); ok && len(ix.Members) > 0 && b.Rng.Float64() < ixProb {
		fac := ix.Name
		host := b.hostFor[fac]
		if host == 0 {
			host = ix.Members[b.Rng.Intn(len(ix.Members))]
			b.hostFor[fac] = host
		}
		return fac, host
	}
	// Otherwise an operator facility in the metro, hosted by a regional AS.
	// Operator facilities are letter-specific most of the time; a minority
	// are shared carrier-neutral data centers.
	region := city.Region
	stubs := b.Topo.StubASNs(&region)
	var host int
	if len(stubs) > 0 {
		host = stubs[b.Rng.Intn(len(stubs))]
	} else {
		host = topology.ASNOpenV6
	}
	var fac string
	if b.Rng.Float64() < 0.8 {
		fac = fmt.Sprintf("OP-%s-%s-%d", letter, city.IATA, 1+b.Rng.Intn(3))
	} else {
		fac = fmt.Sprintf("DC-%s-%d", city.IATA, 1+b.Rng.Intn(4))
	}
	if prev, ok := b.hostFor[fac]; ok {
		host = prev
	} else {
		b.hostFor[fac] = host
	}
	return fac, host
}
