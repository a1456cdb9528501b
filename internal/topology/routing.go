package topology

import "sort"

// Origin is one announcement point of an anycast prefix: the hosting AS and
// an opaque site identifier the routing engine carries through to the
// catchment result. Local origins are announced no-export: only the hosting
// AS and its direct neighbors at the announcement scope can use them.
type Origin struct {
	SiteID string
	ASN    int
	Local  bool
}

// Route is one usable path from an AS to an anycast origin.
type Route struct {
	Origin  Origin
	ASPath  []int // from the source AS to the origin AS, inclusive
	PathKm  float64
	relType localRel // how the first hop was learned: customer/peer/provider
}

// Hops returns the AS-path length (number of inter-AS hops).
func (r Route) Hops() int { return len(r.ASPath) - 1 }

// routeClass orders routes by Gao-Rexford preference: customer-learned
// routes beat peer-learned, which beat provider-learned.
func routeClass(rel localRel) int {
	switch rel {
	case relCustomer:
		return 0
	case relPeer:
		return 1
	default:
		return 2
	}
}

// geoTieToleranceKm is the slack under which two routes count as
// geographically equivalent in the decision process.
const geoTieToleranceKm = 250

// better reports whether a is preferred over b by BGP-like decision order:
// relationship class, then AS-path length, then shorter geographic path
// (the IGP/hot-potato stage — real tie-breaking follows internal metrics
// that correlate with distance, which is why ~80% of the paper's requests
// still reach their closest global site), then deterministic ASN/site-ID
// tie-break.
func better(a, b Route) bool {
	ca, cb := routeClass(a.relType), routeClass(b.relType)
	if ca != cb {
		return ca < cb
	}
	if len(a.ASPath) != len(b.ASPath) {
		return len(a.ASPath) < len(b.ASPath)
	}
	// Distance is compared in buckets rather than with a +-tolerance band:
	// a band is not transitive, which would make this comparator an
	// inconsistent ordering and let map-iteration order leak into results.
	if ba, bb := int(a.PathKm/geoTieToleranceKm), int(b.PathKm/geoTieToleranceKm); ba != bb {
		return ba < bb
	}
	if a.Origin.ASN != b.Origin.ASN {
		return a.Origin.ASN < b.Origin.ASN
	}
	if a.Origin.SiteID != b.Origin.SiteID {
		return a.Origin.SiteID < b.Origin.SiteID
	}
	// Exhaustive tie-breaks make this a total order: propagation seeds
	// routes from map iteration, and a partial order would let that
	// nondeterministic order leak into which alternates survive the cap.
	if a.PathKm != b.PathKm {
		return a.PathKm < b.PathKm
	}
	for i := range a.ASPath {
		if i >= len(b.ASPath) {
			break
		}
		if a.ASPath[i] != b.ASPath[i] {
			return a.ASPath[i] < b.ASPath[i]
		}
	}
	return false
}

// rib is the per-AS set of candidate routes, best first, capped.
const maxAlternates = 4

type rib map[int][]Route

// insert offers route to asn's candidates and returns it as kept, or false
// when asn refuses it. route.ASPath may be the caller's scratch: the checks
// read the candidate where it lies, and only a route that is kept is given a
// path of its own, so a candidate that loses costs no allocation.
func (r rib) insert(asn int, route Route) (Route, bool) {
	routes := r[asn]
	// Reject loops: asn is ASPath[0] by construction; it must not reappear.
	for _, hop := range route.ASPath[1:] {
		if hop == asn {
			return Route{}, false
		}
	}
	// Duplicate suppression: same origin and same path length via same class.
	for _, existing := range routes {
		if existing.Origin == route.Origin && len(existing.ASPath) == len(route.ASPath) &&
			existing.relType == route.relType {
			return Route{}, false
		}
	}
	// routes is sorted, best first: the new route goes in front of the first
	// one it beats, and survives if that is inside the cap.
	pos := len(routes)
	for i, kept := range routes {
		if better(route, kept) {
			pos = i
			break
		}
	}
	if pos >= maxAlternates {
		return Route{}, false
	}
	route.ASPath = append([]int(nil), route.ASPath...)
	if routes == nil {
		routes = make([]Route, 0, maxAlternates)
	}
	if len(routes) < maxAlternates {
		routes = append(routes, Route{})
	}
	copy(routes[pos+1:], routes[pos:])
	routes[pos] = route
	r[asn] = routes
	return route, true
}

// RoutingTable holds, for every AS, its candidate routes to one anycast
// deployment in one family.
type RoutingTable struct {
	routes rib
}

// ComputeRoutes propagates the origins' announcements through the topology
// for family f using valley-free (Gao-Rexford) export rules and returns the
// resulting routing table. Global origins reach everyone with connectivity;
// local origins reach only the hosting AS and its direct customers and
// (IXP) peers.
func (t *Topology) ComputeRoutes(origins []Origin, f Family) *RoutingTable {
	routes := make(rib)
	var scratch []int // the candidate path extend writes and insert copies

	// Seed: each origin AS has a zero-length route to itself.
	type workItem struct {
		asn   int
		route Route
	}
	var queue []workItem
	for _, o := range origins {
		if t.ASes[o.ASN] == nil {
			continue
		}
		self := Route{Origin: o, ASPath: []int{o.ASN}, relType: relCustomer}
		routes.insert(o.ASN, self)
		queue = append(queue, workItem{o.ASN, self})
	}

	// Phase 1: propagate upward along customer→provider edges. A provider
	// learns the route as customer-learned and may re-export it anywhere.
	for head := 0; head < len(queue); head++ {
		item := queue[head]
		if item.route.Origin.Local && len(item.route.ASPath) > 1 {
			continue // no-export: locals stop after one hop
		}
		for _, n := range t.adj[f][item.asn] {
			if n.rel != relProvider {
				continue
			}
			kept, ok := routes.insert(n.asn, extend(&scratch, item.route, n, relCustomer))
			if ok && !kept.Origin.Local {
				queue = append(queue, workItem{n.asn, kept})
			}
		}
	}

	// Phase 2: export customer routes (and origin self-routes) across
	// peering edges. The receiver learns them as peer routes; peer routes
	// are only exported to customers (phase 3).
	var downQueue []workItem
	snapshot := make([]workItem, 0, len(routes))
	for asn, rs := range routes {
		for _, r := range rs {
			if r.relType == relCustomer { // includes origin self-routes
				snapshot = append(snapshot, workItem{asn, r})
			}
		}
	}
	sort.Slice(snapshot, func(i, j int) bool { // determinism
		if snapshot[i].asn != snapshot[j].asn {
			return snapshot[i].asn < snapshot[j].asn
		}
		return better(snapshot[i].route, snapshot[j].route)
	})
	for _, item := range snapshot {
		if item.route.Origin.Local && len(item.route.ASPath) > 1 {
			continue
		}
		for _, n := range t.adj[f][item.asn] {
			if n.rel != relPeer {
				continue
			}
			kept, ok := routes.insert(n.asn, extend(&scratch, item.route, n, relPeer))
			if ok && !kept.Origin.Local {
				downQueue = append(downQueue, workItem{n.asn, kept})
			}
		}
	}

	// Phase 3: propagate downward along provider→customer edges. Everything
	// an AS has (customer, peer, or provider routes) is exported to its
	// customers, who learn it as provider routes.
	for asn, rs := range routes {
		for _, r := range rs {
			if r.relType == relCustomer && !r.Origin.Local || len(r.ASPath) == 1 {
				downQueue = append(downQueue, workItem{asn, r})
			}
		}
	}
	sort.Slice(downQueue, func(i, j int) bool {
		if downQueue[i].asn != downQueue[j].asn {
			return downQueue[i].asn < downQueue[j].asn
		}
		return better(downQueue[i].route, downQueue[j].route)
	})
	for head := 0; head < len(downQueue); head++ {
		item := downQueue[head]
		if item.route.Origin.Local && len(item.route.ASPath) > 1 {
			continue
		}
		for _, n := range t.adj[f][item.asn] {
			if n.rel != relCustomer {
				continue
			}
			if kept, ok := routes.insert(n.asn, extend(&scratch, item.route, n, relProvider)); ok {
				downQueue = append(downQueue, workItem{n.asn, kept})
			}
		}
	}

	return &RoutingTable{routes: routes}
}

// extend returns r as neighbor n learns it from the AS holding r, over an
// edge it learns as class learned. The path is written into *scratch, which
// the next extend overwrites: rib.insert copies it only for a route it keeps.
// r.ASPath must not be *scratch.
func extend(scratch *[]int, r Route, n neighbor, learned localRel) Route {
	path := append(append((*scratch)[:0], n.asn), r.ASPath...)
	*scratch = path
	return Route{Origin: r.Origin, ASPath: path, PathKm: r.PathKm + n.km, relType: learned}
}

// Candidates returns the candidate routes from asn, best first, empty when
// asn has none. The slice is the table's own, shared by every campaign
// worker, and must not be written; its capacity is clipped so that an append
// reallocates.
func (rt *RoutingTable) Candidates(asn int) []Route {
	rs := rt.routes[asn]
	return rs[:len(rs):len(rs)]
}
