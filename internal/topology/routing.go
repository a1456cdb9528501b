package topology

import (
	"cmp"
	"slices"
)

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

const maxAlternates = 4

// rib is the per-AS set of candidate routes, best first, capped, of the table
// being computed. slots[o] holds the routes AS ordinal o keeps, as indices
// into log. The log is append-only: a route evicted from its slot stays in
// it, so a queue entry that points at the route still propagates it. Kept
// paths live in arena.
type rib struct {
	slots [][]int32
	log   []Route
	arena []int
}

// newRib returns an empty rib over n ASes. Its log has room for
// logPerAS routes per AS and its arena for as many paths of meanHops hops:
// no table of the bench-size deployments outgrows them.
func newRib(n int) rib {
	backing := make([]int32, n*maxAlternates)
	r := rib{
		slots: make([][]int32, n),
		log:   make([]Route, 0, n*logPerAS),
		arena: make([]int, 0, n*logPerAS*meanHops),
	}
	for o := range r.slots {
		r.slots[o] = backing[o*maxAlternates : o*maxAlternates : (o+1)*maxAlternates]
	}
	return r
}

// logPerAS and meanHops size a new rib: the 26 tables of the bench-size
// world log up to 6.1 routes per AS, evicted ones included, and their paths
// average 4.8 ASes.
const (
	logPerAS = 6
	meanHops = 5
)

// reset empties r and keeps its memory.
func (r *rib) reset() {
	for o := range r.slots {
		r.slots[o] = r.slots[o][:0]
	}
	r.log, r.arena = r.log[:0], r.arena[:0]
}

// add appends route to the log, its path copied into the arena, and returns
// its index. The arena only grows while a table is computed, so a path once
// written is never written again.
func (r *rib) add(route Route) int32 {
	at := len(r.arena)
	r.arena = append(r.arena, route.ASPath...)
	route.ASPath = r.arena[at:len(r.arena):len(r.arena)]
	r.log = append(r.log, route)
	return int32(len(r.log) - 1)
}

// insert offers route to the candidates of AS ordinal o and returns the log
// index it is kept at, or false when the AS refuses it. route.ASPath may be
// the caller's scratch: the checks read the candidate where it lies, and only
// a route that is kept is added to the log.
func (r *rib) insert(o int32, route Route) (int32, bool) {
	routes := r.slots[o]
	// Reject loops: the receiver is ASPath[0] by construction; it must not
	// reappear.
	asn := route.ASPath[0]
	for _, hop := range route.ASPath[1:] {
		if hop == asn {
			return 0, false
		}
	}
	// Duplicate suppression: same origin and same path length via same class.
	for _, i := range routes {
		existing := &r.log[i]
		if existing.Origin == route.Origin && len(existing.ASPath) == len(route.ASPath) &&
			existing.relType == route.relType {
			return 0, false
		}
	}
	// routes is sorted, best first: the new route goes in front of the first
	// one it beats, and survives if that is inside the cap.
	pos := len(routes)
	for i, kept := range routes {
		if better(route, r.log[kept]) {
			pos = i
			break
		}
	}
	if pos >= maxAlternates {
		return 0, false
	}
	idx := r.add(route)
	if len(routes) < maxAlternates {
		routes = append(routes, 0)
	}
	copy(routes[pos+1:], routes[pos:])
	routes[pos] = idx
	r.slots[o] = routes
	return idx, true
}

// table compacts the slots into a routing table of their own: one slice of
// routes and one of paths, each exactly as long as what the slots hold.
func (r *rib) table(t *Topology) *RoutingTable {
	nRoutes, nHops := 0, 0
	for _, slot := range r.slots {
		nRoutes += len(slot)
		for _, i := range slot {
			nHops += len(r.log[i].ASPath)
		}
	}
	rt := &RoutingTable{
		topo:   t,
		start:  make([]int32, len(r.slots)+1),
		routes: make([]Route, 0, nRoutes),
		paths:  make([]int, 0, nHops),
	}
	for o, slot := range r.slots {
		for _, i := range slot {
			route := r.log[i]
			at := len(rt.paths)
			rt.paths = append(rt.paths, route.ASPath...)
			route.ASPath = rt.paths[at:len(rt.paths):len(rt.paths)]
			rt.routes = append(rt.routes, route)
		}
		rt.start[o+1] = int32(len(rt.routes))
	}
	return rt
}

// RoutingTable holds, for every AS, its candidate routes to one anycast
// deployment in one family: the routes of AS ordinal o are
// routes[start[o]:start[o+1]], and every route's path lies in paths.
type RoutingTable struct {
	topo   *Topology
	start  []int32
	routes []Route
	paths  []int
}

// entry is one queued route: the ordinal of the AS holding it and its index
// in the rib's log.
type entry struct {
	o, i int32
}

// A Router computes routing tables over one topology and keeps its scratch
// (the rib, its log and arena, the queues and the candidate path) from one
// table to the next, so that a goroutine building many tables allocates
// little more than the tables. A Router is not safe for concurrent use: give
// each goroutine its own.
type Router struct {
	topo        *Topology
	rib         rib
	queue, down []entry
	scratch     []int // the candidate path extend writes and insert copies
}

// NewRouter returns a Router over t. Its phase-1 queue has room for one
// route per AS, and its phase-3 queue, which can hold every logged route, for
// as many as its log.
func (t *Topology) NewRouter() *Router {
	n := len(t.asns)
	return &Router{
		topo:    t,
		rib:     newRib(n),
		queue:   make([]entry, 0, n),
		down:    make([]entry, 0, n*logPerAS),
		scratch: make([]int, 0, 2*meanHops),
	}
}

// ComputeRoutes propagates the origins' announcements through the topology
// for family f using valley-free (Gao-Rexford) export rules and returns the
// resulting routing table. Global origins reach everyone with connectivity;
// local origins reach only the hosting AS and its direct customers and
// (IXP) peers.
func (t *Topology) ComputeRoutes(origins []Origin, f Family) *RoutingTable {
	return t.NewRouter().ComputeRoutes(origins, f)
}

// ComputeRoutes is Topology.ComputeRoutes on r's scratch.
func (r *Router) ComputeRoutes(origins []Origin, f Family) *RoutingTable {
	adj := r.topo.adj[f]
	routes := &r.rib

	// Seed: each origin AS has a zero-length route to itself.
	queue := r.seed(origins)

	// Phase 1: propagate upward along customer→provider edges. A provider
	// learns the route as customer-learned and may re-export it anywhere.
	for head := 0; head < len(queue); head++ {
		item := queue[head]
		route := routes.log[item.i]
		if route.Origin.Local && len(route.ASPath) > 1 {
			continue // no-export: locals stop after one hop
		}
		for _, n := range adj[item.o] {
			if n.rel != relProvider {
				continue
			}
			if i, ok := routes.insert(n.ord, r.extend(route, n, relCustomer)); ok && !route.Origin.Local {
				queue = append(queue, entry{n.ord, i})
			}
		}
	}

	// Phase 2: export customer routes (and origin self-routes) across
	// peering edges. The receiver learns them as peer routes; peer routes
	// are only exported to customers (phase 3). The snapshot walks the slots
	// in ordinal order, and each slot is sorted best first.
	snapshot := queue[:0]
	for o, slot := range routes.slots {
		for _, i := range slot {
			if routes.log[i].relType == relCustomer { // includes origin self-routes
				snapshot = append(snapshot, entry{int32(o), i})
			}
		}
	}
	down := r.down[:0]
	for _, item := range snapshot {
		route := routes.log[item.i]
		if route.Origin.Local && len(route.ASPath) > 1 {
			continue
		}
		for _, n := range adj[item.o] {
			if n.rel != relPeer {
				continue
			}
			if i, ok := routes.insert(n.ord, r.extend(route, n, relPeer)); ok && !route.Origin.Local {
				down = append(down, entry{n.ord, i})
			}
		}
	}

	// Phase 3: propagate downward along provider→customer edges. Everything
	// an AS has (customer, peer, or provider routes) is exported to its
	// customers, who learn it as provider routes.
	for o, slot := range routes.slots {
		for _, i := range slot {
			if route := &routes.log[i]; route.relType == relCustomer && !route.Origin.Local || len(route.ASPath) == 1 {
				down = append(down, entry{int32(o), i})
			}
		}
	}
	slices.SortFunc(down, func(a, b entry) int {
		if a.o != b.o {
			return cmp.Compare(a.o, b.o)
		}
		return routes.compare(a.i, b.i)
	})
	for head := 0; head < len(down); head++ {
		item := down[head]
		route := routes.log[item.i]
		if route.Origin.Local && len(route.ASPath) > 1 {
			continue
		}
		for _, n := range adj[item.o] {
			if n.rel != relCustomer {
				continue
			}
			if i, ok := routes.insert(n.ord, r.extend(route, n, relProvider)); ok {
				down = append(down, entry{n.ord, i})
			}
		}
	}

	r.queue, r.down = snapshot, down
	return routes.table(r.topo)
}

// seed resets the rib and gives each origin AS a zero-length route to itself,
// returned in the phase-1 queue. The self-route is queued whether or not the
// AS keeps it.
func (r *Router) seed(origins []Origin) []entry {
	routes, queue := &r.rib, r.queue[:0]
	routes.reset()
	for _, o := range origins {
		ord, ok := r.topo.ord[o.ASN]
		if !ok {
			continue
		}
		self := Route{Origin: o, ASPath: append(r.scratch[:0], o.ASN), relType: relCustomer}
		r.scratch = self.ASPath
		i, ok := routes.insert(ord, self)
		if !ok {
			i = routes.add(self)
		}
		queue = append(queue, entry{ord, i})
	}
	return queue
}

// compare orders two logged routes as better does: best first.
func (r *rib) compare(a, b int32) int {
	switch {
	case better(r.log[a], r.log[b]):
		return -1
	case better(r.log[b], r.log[a]):
		return 1
	}
	return 0
}

// extend returns route as neighbor n learns it from the AS holding it, over
// an edge it learns as class learned. The path is written into r.scratch,
// which the next extend overwrites: rib.insert copies it only for a route it
// keeps. route.ASPath must not be r.scratch.
func (r *Router) extend(route Route, n neighbor, learned localRel) Route {
	path := append(append(r.scratch[:0], r.topo.asns[n.ord]), route.ASPath...)
	r.scratch = path
	return Route{Origin: route.Origin, ASPath: path, PathKm: route.PathKm + n.km, relType: learned}
}

// Candidates returns the candidate routes from asn, best first, empty when
// asn has none. The slice is the table's own, shared by every campaign
// worker, and must not be written; its capacity is clipped so that an append
// reallocates.
func (rt *RoutingTable) Candidates(asn int) []Route {
	o, ok := rt.topo.ord[asn]
	if !ok {
		return nil
	}
	lo, hi := rt.start[o], rt.start[o+1]
	if lo == hi {
		return nil
	}
	return rt.routes[lo:hi:hi]
}
