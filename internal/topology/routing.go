package topology

import (
	"cmp"
	"slices"
	"strings"
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

// rec is a route as the rib's log and a finished table hold it. It holds no
// pointer, so the collector never scans a table's routes and writing one
// pays no write barrier: its path is arena[off:off+n] of whoever holds it,
// and its origin is origins[origin] of the same rib or table.
type rec struct {
	pathKm float64
	off, n int32
	origin int32
	rel    localRel // how the first hop was learned: customer/peer/provider
}

// better reports whether a is preferred over b by BGP-like decision order:
// relationship class, then AS-path length, then shorter geographic path
// (the IGP/hot-potato stage — real tie-breaking follows internal metrics
// that correlate with distance, which is why ~80% of the paper's requests
// still reach their closest global site), then deterministic ASN/site-ID
// tie-break, read off the origins' ranks.
func (r *rib) better(a, b *rec) bool {
	ca, cb := routeClass(a.rel), routeClass(b.rel)
	if ca != cb {
		return ca < cb
	}
	if a.n != b.n {
		return a.n < b.n
	}
	// Distance is compared in buckets rather than with a +-tolerance band:
	// a band is not transitive, which would make this comparator an
	// inconsistent ordering and let map-iteration order leak into results.
	if ba, bb := int(a.pathKm/geoTieToleranceKm), int(b.pathKm/geoTieToleranceKm); ba != bb {
		return ba < bb
	}
	if ra, rb := r.rank[a.origin], r.rank[b.origin]; ra != rb {
		return ra < rb
	}
	// Exhaustive tie-breaks make this a total order: propagation seeds
	// routes from map iteration, and a partial order would let that
	// nondeterministic order leak into which alternates survive the cap.
	if a.pathKm != b.pathKm {
		return a.pathKm < b.pathKm
	}
	pb := r.path(b)
	for i, hop := range r.path(a) { // the paths are equally long
		if hop != pb[i] {
			return hop < pb[i]
		}
	}
	return false
}

const maxAlternates = 4

// rib is the per-AS set of candidate routes, best first, capped, of the table
// being computed. slots[o] holds the routes AS ordinal o keeps, as indices
// into log. The log is append-only: a route evicted from its slot stays in
// it, so a queue entry that points at the route still propagates it. Kept
// paths live in arena; a candidate's path is staged past its length.
type rib struct {
	slots [][]int32
	log   []rec
	arena []int
	// origins are the table's origins, each once, in byValue order, so that
	// two routes have equal origins exactly when their indices are equal.
	// rank[i] places origins[i] in byRank order: origins that differ in
	// Local alone share a rank, as better needs.
	origins []Origin
	rank    []int32
}

// newRib returns an empty rib over n ASes. Its log has room for
// logPerAS routes per AS and its arena for as many paths of meanHops hops:
// no table of the bench-size deployments outgrows them.
func newRib(n int) rib {
	backing := make([]int32, n*maxAlternates)
	r := rib{
		slots: make([][]int32, n),
		log:   make([]rec, 0, n*logPerAS),
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

// reset empties r, keeping its memory, and indexes origins afresh: the
// origins table is new, since the last table computed still holds the old.
func (r *rib) reset(origins []Origin) {
	for o := range r.slots {
		r.slots[o] = r.slots[o][:0]
	}
	r.log, r.arena = r.log[:0], r.arena[:0]
	sorted := slices.Clone(origins)
	slices.SortFunc(sorted, byValue)
	r.origins = slices.Clip(slices.Compact(sorted))
	r.rank = slices.Grow(r.rank[:0], len(r.origins))
	for i, o := range r.origins {
		rank := int32(0)
		if i > 0 {
			rank = r.rank[i-1]
			if byRank(r.origins[i-1], o) != 0 {
				rank++
			}
		}
		r.rank = append(r.rank, rank)
	}
}

// byRank orders origins as better's last decision step does: by ASN, then
// by site ID.
func byRank(a, b Origin) int {
	if c := cmp.Compare(a.ASN, b.ASN); c != 0 {
		return c
	}
	return strings.Compare(a.SiteID, b.SiteID)
}

// byValue is byRank with Local after it, so that equal origins sort
// together.
func byValue(a, b Origin) int {
	if c := byRank(a, b); c != 0 || a.Local == b.Local {
		return c
	}
	if a.Local {
		return 1
	}
	return -1
}

// find returns the index of o among r's origins, which hold it.
func (r *rib) find(o Origin) int32 {
	i, _ := slices.BinarySearchFunc(r.origins, o, byValue)
	return int32(i)
}

// path returns route's path. A staged candidate's lies past the arena's
// length, within its capacity.
func (r *rib) path(route *rec) []int {
	return r.arena[route.off : route.off+route.n]
}

// stage writes the path first, rest... past the arena's length, where the
// next stage overwrites it unless add keeps it, and returns route pointing
// at it. rest may be a path of the arena itself. Only a growth writes the
// arena's slice header, so staging pays no write barrier.
func (r *rib) stage(route rec, first int, rest []int) rec {
	at, n := len(r.arena), 1+len(rest)
	if cap(r.arena)-at < n {
		r.arena = slices.Grow(r.arena, n)
	}
	path := r.arena[at : at+n]
	path[0] = first
	copy(path[1:], rest)
	route.off, route.n = int32(at), int32(n)
	return route
}

// add keeps the route stage returned last: the arena's length takes in its
// path, and the route goes to the log. It returns the route's log index.
// The arena only grows while a table is computed, so a path once kept is
// never written again.
func (r *rib) add(route rec) int32 {
	r.arena = r.arena[:route.off+route.n]
	r.log = append(r.log, route)
	return int32(len(r.log) - 1)
}

// insert offers the staged route to the candidates of AS ordinal o and
// returns the log index it is kept at, or false when the AS refuses it.
func (r *rib) insert(o int32, route rec) (int32, bool) {
	routes := r.slots[o]
	// Reject loops: the receiver is the path's first AS by construction; it
	// must not reappear.
	path := r.path(&route)
	for _, hop := range path[1:] {
		if hop == path[0] {
			return 0, false
		}
	}
	// Duplicate suppression: same origin and same path length via same class.
	for _, i := range routes {
		existing := &r.log[i]
		if existing.origin == route.origin && existing.n == route.n && existing.rel == route.rel {
			return 0, false
		}
	}
	// routes is sorted, best first: the new route goes in front of the first
	// one it beats, and survives if that is inside the cap.
	pos := len(routes)
	for i, kept := range routes {
		if r.better(&route, &r.log[kept]) {
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

// local reports whether route's origin is announced no-export.
func (r *rib) local(route *rec) bool { return r.origins[route.origin].Local }

// table compacts the slots into a routing table of their own: one slice of
// records and one of paths, each exactly as long as what the slots hold,
// and the origins table.
func (r *rib) table(t *Topology) *RoutingTable {
	nRoutes, nHops := 0, 0
	for _, slot := range r.slots {
		nRoutes += len(slot)
		for _, i := range slot {
			nHops += int(r.log[i].n)
		}
	}
	rt := &RoutingTable{
		topo:    t,
		start:   make([]int32, len(r.slots)+1),
		routes:  make([]rec, 0, nRoutes),
		paths:   make([]int, 0, nHops),
		origins: r.origins,
	}
	for o, slot := range r.slots {
		for _, i := range slot {
			route := r.log[i]
			at := len(rt.paths)
			rt.paths = append(rt.paths, r.path(&route)...)
			route.off = int32(at)
			rt.routes = append(rt.routes, route)
		}
		rt.start[o+1] = int32(len(rt.routes))
	}
	return rt
}

// RoutingTable holds, for every AS, its candidate routes to one anycast
// deployment in one family: the routes of AS ordinal o are
// routes[start[o]:start[o+1]], every route's path lies in paths, and its
// origin in origins.
type RoutingTable struct {
	topo    *Topology
	start   []int32
	routes  []rec
	paths   []int
	origins []Origin
}

// entry is one queued route: the ordinal of the AS holding it and its index
// in the rib's log.
type entry struct {
	o, i int32
}

// A Router computes routing tables over one topology and keeps its scratch
// (the rib, its log and arena, and the queues) from one table to the next,
// so that a goroutine building many tables allocates little more than the
// tables. A Router is not safe for concurrent use: give each goroutine its
// own.
type Router struct {
	topo        *Topology
	rib         rib
	queue, down []entry
}

// NewRouter returns a Router over t. Its phase-1 queue has room for one
// route per AS, and its phase-3 queue, which can hold every logged route, for
// as many as its log.
func (t *Topology) NewRouter() *Router {
	n := len(t.asns)
	return &Router{
		topo:  t,
		rib:   newRib(n),
		queue: make([]entry, 0, n),
		down:  make([]entry, 0, n*logPerAS),
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
	// Each loop reads its route by value: an insert may move the log.
	for head := 0; head < len(queue); head++ {
		item := queue[head]
		route := routes.log[item.i]
		local := routes.local(&route)
		if local && route.n > 1 {
			continue // no-export: locals stop after one hop
		}
		for _, n := range adj[item.o] {
			if n.rel != relProvider {
				continue
			}
			if i, ok := routes.insert(n.ord, r.extend(route, n, relCustomer)); ok && !local {
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
			if routes.log[i].rel == relCustomer { // includes origin self-routes
				snapshot = append(snapshot, entry{int32(o), i})
			}
		}
	}
	down := r.down[:0]
	for _, item := range snapshot {
		route := routes.log[item.i]
		local := routes.local(&route)
		if local && route.n > 1 {
			continue
		}
		for _, n := range adj[item.o] {
			if n.rel != relPeer {
				continue
			}
			if i, ok := routes.insert(n.ord, r.extend(route, n, relPeer)); ok && !local {
				down = append(down, entry{n.ord, i})
			}
		}
	}

	// Phase 3: propagate downward along provider→customer edges. Everything
	// an AS has (customer, peer, or provider routes) is exported to its
	// customers, who learn it as provider routes.
	for o, slot := range routes.slots {
		for _, i := range slot {
			if route := &routes.log[i]; route.rel == relCustomer && !routes.local(route) || route.n == 1 {
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
		if routes.local(&route) && route.n > 1 {
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
	routes.reset(origins)
	for _, o := range origins {
		ord, ok := r.topo.ord[o.ASN]
		if !ok {
			continue
		}
		self := routes.stage(rec{origin: routes.find(o), rel: relCustomer}, o.ASN, nil)
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
	case r.better(&r.log[a], &r.log[b]):
		return -1
	case r.better(&r.log[b], &r.log[a]):
		return 1
	}
	return 0
}

// extend stages route as neighbor n learns it from the AS holding it, over
// an edge it learns as class learned.
func (r *Router) extend(route rec, n neighbor, learned localRel) rec {
	routes := &r.rib
	return routes.stage(rec{pathKm: route.pathKm + n.km, origin: route.origin, rel: learned},
		r.topo.asns[n.ord], routes.path(&route))
}

// Routes is one AS's candidate routes in a routing table, best first: a view
// of the table's records that At turns into Routes one at a time.
type Routes struct {
	table  *RoutingTable
	lo, hi int32
}

// Len returns the number of routes.
func (rs Routes) Len() int { return int(rs.hi - rs.lo) }

// At returns route i, best first. Its ASPath is the table's own, shared by
// every campaign worker, and must not be written; its capacity is clipped so
// that an append reallocates.
func (rs Routes) At(i int) Route {
	t := rs.table
	route := &t.routes[rs.lo:rs.hi][i]
	end := route.off + route.n
	return Route{Origin: t.origins[route.origin], ASPath: t.paths[route.off:end:end], PathKm: route.pathKm, relType: route.rel}
}

// Hops returns At(i).Hops() without building the route.
func (rs Routes) Hops(i int) int { return int(rs.table.routes[rs.lo:rs.hi][i].n) - 1 }

// Candidates returns the candidate routes from asn, empty when asn has none.
func (rt *RoutingTable) Candidates(asn int) Routes {
	o, ok := rt.topo.ord[asn]
	if !ok {
		return Routes{}
	}
	return Routes{rt, rt.start[o], rt.start[o+1]}
}
