package topology

import (
	"container/heap"
	"fmt"
	"math"
	"reflect"
	"sort"
	"testing"

	"repro/internal/geo"
)

// This file keeps route propagation as it was when every candidate route got
// a path of its own, every hop paid a great-circle distance, the rib was a
// map keyed by ASN and the queues held copies of routes: extend and
// rib.insert word for word (renamed), and the two drivers around them. It is
// the oracle TestComputeRoutesMatchesReference (reference_test.go) holds
// ComputeRoutes and ComputeRoutesShortest to, AS by AS and bit by bit. Its
// only reading of the topology's caches is which neighbors an AS has, over
// oracleAdj.

// oracleRib is the per-AS set of candidate routes, best first, capped, keyed
// by ASN.
type oracleRib map[int][]Route

// oracleNeighbor is a neighbor as the oracle reads it: by ASN.
type oracleNeighbor struct {
	asn int
	rel localRel
}

// oracleAdj returns the topology's adjacency keyed by family and ASN.
func (t *Topology) oracleAdj() map[Family]map[int][]oracleNeighbor {
	out := make(map[Family]map[int][]oracleNeighbor)
	for _, f := range Families() {
		out[f] = make(map[int][]oracleNeighbor)
		for o, ns := range t.adj[f] {
			for _, n := range ns {
				out[f][t.asns[o]] = append(out[f][t.asns[o]], oracleNeighbor{asn: t.asns[n.ord], rel: n.rel})
			}
		}
	}
	return out
}

func (r oracleRib) copyingInsert(asn int, route Route) bool {
	routes := r[asn]
	// Reject loops: asn is ASPath[0] by construction; it must not reappear.
	for _, hop := range route.ASPath[1:] {
		if hop == asn {
			return false
		}
	}
	// Duplicate suppression: same origin and same path length via same class.
	for _, existing := range routes {
		if existing.Origin == route.Origin && len(existing.ASPath) == len(route.ASPath) &&
			existing.relType == route.relType {
			return false
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
		return false
	}
	if len(routes) < maxAlternates {
		routes = append(routes, Route{})
	}
	copy(routes[pos+1:], routes[pos:])
	routes[pos] = route
	r[asn] = routes
	return true
}

// copyingExtend prepends nextASN to route (the receiver's view).
func copyingExtend(t *Topology, r Route, from, to int, learned localRel) Route {
	path := make([]int, 0, len(r.ASPath)+1)
	path = append(path, to)
	path = append(path, r.ASPath...)
	km := r.PathKm + geo.DistanceKm(t.ASes[to].City.Point, t.ASes[from].City.Point)
	// The HE-like carrier's IPv4 capacity is poor: model the paper's
	// observation (221 ms average v4 vs 23 ms v6 through AS6939) as a large
	// v4 path-length penalty through that AS.
	return Route{Origin: r.Origin, ASPath: path, PathKm: km, relType: learned}
}

// copyingRoutes is ComputeRoutes over copyingExtend and copyingInsert.
func (t *Topology) copyingRoutes(origins []Origin, f Family) oracleRib {
	adj := t.oracleAdj()
	routes := make(oracleRib)

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
		routes.copyingInsert(o.ASN, self)
		queue = append(queue, workItem{o.ASN, self})
	}

	for head := 0; head < len(queue); head++ {
		item := queue[head]
		if item.route.Origin.Local && len(item.route.ASPath) > 1 {
			continue
		}
		for _, n := range adj[f][item.asn] {
			if n.rel != relProvider {
				continue
			}
			ext := copyingExtend(t, item.route, item.asn, n.asn, relCustomer)
			if routes.copyingInsert(n.asn, ext) && !ext.Origin.Local {
				queue = append(queue, workItem{n.asn, ext})
			}
		}
	}

	var downQueue []workItem
	snapshot := make([]workItem, 0, len(routes))
	for asn, rs := range routes {
		for _, r := range rs {
			if r.relType == relCustomer {
				snapshot = append(snapshot, workItem{asn, r})
			}
		}
	}
	sort.Slice(snapshot, func(i, j int) bool {
		if snapshot[i].asn != snapshot[j].asn {
			return snapshot[i].asn < snapshot[j].asn
		}
		return better(snapshot[i].route, snapshot[j].route)
	})
	for _, item := range snapshot {
		if item.route.Origin.Local && len(item.route.ASPath) > 1 {
			continue
		}
		for _, n := range adj[f][item.asn] {
			if n.rel != relPeer {
				continue
			}
			ext := copyingExtend(t, item.route, item.asn, n.asn, relPeer)
			if routes.copyingInsert(n.asn, ext) && !ext.Origin.Local {
				downQueue = append(downQueue, workItem{n.asn, ext})
			}
		}
	}

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
		for _, n := range adj[f][item.asn] {
			if n.rel != relCustomer {
				continue
			}
			ext := copyingExtend(t, item.route, item.asn, n.asn, relProvider)
			if routes.copyingInsert(n.asn, ext) {
				downQueue = append(downQueue, workItem{n.asn, ext})
			}
		}
	}

	return routes
}

// copyingRoutesShortest is ComputeRoutesShortest over copyingExtend and
// copyingInsert.
func (t *Topology) copyingRoutesShortest(origins []Origin, f Family) oracleRib {
	adj := t.oracleAdj()
	routes := make(oracleRib)
	pq := &routeQueue{}
	for _, o := range origins {
		if t.ASes[o.ASN] == nil {
			continue
		}
		self := Route{Origin: o, ASPath: []int{o.ASN}, relType: relCustomer}
		routes.copyingInsert(o.ASN, self)
		heap.Push(pq, queuedRoute{o.ASN, self})
	}
	for pq.Len() > 0 {
		it := heap.Pop(pq).(queuedRoute)
		if it.route.Origin.Local && len(it.route.ASPath) > 1 {
			continue
		}
		for _, n := range adj[f][it.asn] {
			ext := copyingExtend(t, it.route, it.asn, n.asn, relCustomer)
			if routes.copyingInsert(n.asn, ext) && !ext.Origin.Local {
				heap.Push(pq, queuedRoute{n.asn, ext})
			}
		}
	}
	return routes
}

// CopyingRoutes lets the external test reach the oracle: it propagates
// origins as ComputeRoutesShortest did when shortest is set, as ComputeRoutes
// did otherwise.
func (t *Topology) CopyingRoutes(origins []Origin, f Family, shortest bool) oracleRib {
	if shortest {
		return t.copyingRoutesShortest(origins, f)
	}
	return t.copyingRoutes(origins, f)
}

// queuedRoute is one pending expansion of the classless search.
type queuedRoute struct {
	asn   int
	route Route
}

// routeQueue orders expansion by path length then geographic length, making
// the classless search a proper Dijkstra over (hops, km).
type routeQueue []queuedRoute

func (q routeQueue) Len() int { return len(q) }

func (q routeQueue) Less(i, j int) bool {
	a, b := q[i].route, q[j].route
	if len(a.ASPath) != len(b.ASPath) {
		return len(a.ASPath) < len(b.ASPath)
	}
	return a.PathKm < b.PathKm
}

func (q routeQueue) Swap(i, j int) { q[i], q[j] = q[j], q[i] }

func (q *routeQueue) Push(x any) { *q = append(*q, x.(queuedRoute)) }

func (q *routeQueue) Pop() any {
	old := *q
	n := len(old)
	it := old[n-1]
	*q = old[:n-1]
	return it
}

// DiffRIB compares got with want over every AS of t in ASN order, route by
// route: origin, AS path, how the first hop was learned, and the path length's
// bits. It returns the first difference, nil when there is none.
func (t *Topology) DiffRIB(got *RoutingTable, want oracleRib) error {
	holding := 0
	for _, asn := range t.asns {
		if got.Candidates(asn).Len() > 0 {
			holding++
		}
	}
	if holding != len(want) {
		return fmt.Errorf("%d ASes hold routes, want %d", holding, len(want))
	}
	asns := make([]int, 0, len(t.ASes))
	for asn := range t.ASes {
		asns = append(asns, asn)
	}
	sort.Ints(asns)
	for _, asn := range asns {
		routes, w := got.Candidates(asn), want[asn]
		if routes.Len() != len(w) {
			return fmt.Errorf("AS%d: %d routes, want %d", asn, routes.Len(), len(w))
		}
		for i := range w {
			g := routes.At(i)
			if g.Origin != w[i].Origin || !reflect.DeepEqual(g.ASPath, w[i].ASPath) ||
				g.relType != w[i].relType || math.Float64bits(g.PathKm) != math.Float64bits(w[i].PathKm) {
				return fmt.Errorf("AS%d route %d: %+v, want %+v", asn, i, g, w[i])
			}
		}
	}
	return nil
}

// TestStubASNsMatchesFilter: for every region and for none, StubASNs returns
// what filtering all ASes and sorting returns, and a caller appending to the
// slice it got does not change what the next caller gets.
func TestStubASNsMatchesFilter(t *testing.T) {
	topo := Build(DefaultConfig())
	regions := []*geo.Region{nil}
	for _, r := range geo.Regions() {
		regions = append(regions, &r)
	}
	for _, region := range regions {
		var want []int
		for asn, as := range topo.ASes {
			if as.Tier == Stub && (region == nil || as.Region == *region) {
				want = append(want, asn)
			}
		}
		sort.Ints(want)
		name := "all"
		if region != nil {
			name = region.String()
		}
		got := topo.StubASNs(region)
		if len(want) == 0 || !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: %d stubs %v, want %d %v", name, len(got), got, len(want), want)
		}
		if cap(got) != len(got) {
			t.Fatalf("%s: capacity %d over length %d: an append would write the topology's own array", name, cap(got), len(got))
		}
		grown := append(got, -1)
		grown[len(got)-1] = -2
		if again := topo.StubASNs(region); !reflect.DeepEqual(again, want) {
			t.Fatalf("%s: after a caller appended, %v, want %v", name, again, want)
		}
	}
}

// Slabs lets the external test reach a table's record and path slabs.
func (rt *RoutingTable) Slabs() ([]rec, []int) { return rt.routes, rt.paths }

// Span lets the external test reach which records of its table rs views.
func (rs Routes) Span() (lo, hi int) { return int(rs.lo), int(rs.hi) }
