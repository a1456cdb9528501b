package topology

import "container/heap"

// ComputeRoutesShortest is the ablation counterpart of ComputeRoutes: it
// ignores business relationships entirely and returns pure shortest-path
// (hop count, then distance) routes, as an idealized "engineering-only"
// Internet would. Comparing catchments under both models quantifies how
// much route inflation is caused by routing policy rather than topology
// (DESIGN.md §5, ablation "policy weights").
//
// Local origins keep their one-hop announcement scope: scope is a property
// of the announcement, not of path selection.
//
//rootlint:allow deadcode: the reference TestShortestNeverLongerThanPolicy and BenchmarkAblationPolicyWeights (bench_test.go) compare policy routing against
func (t *Topology) ComputeRoutesShortest(origins []Origin, f Family) *RoutingTable {
	routes := make(rib)
	pq := &routeQueue{}
	var scratch []int // the candidate path extend writes and insert copies
	for _, o := range origins {
		if t.ASes[o.ASN] == nil {
			continue
		}
		self := Route{Origin: o, ASPath: []int{o.ASN}, relType: relCustomer}
		routes.insert(o.ASN, self)
		heap.Push(pq, queuedRoute{o.ASN, self})
	}
	for pq.Len() > 0 {
		it := heap.Pop(pq).(queuedRoute)
		if it.route.Origin.Local && len(it.route.ASPath) > 1 {
			continue
		}
		for _, n := range t.adj[f][it.asn] {
			// Classless: every learned route ranks as customer-class so only
			// length and geography decide.
			kept, ok := routes.insert(n.asn, extend(&scratch, it.route, n, relCustomer))
			if ok && !kept.Origin.Local {
				heap.Push(pq, queuedRoute{n.asn, kept})
			}
		}
	}
	return &RoutingTable{routes: routes}
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
