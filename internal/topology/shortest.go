package topology

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
	r := t.NewRouter()
	adj := t.adj[f]
	routes := &r.rib
	pq := r.down[:0]
	for _, item := range r.seed(origins) {
		pq = routes.push(pq, item)
	}
	for len(pq) > 0 {
		var item entry
		pq, item = routes.pop(pq)
		route := routes.log[item.i]
		local := routes.local(&route)
		if local && route.n > 1 {
			continue
		}
		for _, n := range adj[item.o] {
			// Classless: every learned route ranks as customer-class so only
			// length and geography decide.
			if i, ok := routes.insert(n.ord, r.extend(route, n, relCustomer)); ok && !local {
				pq = routes.push(pq, entry{n.ord, i})
			}
		}
	}
	return routes.table(t)
}

// less orders the classless search's expansions by path length, then
// geographic length, making it a proper Dijkstra over (hops, km).
func (r *rib) less(a, b entry) bool {
	x, y := &r.log[a.i], &r.log[b.i]
	if x.n != y.n {
		return x.n < y.n
	}
	return x.pathKm < y.pathKm
}

// push adds e to the heap h and pop takes its least entry off. They are
// container/heap's Push and Pop step for step: expansions that tie under
// less must come off in the order the oracle's container/heap pops them
// (TestComputeRoutesMatchesReference), since the order decides which of two
// duplicates a rib keeps.
func (r *rib) push(h []entry, e entry) []entry {
	h = append(h, e)
	for j := len(h) - 1; ; {
		i := (j - 1) / 2 // parent
		if i == j || !r.less(h[j], h[i]) {
			break
		}
		h[i], h[j] = h[j], h[i]
		j = i
	}
	return h
}

func (r *rib) pop(h []entry) ([]entry, entry) {
	n := len(h) - 1
	h[0], h[n] = h[n], h[0]
	for i := 0; ; {
		j := 2*i + 1
		if j >= n {
			break
		}
		if j2 := j + 1; j2 < n && r.less(h[j2], h[j]) {
			j = j2
		}
		if !r.less(h[j], h[i]) {
			break
		}
		h[i], h[j] = h[j], h[i]
		i = j
	}
	return h[:n], h[n]
}
