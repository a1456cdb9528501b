package topology_test

import (
	"sort"
	"testing"

	"repro/internal/rss"
	"repro/internal/topology"
)

// maxRouteAllocs bounds what one ComputeRoutes allocates, whatever the
// deployment: the Router and its scratch (8: itself, the rib's slots, their
// backing, log and arena, the two queues and the candidate path), the table
// (4: itself, its offsets, routes and paths), and two growths of each
// scratch buffer a table can outgrow (log, arena, phase-3 queue, candidate
// path). None of it counts routes: the bench-size tables make 12 or 14.
const maxRouteAllocs = 8 + 4 + 2*4

// TestRoutingTablesExact: every table of the 13 deployments rss.Build
// places, in both families, is two slabs sized to what they hold — walking
// Candidates over every AS in ASN order visits each route of the route slab
// once, in order, and each path of the path slab once, in order — and
// computing one allocates at most maxRouteAllocs times, however many routes
// it keeps.
func TestRoutingTablesExact(t *testing.T) {
	topo := topology.Build(topology.DefaultConfig())
	sys := rss.Build(topo, 1)
	asns := make([]int, 0, len(topo.ASes))
	for asn := range topo.ASes {
		asns = append(asns, asn)
	}
	sort.Ints(asns)
	for _, l := range rss.Letters() {
		origins := sys.Deployments[l].Origins()
		for _, f := range topology.Families() {
			table := topo.ComputeRoutes(origins, f)
			routes, paths := table.Slabs()
			if len(routes) != cap(routes) || len(paths) != cap(paths) {
				t.Fatalf("%s.root %s: route slab %d of %d, path slab %d of %d", l, f, len(routes), cap(routes), len(paths), cap(paths))
			}
			r, h := 0, 0
			for _, asn := range asns {
				cands := table.Candidates(asn)
				for i, c := range cands {
					if r >= len(routes) || &cands[i] != &routes[r] {
						t.Fatalf("%s.root %s, AS%d route %d: not route %d of the slab", l, f, asn, i, r)
					}
					if h+len(c.ASPath) > len(paths) || &c.ASPath[0] != &paths[h] || cap(c.ASPath) != len(c.ASPath) {
						t.Fatalf("%s.root %s, AS%d route %d: path not at %d of the slab, or not clipped", l, f, asn, i, h)
					}
					r, h = r+1, h+len(c.ASPath)
				}
			}
			if r != len(routes) || h != len(paths) {
				t.Fatalf("%s.root %s: Candidates cover %d routes and %d hops of slabs of %d and %d", l, f, r, h, len(routes), len(paths))
			}
			if n := testing.AllocsPerRun(3, func() { topo.ComputeRoutes(origins, f) }); n > maxRouteAllocs {
				t.Errorf("%s.root %s: ComputeRoutes allocates %.0f times, want at most %d", l, f, n, maxRouteAllocs)
			} else {
				t.Logf("%s.root %s: %d routes, %d hops, %.0f allocs", l, f, len(routes), len(paths), n)
			}
		}
	}
}
