package topology_test

import (
	"sort"
	"testing"

	"repro/internal/rss"
	"repro/internal/topology"
)

// maxRouteAllocs bounds what one ComputeRoutes allocates, whatever the
// deployment: the Router and its scratch (8: itself, the rib's slots, their
// backing, log and arena, the origin ranks, the two queues), the table (5:
// itself, its offsets, records, paths and origins), and two growths of each
// scratch buffer a table can outgrow (log, arena, phase-3 queue). None of it
// counts routes: the bench-size tables make 13 to 15.
const maxRouteAllocs = 8 + 5 + 2*3

// TestRoutingTablesExact: every table of the 13 deployments rss.Build
// places, in both families, is two slabs sized to what they hold — walking
// Candidates over every AS in ASN order visits each record of the record
// slab once, in order, and each path of the path slab once, in order — and
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
				t.Fatalf("%s.root %s: record slab %d of %d, path slab %d of %d", l, f, len(routes), cap(routes), len(paths), cap(paths))
			}
			r, h := 0, 0
			for _, asn := range asns {
				cands := table.Candidates(asn)
				if lo, hi := cands.Span(); cands.Len() > 0 && (lo != r || hi != r+cands.Len()) {
					t.Fatalf("%s.root %s, AS%d: records %d to %d of the slab, want %d on", l, f, asn, lo, hi, r)
				}
				for i := range cands.Len() {
					c := cands.At(i)
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
