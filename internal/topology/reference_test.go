package topology_test

import (
	"fmt"
	"hash/fnv"
	"sync"
	"testing"

	"repro/internal/geo"
	"repro/internal/rss"
	"repro/internal/topology"
)

// TestComputeRoutesMatchesReference holds ComputeRoutes and
// ComputeRoutesShortest to the propagation that allocated a path for every
// candidate and measured every hop as it went (oracle_test.go): for all 13
// deployments rss.Build places, in both families, on the topologies and
// placements of seeds 1 to 3, and for the set of every local origin alone,
// every AS's routes match in order, to the bit of their path lengths.
func TestComputeRoutesMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		cfg := topology.DefaultConfig()
		cfg.Seed = seed
		topo := topology.Build(cfg)
		sys := rss.Build(topo, seed)
		sets := map[string][]topology.Origin{}
		var locals []topology.Origin
		for _, l := range rss.Letters() {
			origins := sys.Deployments[l].Origins()
			sets[string(l)+".root"] = origins
			for _, o := range origins {
				if o.Local {
					locals = append(locals, o)
				}
			}
		}
		if len(locals) == 0 {
			t.Fatalf("seed %d: no local origin to test", seed)
		}
		sets["local only"] = locals
		for name, origins := range sets {
			for _, f := range topology.Families() {
				for _, shortest := range []bool{false, true} {
					got := topo.ComputeRoutes(origins, f)
					if shortest {
						got = topo.ComputeRoutesShortest(origins, f)
					}
					want := topo.CopyingRoutes(origins, f, shortest)
					if err := topo.DiffRIB(got, want); err != nil {
						t.Fatalf("seed %d, %s, %s, shortest %v: %v", seed, name, f, shortest, err)
					}
				}
			}
		}
	}
}

// TestSharedGraphConcurrentReads: four goroutines read one topology at once
// the way the campaign's workers and the world build do (stub lists, edge
// distances through ComputeRoutes, and the shared route slices through
// Candidates and Choices) and all see the same thing. Under -race
// (scripts/race.sh) it shows the caches Build makes are read-only.
func TestSharedGraphConcurrentReads(t *testing.T) {
	topo := topology.Build(topology.DefaultConfig())
	sys := rss.Build(topo, 1)
	catchments := sys.Catchments()
	sys.ResolveCatchments(catchments, 1)
	digest := func() uint64 {
		h := fnv.New64a()
		stubs := topo.StubASNs(nil)
		for _, r := range geo.Regions() {
			fmt.Fprint(h, r, topo.StubASNs(&r))
		}
		table := topo.ComputeRoutes(sys.Deployments["k"].Origins(), topology.IPv6)
		for _, asn := range stubs {
			routes := table.Candidates(asn)
			for i := range routes.Len() {
				route := routes.At(i)
				fmt.Fprint(h, asn, route.Origin, route.ASPath, route.PathKm)
			}
			for _, l := range rss.Letters() {
				for _, f := range topology.Families() {
					ch := catchments[l][f].Choices(asn, 1)
					fmt.Fprint(h, ch.Usable, ch.Routes.Len())
					if ch.Routes.Len() > 0 {
						fmt.Fprint(h, ch.Routes.At(0).Origin.SiteID)
					}
				}
			}
		}
		return h.Sum64()
	}
	want := digest()
	got := make([]uint64, 4)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = digest()
		}()
	}
	wg.Wait()
	for i, g := range got {
		if g != want {
			t.Errorf("goroutine %d read digest %x, want %x", i, g, want)
		}
	}
}
