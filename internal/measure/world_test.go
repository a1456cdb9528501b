package measure

import (
	"math"
	"slices"
	"testing"

	"repro/internal/rss"
	"repro/internal/topology"
	"repro/internal/vantage"
)

// TestNewWorldIdenticalAcrossWorkers: the world of the bench's campaign
// workload (schedule scale 192, VP divisor 4, 80 TLDs) built at Workers 1, 2
// and 4 holds the same 26 routing tables: for every letter, family and AS,
// the same candidate routes in the same order, to the bit of their path
// lengths. The fan-out decides only which goroutine computes a table, never
// where it lands. Under -race (scripts/race.sh) it also shows the workers
// share nothing but the topology they read.
func TestNewWorldIdenticalAcrossWorkers(t *testing.T) {
	build := func(workers int) *World {
		cfg := DefaultConfig()
		cfg.Scale, cfg.TLDCount, cfg.Workers = 192, 80, workers
		vpCfg := vantage.DefaultConfig()
		vpCfg.Scale = 4
		w, err := NewWorld(cfg, topology.DefaultConfig(), vpCfg)
		if err != nil {
			t.Fatal(err)
		}
		return w
	}
	want := build(1)
	for _, workers := range []int{2, 4} {
		got := build(workers)
		for _, l := range rss.Letters() {
			for _, f := range topology.Families() {
				gc, wc := got.Catchments[l][f], want.Catchments[l][f]
				if gc.Deployment.Name != string(l) || gc.Family != f {
					t.Fatalf("workers %d: the %s.root %s slot holds %s.root %s", workers, l, f, gc.Deployment.Name, gc.Family)
				}
				for asn := range want.Topo.ASes {
					g, w := gc.Choices(asn, 1).Routes, wc.Choices(asn, 1).Routes
					if g.Len() != w.Len() {
						t.Fatalf("workers %d, %s.root %s, AS%d: %d routes, want %d", workers, l, f, asn, g.Len(), w.Len())
					}
					for i := range g.Len() {
						if !sameRoute(g.At(i), w.At(i)) {
							t.Fatalf("workers %d, %s.root %s, AS%d route %d: %+v, want %+v", workers, l, f, asn, i, g.At(i), w.At(i))
						}
					}
				}
			}
		}
	}
}

// sameRoute reports whether a and b have the same origin, AS path and path
// length bits.
func sameRoute(a, b topology.Route) bool {
	return a.Origin == b.Origin && slices.Equal(a.ASPath, b.ASPath) &&
		math.Float64bits(a.PathKm) == math.Float64bits(b.PathKm)
}
