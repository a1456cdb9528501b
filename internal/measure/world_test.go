package measure

import (
	"fmt"
	"math"
	"reflect"
	"slices"
	"testing"

	"repro/internal/anycast"
	"repro/internal/rss"
	"repro/internal/topology"
	"repro/internal/vantage"
)

// benchWorld builds the world of the bench's campaign workload (schedule
// scale 192, VP divisor 4, 80 TLDs) and the campaign config it runs at
// workers.
func benchWorld(t *testing.T, workers int) (Config, *World) {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Scale, cfg.TLDCount, cfg.Workers = 192, 80, workers
	vpCfg := vantage.DefaultConfig()
	vpCfg.Scale = 4
	w, err := NewWorld(cfg, topology.DefaultConfig(), vpCfg)
	if err != nil {
		t.Fatal(err)
	}
	return cfg, w
}

// resolved reports whether c's routing table has been computed: what its
// unexported table field holds, read without resolving it.
func resolved(c *anycast.Catchment) bool {
	return !reflect.ValueOf(c).Elem().FieldByName("table").IsNil()
}

// TestNewCampaignResolvesTheCatchments: NewWorld computes no routing table,
// since a replay reads none; NewCampaign computes all 26, so that a
// campaign pays for them in its setup and not in Run.
func TestNewCampaignResolvesTheCatchments(t *testing.T) {
	cfg, w := benchWorld(t, 2)
	count := func() (n int) {
		for _, l := range rss.Letters() {
			for _, f := range topology.Families() {
				if resolved(w.Catchments[l][f]) {
					n++
				}
			}
		}
		return n
	}
	if n := count(); n != 0 {
		t.Fatalf("NewWorld resolved %d catchments, want none", n)
	}
	NewCampaign(cfg, w)
	if n := count(); n != 26 {
		t.Fatalf("NewCampaign resolved %d catchments, want 26", n)
	}
}

// TestNewWorldIdenticalAcrossWorkers: the bench-size world resolved by
// NewCampaign at Workers 1, 2 and 4, and one left to resolve each table on
// its first use, hold the routing tables ComputeCatchment computes: for every
// letter, family and AS, the same candidate routes in the same order, to the
// bit of their path lengths. The fan-out decides only which goroutine
// computes a table, never where it lands. Under -race (scripts/race.sh) it
// also shows the workers share nothing but the topology they read.
func TestNewWorldIdenticalAcrossWorkers(t *testing.T) {
	_, lazy := benchWorld(t, 1)
	worlds := map[string]*World{"resolved on first use": lazy}
	for _, workers := range []int{1, 2, 4} {
		cfg, w := benchWorld(t, workers)
		NewCampaign(cfg, w)
		worlds[fmt.Sprint("workers ", workers)] = w
	}
	for _, l := range rss.Letters() {
		for _, f := range topology.Families() {
			oracle := anycast.ComputeCatchment(lazy.Topo, lazy.System.Deployments[l], f)
			for name, w := range worlds {
				c := w.Catchments[l][f]
				if c.Deployment.Name != string(l) || c.Family != f {
					t.Fatalf("%s: the %s.root %s slot holds %s.root %s", name, l, f, c.Deployment.Name, c.Family)
				}
				for asn := range lazy.Topo.ASes {
					g, want := c.Choices(asn, 1).Routes, oracle.Choices(asn, 1).Routes
					if g.Len() != want.Len() {
						t.Fatalf("%s, %s.root %s, AS%d: %d routes, want %d", name, l, f, asn, g.Len(), want.Len())
					}
					for i := range g.Len() {
						if !sameRoute(g.At(i), want.At(i)) {
							t.Fatalf("%s, %s.root %s, AS%d route %d: %+v, want %+v", name, l, f, asn, i, g.At(i), want.At(i))
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
