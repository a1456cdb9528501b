package anycast

import (
	"math"
	"slices"
	"sync"
	"testing"

	"repro/internal/geo"
	"repro/internal/seeded"
	"repro/internal/topology"
)

func testTopo() *topology.Topology {
	cfg := topology.Config{
		Seed: 5,
		StubsPerRegion: map[geo.Region]int{
			geo.Africa: 4, geo.Asia: 8, geo.Europe: 25,
			geo.NorthAmerica: 12, geo.SouthAmerica: 5, geo.Oceania: 5,
		},
		Tier2PerRegion: map[geo.Region]int{
			geo.Africa: 2, geo.Asia: 3, geo.Europe: 5,
			geo.NorthAmerica: 3, geo.SouthAmerica: 2, geo.Oceania: 2,
		},
	}
	return topology.Build(cfg)
}

func testDeployment(topo *topology.Topology) *Deployment {
	b := NewBuilder(topo, 1)
	d := &Deployment{Name: "x", InstabilityV4: 0.05, InstabilityV6: 0.10}
	d.Sites = append(d.Sites, b.PlaceSites("x", Global, geo.Europe, 4)...)
	d.Sites = append(d.Sites, b.PlaceSites("x", Global, geo.NorthAmerica, 3)...)
	d.Sites = append(d.Sites, b.PlaceSites("x", Local, geo.Europe, 2)...)
	return d
}

func TestPlaceSites(t *testing.T) {
	topo := testTopo()
	d := testDeployment(topo)
	if len(d.Sites) != 9 {
		t.Fatalf("placed %d sites", len(d.Sites))
	}
	ids := map[string]bool{}
	globals := 0
	for _, s := range d.Sites {
		if s.Kind == Global {
			globals++
		}
		if ids[s.ID] {
			t.Errorf("duplicate site ID %s", s.ID)
		}
		ids[s.ID] = true
		if s.HostASN == 0 || s.Facility == "" {
			t.Errorf("incomplete site %+v", s)
		}
	}
	if globals != 7 {
		t.Errorf("global sites = %d", globals)
	}
	if _, ok := d.SiteByID(d.Sites[0].ID); !ok {
		t.Error("SiteByID failed")
	}
	if _, ok := d.SiteByID("nope"); ok {
		t.Error("SiteByID found a ghost")
	}
}

func TestCatchmentResolves(t *testing.T) {
	topo := testTopo()
	d := testDeployment(topo)
	c := ComputeCatchment(topo, d, topology.IPv4)
	stubs := topo.StubASNs(nil)
	resolved := 0
	for _, asn := range stubs {
		if rs := c.Choices(asn, 1).Routes; rs.Len() > 0 {
			resolved++
			if _, found := d.SiteByID(rs.At(0).Origin.SiteID); !found {
				t.Errorf("catchment returned unknown site %s", rs.At(0).Origin.SiteID)
			}
		}
	}
	if resolved*100 < len(stubs)*90 {
		t.Errorf("catchment resolves %d/%d stubs", resolved, len(stubs))
	}
}

func TestSelectAtDeterministic(t *testing.T) {
	topo := testTopo()
	d := testDeployment(topo)
	c := ComputeCatchment(topo, d, topology.IPv4)
	asn := topo.StubASNs(nil)[0]
	r1, ok1 := c.SelectAt(asn, 7, 42, 1)
	r2, ok2 := c.SelectAt(asn, 7, 42, 1)
	if ok1 != ok2 || r1.Origin.SiteID != r2.Origin.SiteID {
		t.Error("SelectAt not deterministic")
	}
}

func TestSelectAtProducesChanges(t *testing.T) {
	topo := testTopo()
	d := testDeployment(topo)
	d.InstabilityV4 = 0.5 // aggressively flappy for the test
	c := ComputeCatchment(topo, d, topology.IPv4)
	// Find a stub with at least two near-equal alternates.
	var asn int
	for _, s := range topo.StubASNs(nil) {
		alts := c.Choices(s, 1).Routes
		if alts.Len() >= 2 && alts.At(1).Hops() <= alts.At(0).Hops()+1 {
			asn = s
			break
		}
	}
	if asn == 0 {
		t.Skip("no stub with near-equal alternates in this topology")
	}
	seen := map[string]bool{}
	for tick := 0; tick < 200; tick++ {
		r, ok := c.SelectAt(asn, tick, 1, 1)
		if !ok {
			t.Fatal("unroutable")
		}
		seen[r.Origin.SiteID] = true
	}
	if len(seen) < 2 {
		t.Error("high instability produced no site changes")
	}
}

func TestStableDeploymentRarelyChanges(t *testing.T) {
	topo := testTopo()
	d := testDeployment(topo)
	d.InstabilityV4 = 0 // fully stable
	c := ComputeCatchment(topo, d, topology.IPv4)
	for _, asn := range topo.StubASNs(nil)[:10] {
		var first string
		for tick := 0; tick < 50; tick++ {
			r, ok := c.SelectAt(asn, tick, 9, 1)
			if !ok {
				break
			}
			if tick == 0 {
				first = r.Origin.SiteID
			} else if r.Origin.SiteID != first {
				t.Fatalf("zero-instability deployment changed site for %d", asn)
			}
		}
	}
}

func TestFacilitySharing(t *testing.T) {
	// Use the full-size topology so the European exchanges have members:
	// with letter-specific operator facilities, sharing happens at IXPs.
	topo := topology.Build(topology.DefaultConfig())
	b := NewBuilder(topo, 1)
	// Two deployments in the same region share facilities often.
	d1 := b.PlaceSites("p", Global, geo.Europe, 25)
	d2 := b.PlaceSites("q", Global, geo.Europe, 25)
	fac1 := map[string]bool{}
	for _, s := range d1 {
		fac1[s.Facility] = true
	}
	shared := 0
	for _, s := range d2 {
		if fac1[s.Facility] {
			shared++
		}
	}
	if shared == 0 {
		t.Error("no facility sharing between co-regional deployments")
	}
}

func TestSiteKindString(t *testing.T) {
	if Global.String() != "global" || Local.String() != "local" {
		t.Error("SiteKind strings")
	}
}

// nearEqual returns how many of asn's alternates are within one hop of the
// best — the set a flap re-rolls over.
func nearEqual(c *Catchment, asn int) int {
	alts := c.Choices(asn, 1).Routes
	n := 0
	for n < alts.Len() && alts.At(n).Hops() <= alts.At(0).Hops()+1 {
		n++
	}
	return n
}

// flappyStubs returns the stubs with at least two near-equal alternates.
func flappyStubs(t *testing.T, topo *topology.Topology, c *Catchment) []int {
	t.Helper()
	var out []int
	for _, asn := range topo.StubASNs(nil) {
		if nearEqual(c, asn) >= 2 {
			out = append(out, asn)
		}
	}
	if len(out) < 40 {
		t.Fatalf("only %d stubs with near-equal alternates; the distribution tests need 40", len(out))
	}
	return out
}

func TestSelectAtDoesNotAllocate(t *testing.T) {
	topo := testTopo()
	c := ComputeCatchment(topo, testDeployment(topo), topology.IPv4)
	asn := flappyStubs(t, topo, c)[0]
	tick := 0
	if allocs := testing.AllocsPerRun(1000, func() {
		tick++
		c.SelectAt(asn, tick, 1, 192)
	}); allocs != 0 {
		t.Errorf("SelectAt: %v allocs/op, want 0", allocs)
	}
}

// The flap draw and the pick draw, measured through what SelectAt returns:
// an AS with u near-equal alternates leaves the best route on a share
// flap·(u-1)/u of intervals and lands on each of the other u-1 equally often.
func TestFlapDistribution(t *testing.T) {
	const p, ticks = 0.004, 2500
	topo := testTopo()
	d := testDeployment(topo)
	d.InstabilityV4 = p
	c := ComputeCatchment(topo, d, topology.IPv4)
	stubs := flappyStubs(t, topo, c)
	for _, scale := range []int{1, 96, 192} {
		want := 1 - math.Pow(1-p, float64(scale))
		var flapShare, n, both, moved float64
		picks := map[int][]float64{} // near-equal set size → count per alternate
		for _, asn := range stubs {
			u := nearEqual(c, asn)
			alts := c.Choices(asn, 1).Routes
			if picks[u] == nil {
				picks[u] = make([]float64, u)
			}
			prev := false
			for tick := 0; tick < ticks; tick++ {
				r, _ := c.SelectAt(asn, tick, 1, scale)
				k := 0 // which alternate: the copies share the table's AS paths
				for &alts.At(k).ASPath[0] != &r.ASPath[0] {
					k++
				}
				picks[u][k]++
				n++
				if k != 0 {
					moved++
					flapShare += float64(u) / float64(u-1)
					if prev {
						both++
					}
				}
				prev = k != 0
			}
		}
		if n < 100000 {
			t.Fatalf("only %v coordinates", n)
		}
		if got := flapShare / n; math.Abs(got-want) > 0.01 {
			t.Errorf("scale %d: flap share %.4f, want %.4f ± 0.01", scale, got, want)
		}
		// No lock-step: leaving the best route at tick t says nothing about t+1.
		if got, indep := both/n, (moved/n)*(moved/n); math.Abs(got-indep) > 0.005 {
			t.Errorf("scale %d: moved at t and t+1 on %.4f of ticks, independent draws give %.4f", scale, got, indep)
		}
		if scale == 1 {
			continue // too few flaps at p = 0.004 to judge the pick
		}
		for u, counts := range picks {
			total := 0.0
			for _, c := range counts[1:] {
				total += c
			}
			for k, c := range counts[1:] {
				if share := c / total; math.Abs(share-1/float64(u-1)) > 0.02 {
					t.Errorf("scale %d, %d near-equal: alternate %d takes %.3f of the moves, want %.3f", scale, u, k+1, share, 1/float64(u-1))
				}
			}
		}
	}
}

func TestSelectAtSeedSensitive(t *testing.T) {
	topo := testTopo()
	d := testDeployment(topo)
	d.InstabilityV4 = 0.5
	c := ComputeCatchment(topo, d, topology.IPv4)
	asn := flappyStubs(t, topo, c)[0]
	differ := 0
	for tick := 0; tick < 500; tick++ {
		a, _ := c.SelectAt(asn, tick, 1, 1)
		b, _ := c.SelectAt(asn, tick, 2, 1)
		if a.Origin != b.Origin {
			differ++
		}
	}
	if differ == 0 {
		t.Error("seeds 1 and 2 select the same route at every tick")
	}
}

// The campaign's workers share one Catchment; under -race this proves
// SelectAt only reads the routing table (scripts/race.sh).
func TestSelectAtConcurrent(t *testing.T) {
	topo := testTopo()
	d := testDeployment(topo)
	d.InstabilityV4 = 0.3
	c := ComputeCatchment(topo, d, topology.IPv4)
	stubs := flappyStubs(t, topo, c)
	want := make([]topology.Origin, len(stubs))
	for i, asn := range stubs {
		r, _ := c.SelectAt(asn, i, 1, 96)
		want[i] = r.Origin
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < 50; round++ {
				for i, asn := range stubs {
					if r, _ := c.SelectAt(asn, i, 1, 96); r.Origin != want[i] {
						t.Errorf("AS%d: %v under contention, %v alone", asn, r.Origin, want[i])
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}

// selectAtReference is SelectAt as it was before Choices and Pick were cut out
// of it, kept as their oracle: the same candidates, the same compounding, the
// same two draws.
func selectAtReference(c *Catchment, asn, tick int, seed int64, scale int) (topology.Route, bool) {
	alts := c.routes().Candidates(asn)
	if alts.Len() == 0 {
		return topology.Route{}, false
	}
	instability := c.Deployment.InstabilityV4
	if c.Family == topology.IPv6 {
		instability = c.Deployment.InstabilityV6
	}
	if scale > 1 && instability > 0 {
		instability = 1 - pow1p(1-instability, scale)
	}
	key := uint64(seed ^ int64(asn)<<20 ^ int64(tick))
	if alts.Len() == 1 || instability == 0 || seeded.Unit(seeded.Draw(key, 0)) >= instability {
		return alts.At(0), true
	}
	usable := 1
	for usable < alts.Len() && alts.At(usable).Hops() <= alts.At(0).Hops()+1 {
		usable++
	}
	return alts.At(int(seeded.Draw(key, 1) % uint64(usable))), true
}

// TestChoicesMatchSelectAtReference holds SelectAt, and Choices + Pick as the
// campaign's probe plan uses them (resolved once, picked per tick), to the
// reference: every AS of the topology and one outside it, both families, a
// stable deployment among them, 1,000 ticks, unthinned and at scale 192.
func TestChoicesMatchSelectAtReference(t *testing.T) {
	topo := testTopo()
	d := testDeployment(topo)
	d.InstabilityV6 = 0 // a family that never flaps
	asns := []int{999999}
	for asn := range topo.ASes {
		asns = append(asns, asn)
	}
	flaps, checked := 0, 0
	for _, f := range topology.Families() {
		c := ComputeCatchment(topo, d, f)
		for _, scale := range []int{1, 192} {
			for _, asn := range asns {
				ch := c.Choices(asn, scale)
				for tick := 0; tick < 1000; tick++ {
					want, wantOK := selectAtReference(c, asn, tick, 11, scale)
					got, ok := c.SelectAt(asn, tick, 11, scale)
					if ok != wantOK || ok != (ch.Routes.Len() > 0) {
						t.Fatalf("AS%d %s: reachable %v by SelectAt, %v by Choices, want %v", asn, f, ok, ch.Routes.Len() > 0, wantOK)
					}
					if !ok {
						continue
					}
					picked := ch.Routes.At(ch.Pick(asn, tick, 11))
					// Copies of a route share the table's AS path.
					if &got.ASPath[0] != &want.ASPath[0] || &picked.ASPath[0] != &want.ASPath[0] {
						t.Fatalf("AS%d %s scale %d tick %d: SelectAt %v, Pick %v, want %v",
							asn, f, scale, tick, got.Origin, picked.Origin, want.Origin)
					}
					if &want.ASPath[0] != &ch.Routes.At(0).ASPath[0] {
						flaps++
					}
					checked++
				}
			}
		}
	}
	if flaps < 1000 || checked < 100000 {
		t.Fatalf("%d flaps in %d selections: too few to tell the implementations apart", flaps, checked)
	}
}

// TestFirstUseResolvesOnce: eight goroutines make the first Choices calls on
// one unresolved catchment at once, and each sees the table ComputeCatchment
// resolves, for every AS of the topology, to the bit of its path lengths; a
// later Resolve leaves that table in place. Under -race (scripts/race.sh) it
// shows the table is published once, before anyone reads it.
func TestFirstUseResolvesOnce(t *testing.T) {
	topo := testTopo()
	d := testDeployment(topo)
	want := ComputeCatchment(topo, d, topology.IPv4)
	c := NewCatchment(topo, d, topology.IPv4)
	if c.table != nil {
		t.Fatal("NewCatchment resolved its routing table")
	}
	start := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			for asn := range topo.ASes {
				got, w := c.Choices(asn, 1).Routes, want.Choices(asn, 1).Routes
				if got.Len() != w.Len() {
					t.Errorf("AS%d: %d routes on first use, %d resolved up front", asn, got.Len(), w.Len())
					return
				}
				for i := range got.Len() {
					a, b := got.At(i), w.At(i)
					if a.Origin != b.Origin || !slices.Equal(a.ASPath, b.ASPath) || math.Float64bits(a.PathKm) != math.Float64bits(b.PathKm) {
						t.Errorf("AS%d route %d: %+v on first use, %+v resolved up front", asn, i, a, b)
						return
					}
				}
			}
		}()
	}
	close(start)
	wg.Wait()
	table := c.table
	c.Resolve(topo.NewRouter())
	if c.table != table {
		t.Error("Resolve replaced a resolved table")
	}
}
