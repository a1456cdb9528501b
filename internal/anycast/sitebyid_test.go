package anycast_test

import (
	"testing"

	"repro/internal/anycast"
	"repro/internal/geo"
	"repro/internal/rss"
	"repro/internal/topology"
)

// scanSiteByID is the linear scan SiteByID used to be, kept as its oracle.
func scanSiteByID(d *anycast.Deployment, id string) (anycast.Site, bool) {
	for _, s := range d.Sites {
		if s.ID == id {
			return s, true
		}
	}
	return anycast.Site{}, false
}

// TestSiteByIDMatchesScan compares the indexed lookup with the scan over
// every site of every letter, an unknown ID, a repeated ID (the first site
// wins) and a site appended after the index was built.
func TestSiteByIDMatchesScan(t *testing.T) {
	topo := topology.Build(topology.Config{
		Seed:           5,
		StubsPerRegion: map[geo.Region]int{geo.Africa: 4, geo.Asia: 8, geo.Europe: 25, geo.NorthAmerica: 12, geo.SouthAmerica: 5, geo.Oceania: 5},
		Tier2PerRegion: map[geo.Region]int{geo.Africa: 2, geo.Asia: 3, geo.Europe: 5, geo.NorthAmerica: 3, geo.SouthAmerica: 2, geo.Oceania: 2},
	})
	sys := rss.Build(topo, 1)
	check := func(d *anycast.Deployment, id string) {
		t.Helper()
		got, gotOK := d.SiteByID(id)
		want, wantOK := scanSiteByID(d, id)
		if got != want || gotOK != wantOK {
			t.Fatalf("%s.SiteByID(%q) = %+v, %v; the scan finds %+v, %v", d.Name, id, got, gotOK, want, wantOK)
		}
	}
	for _, l := range rss.Letters() {
		d := sys.Deployments[l]
		for _, s := range d.Sites {
			check(d, s.ID)
		}
		check(d, "no-such-site")
	}

	d := sys.Deployments["f"]
	dup := d.Sites[3]
	dup.Facility = "the-second-of-its-id"
	d.Sites = append(d.Sites, dup, anycast.Site{ID: "f-late", Facility: "added-after-the-first-lookup"})
	check(d, dup.ID)
	check(d, "f-late")

	id := d.Sites[len(d.Sites)/2].ID
	if allocs := testing.AllocsPerRun(1000, func() { d.SiteByID(id) }); allocs != 0 {
		t.Errorf("SiteByID: %v allocs/op, want 0", allocs)
	}
}
