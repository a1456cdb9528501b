package rss

import (
	"testing"

	"repro/internal/anycast"
	"repro/internal/geo"
	"repro/internal/topology"
)

func TestLetters(t *testing.T) {
	ls := Letters()
	if len(ls) != 13 || ls[0] != "a" || ls[12] != "m" {
		t.Errorf("Letters() = %v", ls)
	}
	if Letter("b").Index() != 1 {
		t.Error("index of b")
	}
}

func TestTotalSitesMatchPaper(t *testing.T) {
	// Worldwide totals derived from the Table 4 regional rows.
	want := map[Letter][2]int{ // global, local
		"b": {6, 0}, "c": {12, 0}, "g": {6, 0}, "h": {12, 0},
		"i": {81, 0}, "l": {132, 0},
		"e": {97, 146}, "f": {129, 216}, "j": {61, 85}, "k": {105, 11},
		"m": {7, 9},
	}
	for l, w := range want {
		g, loc := TotalSites(l)
		if g != w[0] || loc != w[1] {
			t.Errorf("%s.root: %d global / %d local, want %d / %d", l, g, loc, w[0], w[1])
		}
	}
	// d.root: 23 global; locals sum to 185 in the per-region rows (the
	// paper's worldwide row says 186; the regional rows are authoritative
	// for this model).
	g, loc := TotalSites("d")
	if g != 23 || loc < 180 || loc > 186 {
		t.Errorf("d.root: %d global / %d local", g, loc)
	}
}

func TestServiceAddrs(t *testing.T) {
	addrs := AllServiceAddrs()
	// 13 letters x 2 families + b.root old pair = 28 targets.
	if len(addrs) != 28 {
		t.Fatalf("AllServiceAddrs() = %d targets, want 28", len(addrs))
	}
	seen := map[string]bool{}
	oldCount := 0
	for _, sa := range addrs {
		if seen[sa.Addr.String()] {
			t.Errorf("duplicate address %s", sa.Addr)
		}
		seen[sa.Addr.String()] = true
		if sa.Old {
			oldCount++
		}
		if sa.Family == topology.IPv4 && !sa.Addr.Is4() {
			t.Errorf("%s.root v4 address %s is not IPv4", sa.Letter, sa.Addr)
		}
		if sa.Family == topology.IPv6 && !sa.Addr.Is6() {
			t.Errorf("%s.root v6 address %s is not IPv6", sa.Letter, sa.Addr)
		}
	}
	if oldCount != 2 {
		t.Errorf("old address count = %d, want 2", oldCount)
	}
	if got := Addr("b", topology.IPv4, true).String(); got != OldBv4 {
		t.Errorf("old b v4 = %s", got)
	}
	if got := Addr("b", topology.IPv4, false).String(); got != "170.247.170.2" {
		t.Errorf("new b v4 = %s", got)
	}
}

func TestIATAOnly(t *testing.T) {
	for _, l := range []Letter{"a", "c", "e", "j"} {
		if !IATAOnly(l) {
			t.Errorf("%s should be IATA-only", l)
		}
	}
	for _, l := range []Letter{"b", "d", "f", "g", "h", "i", "k", "l", "m"} {
		if IATAOnly(l) {
			t.Errorf("%s should not be IATA-only", l)
		}
	}
}

func smallTopo() *topology.Topology {
	cfg := topology.Config{
		Seed: 3,
		StubsPerRegion: map[geo.Region]int{
			geo.Africa: 5, geo.Asia: 10, geo.Europe: 40,
			geo.NorthAmerica: 20, geo.SouthAmerica: 6, geo.Oceania: 6,
		},
		Tier2PerRegion: map[geo.Region]int{
			geo.Africa: 2, geo.Asia: 3, geo.Europe: 6,
			geo.NorthAmerica: 4, geo.SouthAmerica: 2, geo.Oceania: 2,
		},
	}
	return topology.Build(cfg)
}

func TestBuildSystem(t *testing.T) {
	sys := Build(smallTopo(), 11)
	if len(sys.Deployments) != 13 {
		t.Fatalf("deployments = %d", len(sys.Deployments))
	}
	for _, l := range Letters() {
		d := sys.Deployments[l]
		wantG, wantL := TotalSites(l)
		var g, loc int
		for _, s := range d.Sites {
			if s.Kind == anycast.Global {
				g++
			} else {
				loc++
			}
			if s.HostASN == 0 {
				t.Errorf("%s site %s has no host AS", l, s.ID)
			}
			if s.Facility == "" {
				t.Errorf("%s site %s has no facility", l, s.ID)
			}
		}
		if g != wantG || loc != wantL {
			t.Errorf("%s.root placed %d/%d sites, want %d/%d", l, g, loc, wantG, wantL)
		}
		if d.InstabilityV4 <= 0 || d.InstabilityV6 <= 0 {
			t.Errorf("%s.root instability unset", l)
		}
	}
	// g, c, h flappier on IPv6, per the paper.
	for _, l := range []Letter{"c", "g", "h"} {
		d := sys.Deployments[l]
		if d.InstabilityV6 <= d.InstabilityV4*1.5 {
			t.Errorf("%s.root v6 instability %.4f not clearly above v4 %.4f",
				l, d.InstabilityV6, d.InstabilityV4)
		}
	}
	// b.root must be the most stable deployment.
	for _, l := range Letters() {
		if l == "b" {
			continue
		}
		if sys.Deployments[l].InstabilityV4 < sys.Deployments["b"].InstabilityV4 {
			t.Errorf("%s.root more stable than b.root", l)
		}
	}
}

func TestBuildDeterministic(t *testing.T) {
	topo := smallTopo()
	a := Build(topo, 11)
	b := Build(topo, 11)
	for _, l := range Letters() {
		sa, sb := a.Deployments[l].Sites, b.Deployments[l].Sites
		if len(sa) != len(sb) {
			t.Fatalf("%s: site counts differ", l)
		}
		for i := range sa {
			if sa[i] != sb[i] {
				t.Fatalf("%s site %d differs: %+v vs %+v", l, i, sa[i], sb[i])
			}
		}
	}
}

func TestIdentifierConventions(t *testing.T) {
	sys := Build(smallTopo(), 11)
	// IATA-only letters report 3-letter metro codes.
	for _, s := range sys.Deployments["a"].Sites {
		if len(s.Identifier) != 3 {
			t.Errorf("a.root identifier %q is not a metro code", s.Identifier)
		}
	}
	// j.root has unmappable identifiers among local sites.
	unmappable := 0
	for _, s := range sys.Deployments["j"].Sites {
		if !IdentifierMappable("j", s.Identifier) {
			unmappable++
		}
	}
	if unmappable == 0 {
		t.Error("j.root has no unmappable identifiers")
	}
	// b.root identifiers map.
	for _, s := range sys.Deployments["b"].Sites {
		if !IdentifierMappable("b", s.Identifier) {
			t.Errorf("b.root identifier %q unmappable", s.Identifier)
		}
	}
}

func TestCatchmentsComplete(t *testing.T) {
	sys := Build(smallTopo(), 11)
	catch := sys.Catchments()
	if len(catch) != 13 {
		t.Fatalf("catchments for %d letters", len(catch))
	}
	stubs := sys.Topo.StubASNs(nil)
	for _, l := range []Letter{"b", "f", "l"} {
		c4 := catch[l][topology.IPv4]
		reached := 0
		for _, asn := range stubs {
			if c4.Choices(asn, 1).Routes.Len() > 0 {
				reached++
			}
		}
		if reached*100 < len(stubs)*95 {
			t.Errorf("%s.root IPv4 catchment covers %d/%d stubs", l, reached, len(stubs))
		}
	}
}

func TestColocationEmerges(t *testing.T) {
	sys := Build(smallTopo(), 11)
	// Count facilities hosting >= 2 distinct letters: with 13 deployments
	// preferring the same exchanges, this must be common.
	lettersAt := make(map[string]map[Letter]bool)
	for _, l := range Letters() {
		for _, s := range sys.Deployments[l].Sites {
			if lettersAt[s.Facility] == nil {
				lettersAt[s.Facility] = make(map[Letter]bool)
			}
			lettersAt[s.Facility][l] = true
		}
	}
	shared, maxShared := 0, 0
	for _, ls := range lettersAt {
		if len(ls) >= 2 {
			shared++
		}
		if len(ls) > maxShared {
			maxShared = len(ls)
		}
	}
	if shared < 10 {
		t.Errorf("only %d facilities host >= 2 letters", shared)
	}
	// On the small test topology the busiest exchange hosts fewer letters
	// than the full build; the paper's "up to 12 co-located servers" is a
	// client-side observation checked in the analysis tests.
	if maxShared < 5 {
		t.Errorf("max letters per facility = %d, want >= 5", maxShared)
	}
}

// TestSlotsAreDense: the 28 service addresses take the 28 slots, once each,
// whatever their Addr; a current address's slot halves to its letter; and
// anything outside the list has none.
func TestSlotsAreDense(t *testing.T) {
	all := AllServiceAddrs()
	if len(all) != Slots {
		t.Fatalf("%d service addresses, Slots = %d", len(all), Slots)
	}
	taken := make([]bool, Slots)
	for _, a := range all {
		slot, ok := a.Slot()
		if !ok || slot < 0 || slot >= Slots || taken[slot] {
			t.Fatalf("%+v: slot %d, ok %v, taken %v", a, slot, ok, ok && taken[slot])
		}
		taken[slot] = true
		if !a.Old && (slot >= 2*len(Letters()) || slot/2 != a.Letter.Index() || slot%2 != int(a.Family)) {
			t.Errorf("%+v: slot %d is not 2·letter + family", a, slot)
		}
		bare := ServiceAddr{Letter: a.Letter, Family: a.Family, Old: a.Old}
		if got, _ := bare.Slot(); got != slot {
			t.Errorf("%+v: slot %d without its address, %d with", a, got, slot)
		}
	}
	for _, a := range []ServiceAddr{
		{Letter: "", Family: topology.IPv4},
		{Letter: "n", Family: topology.IPv4},
		{Letter: "A", Family: topology.IPv6},
		{Letter: "ab", Family: topology.IPv4},
		{Letter: "a", Family: 2},
		{Letter: "a", Family: -1},
		{Letter: "a", Family: topology.IPv4, Old: true},
		{Letter: "m", Family: topology.IPv6, Old: true},
	} {
		if slot, ok := a.Slot(); ok {
			t.Errorf("%+v, which the battery never probes, has slot %d", a, slot)
		}
	}
}
