// Package rss models the root server system: the 13 letters with their
// service addresses (including b.root's pre- and post-renumbering
// addresses), per-region global/local site counts taken from the paper's
// Table 4 ground truth, per-letter identifier conventions (several letters
// report only IATA metro codes), per-letter route-stability parameters
// calibrated to the paper's Fig. 3, and per-site zone copies with the
// staleness faults Table 2 observes.
package rss

import (
	"fmt"
	"net/netip"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/anycast"
	"repro/internal/geo"
	"repro/internal/topology"
)

// Letter identifies one root server deployment, "a" through "m".
type Letter string

// Letters returns all 13 letters in order.
func Letters() []Letter {
	out := make([]Letter, 13)
	for i := 0; i < 13; i++ {
		out[i] = Letter(string(rune('a' + i)))
	}
	return out
}

// Index returns 0 for "a" … 12 for "m".
func (l Letter) Index() int { return int(l[0] - 'a') }

// regionSites is a (global, local) site-count pair.
type regionSites struct{ Global, Local int }

// siteCounts carries the paper's Table 4: per letter, per region, the number
// of global and local sites as published by root-servers.org at study time.
var siteCounts = map[Letter]map[geo.Region]regionSites{
	"a": {geo.Asia: {6, 2}, geo.Europe: {12, 7}, geo.NorthAmerica: {13, 14}},
	"b": {geo.Asia: {1, 0}, geo.Europe: {1, 0}, geo.NorthAmerica: {3, 0}, geo.SouthAmerica: {1, 0}},
	"c": {geo.Asia: {2, 0}, geo.Europe: {4, 0}, geo.NorthAmerica: {5, 0}, geo.SouthAmerica: {1, 0}},
	"d": {geo.Africa: {0, 42}, geo.Asia: {2, 39}, geo.Europe: {9, 39}, geo.NorthAmerica: {12, 49},
		geo.SouthAmerica: {0, 12}, geo.Oceania: {0, 4}},
	"e": {geo.Africa: {0, 43}, geo.Asia: {8, 34}, geo.Europe: {33, 22}, geo.NorthAmerica: {45, 30},
		geo.SouthAmerica: {5, 13}, geo.Oceania: {6, 4}},
	"f": {geo.Africa: {3, 25}, geo.Asia: {13, 84}, geo.Europe: {46, 26}, geo.NorthAmerica: {54, 34},
		geo.SouthAmerica: {4, 40}, geo.Oceania: {9, 7}},
	"g": {geo.Asia: {1, 0}, geo.Europe: {2, 0}, geo.NorthAmerica: {3, 0}},
	"h": {geo.Africa: {1, 0}, geo.Asia: {3, 0}, geo.Europe: {2, 0}, geo.NorthAmerica: {4, 0},
		geo.SouthAmerica: {1, 0}, geo.Oceania: {1, 0}},
	"i": {geo.Africa: {3, 0}, geo.Asia: {24, 0}, geo.Europe: {25, 0}, geo.NorthAmerica: {16, 0},
		geo.SouthAmerica: {10, 0}, geo.Oceania: {3, 0}},
	"j": {geo.Africa: {0, 8}, geo.Asia: {16, 11}, geo.Europe: {18, 34}, geo.NorthAmerica: {20, 24},
		geo.SouthAmerica: {4, 6}, geo.Oceania: {3, 2}},
	"k": {geo.Africa: {2, 0}, geo.Asia: {34, 9}, geo.Europe: {44, 2}, geo.NorthAmerica: {17, 0},
		geo.SouthAmerica: {6, 0}, geo.Oceania: {2, 0}},
	"l": {geo.Africa: {11, 0}, geo.Asia: {25, 0}, geo.Europe: {33, 0}, geo.NorthAmerica: {22, 0},
		geo.SouthAmerica: {23, 0}, geo.Oceania: {18, 0}},
	"m": {geo.Asia: {5, 7}, geo.Europe: {1, 0}, geo.NorthAmerica: {1, 0}, geo.Oceania: {0, 2}},
}

// SiteCount returns the published (global, local) site counts for letter in
// region.
func SiteCount(l Letter, r geo.Region) (global, local int) {
	rs := siteCounts[l][r]
	return rs.Global, rs.Local
}

// TotalSites returns the letter's worldwide (global, local) counts, summed
// over regions.
//
//rootlint:allow deadcode: the published totals analysis.TestCoverageAccumulates holds Table 1's rows to
func TotalSites(l Letter) (global, local int) {
	for _, rs := range siteCounts[l] {
		global += rs.Global
		local += rs.Local
	}
	return global, local
}

// iataOnlyLetters report only IATA metro codes in their node names, making
// sites in the same metro indistinguishable (paper §4.2 footnote 2).
var iataOnlyLetters = map[Letter]bool{"a": true, "c": true, "e": true, "j": true}

// IATAOnly reports whether the letter's identifiers carry only metro codes.
func IATAOnly(l Letter) bool { return iataOnlyLetters[l] }

// Instability holds the per-letter, per-family route-flap probabilities per
// measurement interval. The values are calibrated so a full-length campaign
// (~8,350 intervals) yields medians in the neighborhood of the paper's
// Fig. 3: b.root ≈ 8 changes on both families; g.root ≈ 36 (v4) and 64 (v6);
// {c,g,h} show elevated IPv6 flap rates.
var instability = map[Letter][2]float64{
	//        v4       v6
	"a": {0.0020, 0.0025},
	"b": {0.0007, 0.0007},
	"c": {0.0030, 0.0060},
	"d": {0.0025, 0.0028},
	"e": {0.0030, 0.0033},
	"f": {0.0035, 0.0038},
	"g": {0.0043, 0.0088},
	"h": {0.0028, 0.0055},
	"i": {0.0030, 0.0034},
	"j": {0.0032, 0.0035},
	"k": {0.0028, 0.0031},
	"l": {0.0026, 0.0029},
	"m": {0.0022, 0.0026},
}

// ServiceAddr is one letter's service address in one family.
type ServiceAddr struct {
	Letter Letter
	Family topology.Family
	Addr   netip.Addr
	// Old marks b.root's pre-renumbering addresses.
	Old bool
}

// Slots is the number of service addresses the battery probes, and the
// length of a table indexed by ServiceAddr.Slot.
const Slots = 28

// Slot returns the address's dense ordinal over AllServiceAddrs, whatever its
// Addr: 2·letter + family for the 26 current addresses (so a slot below 26
// halves to its letter's index), then b.root's old pair. An address outside
// that list — a letter other than a–m, an unknown family, Old on any letter
// but b — has no slot: ok is false and the caller skips the event.
func (s ServiceAddr) Slot() (slot int, ok bool) {
	if len(s.Letter) != 1 || s.Letter[0] < 'a' || s.Letter[0] > 'm' || uint(s.Family) > 1 {
		return 0, false
	}
	if s.Old {
		return Slots - 2 + int(s.Family), s.Letter == "b"
	}
	return 2*s.Letter.Index() + int(s.Family), true
}

// keys holds each target's compact key by slot, built once: the flight log
// reads one per event.
var keys = func() (keys [Slots]string) {
	for _, t := range AllServiceAddrs() {
		key := string(t.Letter) + "4"
		if t.Family == topology.IPv6 {
			key = string(t.Letter) + "6"
		}
		if t.Old {
			key += "o"
		}
		slot, _ := t.Slot()
		keys[slot] = key
	}
	return keys
}()

// Key is the target's compact key — letter, family and era, whatever the
// address: "b4o" is b.root's old IPv4 target. A target outside
// AllServiceAddrs gets "".
func (s ServiceAddr) Key() string {
	if slot, ok := s.Slot(); ok {
		return keys[slot]
	}
	return ""
}

// v4Addrs are the IPv4 service addresses (b.root listed new, then old).
var v4Addrs = map[Letter]string{
	"a": "198.41.0.4", "b": "170.247.170.2", "c": "192.33.4.12",
	"d": "199.7.91.13", "e": "192.203.230.10", "f": "192.5.5.241",
	"g": "192.112.36.4", "h": "198.97.190.53", "i": "192.36.148.17",
	"j": "192.58.128.30", "k": "193.0.14.129", "l": "199.7.83.42",
	"m": "202.12.27.33",
}

var v6Addrs = map[Letter]string{
	"a": "2001:503:ba3e::2:30", "b": "2801:1b8:10::b", "c": "2001:500:2::c",
	"d": "2001:500:2d::d", "e": "2001:500:a8::e", "f": "2001:500:2f::f",
	"g": "2001:500:12::d0d", "h": "2001:500:1::53", "i": "2001:7fe::53",
	"j": "2001:503:c27::2:30", "k": "2001:7fd::1", "l": "2001:500:9f::42",
	"m": "2001:dc3::35",
}

// b.root's pre-renumbering addresses; the change happened 2023-11-27.
const (
	OldBv4 = "199.9.14.201"
	OldBv6 = "2001:500:200::b"
)

// Addr returns the letter's service address for family f. For b.root, old
// selects the pre-renumbering address.
func Addr(l Letter, f topology.Family, old bool) netip.Addr {
	if l == "b" && old {
		if f == topology.IPv4 {
			return netip.MustParseAddr(OldBv4)
		}
		return netip.MustParseAddr(OldBv6)
	}
	if f == topology.IPv4 {
		return netip.MustParseAddr(v4Addrs[l])
	}
	return netip.MustParseAddr(v6Addrs[l])
}

// AllServiceAddrs lists every address the measurement battery probes: 13
// letters × 2 families, plus b.root's old pair — the paper's 28 targets.
func AllServiceAddrs() []ServiceAddr {
	var out []ServiceAddr
	for _, l := range Letters() {
		for _, f := range topology.Families() {
			out = append(out, ServiceAddr{Letter: l, Family: f, Addr: Addr(l, f, false)})
			if l == "b" {
				out = append(out, ServiceAddr{Letter: l, Family: f, Addr: Addr(l, f, true), Old: true})
			}
		}
	}
	return out
}

// System is the full modeled root server system: 13 deployments placed on a
// topology.
type System struct {
	Topo        *topology.Topology
	Deployments map[Letter]*anycast.Deployment
	Builder     *anycast.Builder
}

// Build places all 13 deployments on topo with the paper's site counts.
func Build(topo *topology.Topology, seed int64) *System {
	b := anycast.NewBuilder(topo, seed)
	sys := &System{
		Topo:        topo,
		Deployments: make(map[Letter]*anycast.Deployment, 13),
		Builder:     b,
	}
	for _, l := range Letters() {
		d := &anycast.Deployment{
			Name:          string(l),
			InstabilityV4: instability[l][0],
			InstabilityV6: instability[l][1],
		}
		for _, region := range geo.Regions() {
			g, loc := SiteCount(l, region)
			d.Sites = append(d.Sites, b.PlaceSites(string(l), anycast.Global, region, g)...)
			d.Sites = append(d.Sites, b.PlaceSites(string(l), anycast.Local, region, loc)...)
		}
		// Identifier conventions: IATA-only letters report just the metro
		// code; a slice of j.root sites reports unmappable opaque IDs
		// (the paper could not map 75 identifiers, most from j.root).
		for i := range d.Sites {
			s := &d.Sites[i]
			switch {
			case l == "j" && s.Kind == anycast.Local && i%2 == 0:
				s.Identifier = fmt.Sprintf("opaque-%s-%03d", l, i)
			case IATAOnly(l):
				s.Identifier = strings.ToLower(s.City.IATA)
			}
		}
		sys.Deployments[l] = d
	}
	return sys
}

// Catchments describes the catchment of every deployment in both families,
// keyed by letter then family. No routing table is resolved: each is
// computed on its first use, or up front by ResolveCatchments.
func (s *System) Catchments() map[Letter]map[topology.Family]*anycast.Catchment {
	out := make(map[Letter]map[topology.Family]*anycast.Catchment, len(s.Deployments))
	for _, l := range Letters() {
		out[l] = make(map[topology.Family]*anycast.Catchment, 2)
		for _, f := range topology.Families() {
			out[l][f] = anycast.NewCatchment(s.Topo, s.Deployments[l], f)
		}
	}
	return out
}

// ResolveCatchments resolves every catchment of cs, all over s's topology,
// on workers goroutines; at 1 (or less) it resolves them inline, on the
// caller's. Each goroutine keeps one topology.Router for the tables it
// computes, and each table lands in its own catchment whichever goroutine
// computed it, so the result is the same at any count.
func (s *System) ResolveCatchments(cs map[Letter]map[topology.Family]*anycast.Catchment, workers int) {
	letters, fams := Letters(), topology.Families()
	n := len(letters) * len(fams)
	var next atomic.Int64
	work := func() {
		r := s.Topo.NewRouter()
		for i := int(next.Add(1) - 1); i < n; i = int(next.Add(1) - 1) {
			cs[letters[i/len(fams)]][fams[i%len(fams)]].Resolve(r)
		}
	}
	if workers = min(workers, n); workers <= 1 {
		work()
		return
	}
	var wg sync.WaitGroup
	for range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work()
		}()
	}
	wg.Wait()
}

// IdentifierMappable reports whether the identifier reported by a site of
// letter l can be mapped back to a published instance (paper §4.2: 1,469 of
// 1,604 identifiers mapped; unmappable ones are mostly from j.root).
func IdentifierMappable(l Letter, identifier string) bool {
	return len(identifier) < 7 || identifier[:6] != "opaque"
}
