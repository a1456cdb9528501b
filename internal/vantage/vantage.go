// Package vantage models the NLNOG-RING-like vantage point population: 675
// nodes in 523 networks and 62 countries, distributed over regions exactly
// as the paper's Table 3 reports, each homed in a stub AS of the topology,
// with a per-VP clock model (a small number of VPs have skewed clocks, which
// produces the "signature not incepted" rows of Table 2).
package vantage

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/geo"
	"repro/internal/topology"
)

// VP is one vantage point.
type VP struct {
	// ID is the node name, e.g. "node042.ring".
	ID string
	// ASN is the stub AS homing the node.
	ASN int
	// Region and Country locate the node; Country is an index within the
	// region's country set (synthetic ISO-like label).
	Region  geo.Region
	Country string
	// City is the node's metro.
	City geo.City
	// ClockSkew is added to the node's wall clock when validating
	// signatures; badly skewed VPs reproduce the paper's time-related
	// validation errors.
	ClockSkew time.Duration
}

// Now returns the VP's (possibly skewed) view of t.
func (v VP) Now(t time.Time) time.Time { return t.Add(v.ClockSkew) }

// Distribution is a per-region population target, mirroring Table 3.
type Distribution struct {
	VPs       int
	Countries int
	Networks  int
}

// Table3 is the paper's VP distribution.
var Table3 = map[geo.Region]Distribution{
	geo.Africa:       {VPs: 10, Countries: 4, Networks: 9},
	geo.Asia:         {VPs: 52, Countries: 19, Networks: 31},
	geo.Europe:       {VPs: 435, Countries: 29, Networks: 386},
	geo.NorthAmerica: {VPs: 133, Countries: 3, Networks: 94},
	geo.SouthAmerica: {VPs: 13, Countries: 3, Networks: 12},
	geo.Oceania:      {VPs: 32, Countries: 4, Networks: 22},
}

// Config controls population generation.
type Config struct {
	Seed int64
	// Scale divides the Table 3 population (1 = full 675 VPs). Larger
	// values shrink the population proportionally for fast tests.
	Scale int
	// SkewedVPs is how many VPs get a clock skewed far enough to break
	// signature inception checks (the paper found two).
	SkewedVPs int
	// SkewAmount is the skew applied to those VPs (negative = slow clock,
	// which makes fresh signatures appear not-yet-incepted).
	SkewAmount time.Duration
}

// DefaultConfig is the full-paper population.
func DefaultConfig() Config {
	return Config{Seed: 1, Scale: 1, SkewedVPs: 2, SkewAmount: -26 * time.Hour}
}

// Population is the generated VP set.
type Population struct {
	VPs []VP
}

// Generate builds a population matching Table 3 (divided by cfg.Scale) over
// the topology's stub ASes. VPs in the same region may share an AS — the
// paper has 675 nodes in 523 networks — and the AS must be IPv4-routable by
// construction; IPv6 reachability varies per deployment like on the real
// Internet.
func Generate(topo *topology.Topology, cfg Config) *Population {
	if cfg.Scale < 1 {
		cfg.Scale = 1
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	p := &Population{}
	id := 0
	for _, region := range geo.Regions() {
		dist := Table3[region]
		nVPs := max(1, dist.VPs/cfg.Scale)
		nNets := max(1, dist.Networks/cfg.Scale)
		region := region
		stubs := topo.StubASNs(&region)
		if len(stubs) == 0 {
			continue
		}
		if nNets > len(stubs) {
			nNets = len(stubs)
		}
		// Pick the region's networks once, then spread VPs over them:
		// every network gets at least one VP when possible.
		nets := make([]int, len(stubs))
		copy(nets, stubs)
		rng.Shuffle(len(nets), func(i, j int) { nets[i], nets[j] = nets[j], nets[i] })
		nets = nets[:nNets]
		countries := make([]string, dist.Countries)
		for i := range countries {
			countries[i] = fmt.Sprintf("%s%02d", regionCode(region), i+1)
		}
		for i := 0; i < nVPs; i++ {
			asn := nets[i%len(nets)]
			as := topo.ASes[asn]
			id++
			p.VPs = append(p.VPs, VP{
				ID:      fmt.Sprintf("node%03d.ring", id),
				ASN:     asn,
				Region:  region,
				Country: countries[rng.Intn(len(countries))],
				City:    as.City,
			})
		}
	}
	// Clock skew: the first SkewedVPs nodes of a deterministic shuffle.
	order := rng.Perm(len(p.VPs))
	for i := 0; i < cfg.SkewedVPs && i < len(order); i++ {
		p.VPs[order[i]].ClockSkew = cfg.SkewAmount
	}
	return p
}

// regionCode gives a 2-letter prefix for synthetic country labels.
func regionCode(r geo.Region) string {
	switch r {
	case geo.Africa:
		return "AF"
	case geo.Asia:
		return "AS"
	case geo.Europe:
		return "EU"
	case geo.NorthAmerica:
		return "NA"
	case geo.SouthAmerica:
		return "SA"
	case geo.Oceania:
		return "OC"
	}
	return "XX"
}

// ByRegion groups VPs per region.
func (p *Population) ByRegion() map[geo.Region][]VP {
	out := make(map[geo.Region][]VP)
	for _, v := range p.VPs {
		out[v.Region] = append(out[v.Region], v)
	}
	return out
}

// Networks returns the number of distinct ASes hosting VPs.
func (p *Population) Networks() int {
	seen := map[int]bool{}
	for _, v := range p.VPs {
		seen[v.ASN] = true
	}
	return len(seen)
}

// Countries returns the number of distinct country labels.
func (p *Population) Countries() int {
	seen := map[string]bool{}
	for _, v := range p.VPs {
		seen[v.Country] = true
	}
	return len(seen)
}
