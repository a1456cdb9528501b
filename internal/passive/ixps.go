package passive

import (
	"fmt"
	"io"
	"sort"
	"time"

	"repro/internal/geo"
	"repro/internal/topology"
)

// IXPSite is one of the 14 exchanges of the IXP-DNS-1 dataset: a passive
// vantage with its own resolver population, sized by the exchange's scale.
type IXPSite struct {
	Name   string
	Region geo.Region
	Model  *Model
}

// MultiIXP is the 14-exchange passive platform (paper §4.1: IXPs in Europe
// and North America).
type MultiIXP struct {
	Sites []IXPSite
}

// ixpCatalog names the modeled exchanges with a relative size factor
// (member traffic scale). Names are descriptive of the metro, not of any
// specific operator.
var ixpCatalog = []struct {
	name   string
	region geo.Region
	size   float64
}{
	{"IX-FRA", geo.Europe, 3.0},
	{"IX-AMS", geo.Europe, 2.6},
	{"IX-LHR", geo.Europe, 2.2},
	{"IX-CDG", geo.Europe, 1.2},
	{"IX-WAW", geo.Europe, 0.7},
	{"IX-MAD", geo.Europe, 0.6},
	{"IX-ARN", geo.Europe, 0.6},
	{"IX-VIE", geo.Europe, 0.5},
	{"IX-PRG", geo.Europe, 0.4},
	{"IX-JFK", geo.NorthAmerica, 1.8},
	{"IX-IAD", geo.NorthAmerica, 1.6},
	{"IX-ORD", geo.NorthAmerica, 1.0},
	{"IX-SEA", geo.NorthAmerica, 0.8},
	{"IX-MIA", geo.NorthAmerica, 0.7},
}

// NewMultiIXP builds all 14 exchange models. baseClients scales the
// population of a size-1.0 exchange.
func NewMultiIXP(baseClients int, seed int64) *MultiIXP {
	m := &MultiIXP{}
	for i, entry := range ixpCatalog {
		var cfg ModelConfig
		if entry.region == geo.Europe {
			cfg = IXPConfigEU(int(float64(baseClients)*entry.size), seed+int64(i))
		} else {
			cfg = IXPConfigNA(int(float64(baseClients)*entry.size), seed+int64(i))
		}
		m.Sites = append(m.Sites, IXPSite{
			Name:   entry.name,
			Region: entry.region,
			Model:  NewModel(cfg),
		})
	}
	return m
}

// RegionShift aggregates the in-family b.root shift over one region's
// exchanges, traffic-weighted.
func (m *MultiIXP) RegionShift(region geo.Region, f topology.Family, start, end time.Time) float64 {
	var newSum, oldSum float64
	for _, site := range m.Sites {
		if site.Region != region {
			continue
		}
		newSum += site.Model.Volume(Target{Letter: "b", Family: f}, start, end)
		oldSum += site.Model.Volume(Target{Letter: "b", Family: f, Old: true}, start, end)
	}
	if newSum+oldSum == 0 {
		return 0
	}
	return newSum / (newSum + oldSum)
}

// WriteDetail renders the per-exchange adoption table (the disaggregated
// form of the paper's Fig. 9), by exchange name.
func (m *MultiIXP) WriteDetail(w io.Writer, f topology.Family, start, end time.Time) {
	fmt.Fprintf(w, "Per-IXP %s b.root adoption (share on new prefix)\n", f)
	sites := append([]IXPSite(nil), m.Sites...)
	sort.Slice(sites, func(i, j int) bool { return sites[i].Name < sites[j].Name })
	for _, s := range sites {
		fmt.Fprintf(w, "  %-8s %-14s %5.1f%%\n", s.Name, s.Region, s.Model.ShiftRatio(f, start, end)*100)
	}
	fmt.Fprintf(w, "  aggregate: Europe %.1f%%, North America %.1f%%\n",
		m.RegionShift(geo.Europe, f, start, end)*100,
		m.RegionShift(geo.NorthAmerica, f, start, end)*100)
}
