// Package control implements the control-group experiment the paper lists
// as an accepted limitation (Appendix E, "Absence of a Control Group"): an
// additional anycast deployment under the experimenter's control, measured
// with the same methodology as the root letters. Comparing the control
// deployment's stability and RTT against a similarly sized root deployment
// separates effects of the root server system from effects of anycast in
// general.
package control

import (
	"fmt"
	"io"

	"repro/internal/anycast"
	"repro/internal/geo"
	"repro/internal/rss"
	"repro/internal/stats"
	"repro/internal/topology"
	"repro/internal/vantage"
)

// Config sizes the control deployment.
type Config struct {
	// GlobalSites per region; the default mirrors a mid-size letter
	// (c.root/h.root scale).
	SitesPerRegion map[geo.Region]int
	// Instability is the per-interval flap probability (both families).
	Instability float64
	// Ticks is the number of synthetic measurement rounds.
	Ticks int
	// Seed drives placement and flaps.
	Seed int64
}

// DefaultConfig mirrors h.root's footprint.
func DefaultConfig() Config {
	return Config{
		SitesPerRegion: map[geo.Region]int{
			geo.Africa: 1, geo.Asia: 3, geo.Europe: 2,
			geo.NorthAmerica: 4, geo.SouthAmerica: 1, geo.Oceania: 1,
		},
		Instability: 0.003,
		Ticks:       200,
		Seed:        7,
	}
}

// Result compares the control deployment against one root letter.
type Result struct {
	// ControlChanges and LetterChanges are per-VP site-change counts.
	ControlChanges, LetterChanges []float64
	// ControlRTT and LetterRTT are per-probe RTT samples (ms).
	ControlRTT, LetterRTT []float64
	// Letter is the compared root letter.
	Letter rss.Letter
	Family topology.Family
}

// Experiment is a runnable control-group comparison.
type Experiment struct {
	Cfg  Config
	Topo *topology.Topology
	// Catchments are the root letters' catchments, keyed by letter then
	// family, as measure.World holds them.
	Catchments map[rss.Letter]map[topology.Family]*anycast.Catchment
	Population *vantage.Population
	Control    *anycast.Deployment
}

// New builds the control deployment next to the root letters' catchments.
// The control sites deliberately avoid the hub-weighted builder so the
// deployment is not co-located with the letters (as an experimenter's fresh
// deployment would not be).
func New(cfg Config, topo *topology.Topology, catchments map[rss.Letter]map[topology.Family]*anycast.Catchment, pop *vantage.Population) *Experiment {
	b := anycast.NewBuilder(topo, cfg.Seed+1000)
	d := &anycast.Deployment{
		Name:          "ctrl",
		InstabilityV4: cfg.Instability,
		InstabilityV6: cfg.Instability,
	}
	for _, region := range geo.Regions() { // in order: each placement draws from b
		d.Sites = append(d.Sites, b.PlaceSites("ctrl", anycast.Global, region, cfg.SitesPerRegion[region])...)
	}
	return &Experiment{Cfg: cfg, Topo: topo, Catchments: catchments, Population: pop, Control: d}
}

// Run measures both deployments from every VP for Cfg.Ticks rounds in one
// family and returns the comparison.
func (e *Experiment) Run(letter rss.Letter, f topology.Family) *Result {
	res := &Result{Letter: letter, Family: f}
	catches := [2]*anycast.Catchment{anycast.ComputeCatchment(e.Topo, e.Control, f), e.Catchments[letter][f]}
	changes := [2]*[]float64{&res.ControlChanges, &res.LetterChanges}
	rtts := [2]*[]float64{&res.ControlRTT, &res.LetterRTT}
	for _, vp := range e.Population.VPs {
		for k, catch := range catches {
			n, prev := 0, ""
			for tick := 0; tick < e.Cfg.Ticks; tick++ {
				if r, ok := catch.SelectAt(vp.ASN, tick, e.Cfg.Seed, 1); ok {
					if prev != "" && prev != r.Origin.SiteID {
						n++
					}
					prev = r.Origin.SiteID
					if tick == 0 {
						*rtts[k] = append(*rtts[k], geo.RTTms(r.PathKm, r.Hops()*2+2, 0.25))
					}
				}
			}
			if prev != "" {
				*changes[k] = append(*changes[k], float64(n))
			}
		}
	}
	return res
}

// Write renders the comparison.
func (r *Result) Write(w io.Writer) {
	fmt.Fprintf(w, "Control group vs %s.root (%s)\n", r.Letter, r.Family)
	fmt.Fprintf(w, "  control: changes %s\n", stats.Summarize(r.ControlChanges))
	fmt.Fprintf(w, "  %s.root: changes %s\n", r.Letter, stats.Summarize(r.LetterChanges))
	fmt.Fprintf(w, "  control: RTT %s\n", stats.Summarize(r.ControlRTT))
	fmt.Fprintf(w, "  %s.root: RTT %s\n", r.Letter, stats.Summarize(r.LetterRTT))
}
