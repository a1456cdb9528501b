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
	Cfg        Config
	Topo       *topology.Topology
	System     *rss.System
	Population *vantage.Population
	Control    *anycast.Deployment
}

// New builds the control deployment next to an existing system. The control
// sites deliberately avoid the hub-weighted builder so the deployment is
// not co-located with the letters (as an experimenter's fresh deployment
// would not be).
func New(cfg Config, topo *topology.Topology, sys *rss.System, pop *vantage.Population) *Experiment {
	b := anycast.NewBuilder(topo, cfg.Seed+1000)
	d := &anycast.Deployment{
		Name:          "ctrl",
		InstabilityV4: cfg.Instability,
		InstabilityV6: cfg.Instability,
	}
	for _, region := range geo.Regions() { // in order: each placement draws from b
		d.Sites = append(d.Sites, b.PlaceSites("ctrl", anycast.Global, region, cfg.SitesPerRegion[region])...)
	}
	return &Experiment{Cfg: cfg, Topo: topo, System: sys, Population: pop, Control: d}
}

// Run measures both deployments from every VP for Cfg.Ticks rounds in one
// family and returns the comparison.
func (e *Experiment) Run(letter rss.Letter, f topology.Family) *Result {
	res := &Result{Letter: letter, Family: f}
	ctrlCatch := anycast.ComputeCatchment(e.Topo, e.Control, f)
	letterCatch := anycast.ComputeCatchment(e.Topo, e.System.Deployments[letter], f)

	for _, vp := range e.Population.VPs {
		ctrlChanges, letterChanges := 0, 0
		var prevCtrl, prevLetter string
		for tick := 0; tick < e.Cfg.Ticks; tick++ {
			if r, ok := ctrlCatch.SelectAt(vp.ASN, tick, e.Cfg.Seed, 1); ok {
				if prevCtrl != "" && prevCtrl != r.Origin.SiteID {
					ctrlChanges++
				}
				prevCtrl = r.Origin.SiteID
				if tick == 0 {
					res.ControlRTT = append(res.ControlRTT, geo.RTTms(r.PathKm, r.Hops()*2+2, 0.25))
				}
			}
			if r, ok := letterCatch.SelectAt(vp.ASN, tick, e.Cfg.Seed, 1); ok {
				if prevLetter != "" && prevLetter != r.Origin.SiteID {
					letterChanges++
				}
				prevLetter = r.Origin.SiteID
				if tick == 0 {
					res.LetterRTT = append(res.LetterRTT, geo.RTTms(r.PathKm, r.Hops()*2+2, 0.25))
				}
			}
		}
		if prevCtrl != "" {
			res.ControlChanges = append(res.ControlChanges, float64(ctrlChanges))
		}
		if prevLetter != "" {
			res.LetterChanges = append(res.LetterChanges, float64(letterChanges))
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
