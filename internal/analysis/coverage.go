// Package analysis implements the paper's analyses over campaign events and
// passive models: site coverage (Tables 1 and 4), site stability (Fig. 3),
// server co-location (Fig. 4, §5), route inflation (Fig. 5), RTT by region
// (Figs. 6, 14, 15), traffic around the b.root change (Figs. 7-9, 12, 13),
// and the zone-transfer integrity taxonomy (Table 2, Fig. 10).
package analysis

import (
	"fmt"
	"io"
	"strings"

	"repro/internal/anycast"
	"repro/internal/geo"
	"repro/internal/measure"
	"repro/internal/rss"
)

// Coverage accumulates which sites the campaign observed per letter, and
// compares against the published ground truth (Tables 1 and 4).
type Coverage struct {
	System *rss.System
	// observedIdentifiers[letter] is the set of identifiers seen in
	// hostname.bind/id.server answers.
	observedIdentifiers map[rss.Letter]map[string]bool
}

// NewCoverage creates a coverage accumulator for the system under study.
func NewCoverage(sys *rss.System) *Coverage {
	return &Coverage{
		System:              sys,
		observedIdentifiers: make(map[rss.Letter]map[string]bool),
	}
}

// HandleProbe implements measure.Handler.
//
//rootlint:hotpath
func (c *Coverage) HandleProbe(e measure.ProbeEvent) {
	if e.Lost || e.Identifier == "" {
		return
	}
	set := c.observedIdentifiers[e.Target.Letter]
	if set == nil {
		//rootlint:allow hotpath: once per letter, thirteen times a run
		set = make(map[string]bool)
		c.observedIdentifiers[e.Target.Letter] = set
	}
	set[e.Identifier] = true
}

// HandleTransfer implements measure.Handler.
//
//rootlint:hotpath
func (c *Coverage) HandleTransfer(measure.TransferEvent) {}

// Row is one coverage table row: published vs covered site counts.
type Row struct {
	Letter                 rss.Letter
	Region                 *geo.Region // nil = worldwide
	GlobalSites, GlobalCov int
	LocalSites, LocalCov   int
}

// TotalSites returns the row's total published sites.
func (r Row) TotalSites() int { return r.GlobalSites + r.LocalSites }

// TotalCov returns the row's total covered sites.
func (r Row) TotalCov() int { return r.GlobalCov + r.LocalCov }

// Pct formats covered/published as a percentage ("-" when none published).
func Pct(cov, total int) string {
	if total == 0 {
		return "-"
	}
	return fmt.Sprintf("%.1f", float64(cov)*100/float64(total))
}

// siteObserved decides whether a site counts as covered: directly when its
// identifier was observed; for IATA-only letters a site is covered when its
// metro code was observed (sites in one metro are indistinguishable,
// paper §4.2 footnote 2).
func (c *Coverage) siteObserved(l rss.Letter, s anycast.Site) bool {
	set := c.observedIdentifiers[l]
	if set == nil {
		return false
	}
	if rss.IATAOnly(l) {
		return set[strings.ToLower(s.City.IATA)]
	}
	return set[s.Identifier]
}

// Table1 returns the worldwide coverage rows, one per letter.
func (c *Coverage) Table1() []Row {
	rows := make([]Row, 0, 13)
	for _, l := range rss.Letters() {
		rows = append(rows, c.row(l, nil))
	}
	return rows
}

// Table4 returns the per-region coverage rows grouped by region, in report
// order.
func (c *Coverage) Table4() map[geo.Region][]Row {
	out := make(map[geo.Region][]Row)
	for _, region := range geo.Regions() {
		region := region
		for _, l := range rss.Letters() {
			out[region] = append(out[region], c.row(l, &region))
		}
	}
	return out
}

func (c *Coverage) row(l rss.Letter, region *geo.Region) Row {
	row := Row{Letter: l, Region: region}
	for _, s := range c.System.Deployments[l].Sites {
		if region != nil && s.City.Region != *region {
			continue
		}
		observed := c.siteObserved(l, s)
		if s.Kind == anycast.Global {
			row.GlobalSites++
			if observed {
				row.GlobalCov++
			}
		} else {
			row.LocalSites++
			if observed {
				row.LocalCov++
			}
		}
	}
	return row
}

// UnmappedIdentifiers counts observed identifiers that map to no published
// site (the paper: 135 of 1,604, 75 from j.root).
func (c *Coverage) UnmappedIdentifiers() map[rss.Letter]int {
	out := make(map[rss.Letter]int)
	for _, l := range rss.Letters() {
		known := make(map[string]bool)
		for _, s := range c.System.Deployments[l].Sites {
			if rss.IATAOnly(l) {
				known[strings.ToLower(s.City.IATA)] = true
			} else {
				known[s.Identifier] = true
			}
		}
		for id := range c.observedIdentifiers[l] {
			if !known[id] || !rss.IdentifierMappable(l, id) {
				out[l]++
			}
		}
	}
	return out
}

// ObservedIdentifiers returns the total distinct identifiers seen.
func (c *Coverage) ObservedIdentifiers() int {
	n := 0
	for _, set := range c.observedIdentifiers {
		n += len(set)
	}
	return n
}

// WriteTable1 renders the worldwide coverage table like the paper's Table 1.
func (c *Coverage) WriteTable1(w io.Writer) {
	fmt.Fprintln(w, "Table 1: Coverage of root sites (worldwide)")
	fmt.Fprintln(w, "Root  #GSites #GCov GCov%   #LSites #LCov LCov%   #Total #TCov TCov%")
	for _, r := range c.Table1() {
		fmt.Fprintf(w, "%-5s %7d %5d %5s   %7d %5d %5s   %6d %5d %5s\n",
			r.Letter, r.GlobalSites, r.GlobalCov, Pct(r.GlobalCov, r.GlobalSites),
			r.LocalSites, r.LocalCov, Pct(r.LocalCov, r.LocalSites),
			r.TotalSites(), r.TotalCov(), Pct(r.TotalCov(), r.TotalSites()))
	}
}

// WriteTable4 renders per-region coverage like the paper's Table 4.
func (c *Coverage) WriteTable4(w io.Writer) {
	fmt.Fprintln(w, "Table 4: Coverage of root sites per region")
	t4 := c.Table4()
	for _, region := range geo.Regions() {
		fmt.Fprintf(w, "-- %s --\n", region)
		fmt.Fprintln(w, "Root  #GSites GCov%  #LSites LCov%  #Total TCov%")
		for _, r := range t4[region] {
			fmt.Fprintf(w, "%-5s %7d %5s  %7d %5s  %6d %5s\n",
				r.Letter, r.GlobalSites, Pct(r.GlobalCov, r.GlobalSites),
				r.LocalSites, Pct(r.LocalCov, r.LocalSites),
				r.TotalSites(), Pct(r.TotalCov(), r.TotalSites()))
		}
	}
}

// WriteValidation renders the §4.2 dataset-validation summary: how many
// distinct identifiers were observed, how many map to published instances,
// and where the unmappable ones concentrate (the paper: 1,469 of 1,604
// mapped; 75 of the 135 unmapped from j.root).
func (c *Coverage) WriteValidation(w io.Writer) {
	unmapped := c.UnmappedIdentifiers()
	totalUnmapped := 0
	worst := rss.Letter("")
	worstN := -1
	for _, l := range rss.Letters() {
		totalUnmapped += unmapped[l]
		if unmapped[l] > worstN {
			worst, worstN = l, unmapped[l]
		}
	}
	observed := c.ObservedIdentifiers()
	fmt.Fprintln(w, "Section 4.2: identifier-to-instance mapping")
	fmt.Fprintf(w, "  observed identifiers: %d, mapped: %d, unmapped: %d\n",
		observed, observed-totalUnmapped, totalUnmapped)
	if worstN > 0 {
		fmt.Fprintf(w, "  unmapped concentrate in %s.root (%d of %d)\n",
			worst, worstN, totalUnmapped)
	}
}

// Figure11 counts, per letter, the observed and unobserved sites (the
// textual form of the paper's coverage maps).
func (c *Coverage) Figure11(w io.Writer) {
	fmt.Fprintln(w, "Figure 11: per-letter site coverage (o = observed, x = not observed)")
	for _, l := range rss.Letters() {
		sites, observed := c.System.Deployments[l].Sites, 0
		for _, s := range sites {
			if c.siteObserved(l, s) {
				observed++
			}
		}
		fmt.Fprintf(w, "%s.root: %d observed, %d not observed\n", l, observed, len(sites)-observed)
	}
}
