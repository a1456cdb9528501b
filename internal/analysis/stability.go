package analysis

import (
	"fmt"
	"io"

	"repro/internal/measure"
	"repro/internal/rss"
	"repro/internal/stats"
	"repro/internal/topology"
)

// Stability counts site-change events per (VP, letter, family): two
// subsequent measurements on the same VP reaching different sites (Fig. 3,
// §4.2). b.root's old/new targets are tracked separately, like the paper's
// IPv4old/IPv4new/IPv6old/IPv6new curves.
type Stability struct {
	// last[key] is the previously observed site.
	last map[stabKey]string
	// changes[key] counts transitions.
	changes map[stabKey]int
	// seen[key] marks a VP/target pair that produced at least one sample.
	seen map[stabKey]bool
}

// stabKey and the other map keys below carry exported fields because the
// checkpoint seals encode them as JSON (see checkpoint.go).
type stabKey struct {
	VP     int
	Letter rss.Letter
	Family topology.Family
	Old    bool
}

// NewStability creates the accumulator.
func NewStability() *Stability {
	return &Stability{
		last:    make(map[stabKey]string),
		changes: make(map[stabKey]int),
		seen:    make(map[stabKey]bool),
	}
}

// HandleProbe implements measure.Handler.
func (s *Stability) HandleProbe(e measure.ProbeEvent) {
	if e.Lost || e.SiteID == "" {
		return
	}
	k := stabKey{e.VPIdx, e.Target.Letter, e.Target.Family, e.Target.Old}
	s.seen[k] = true
	if prev, ok := s.last[k]; ok && prev != e.SiteID {
		s.changes[k]++
	}
	s.last[k] = e.SiteID
}

// HandleTransfer implements measure.Handler.
func (s *Stability) HandleTransfer(measure.TransferEvent) {}

// Changes returns the per-VP change counts for one target.
func (s *Stability) Changes(letter rss.Letter, family topology.Family, old bool) []float64 {
	var out []float64
	for k := range s.seen {
		if k.Letter == letter && k.Family == family && k.Old == old {
			out = append(out, float64(s.changes[k]))
		}
	}
	return out
}

// MedianChanges returns the median per-VP change count for one target.
func (s *Stability) MedianChanges(letter rss.Letter, family topology.Family, old bool) float64 {
	return stats.Median(s.Changes(letter, family, old))
}

// CCDF returns the complementary CDF of per-VP change counts for the target
// (Fig. 3's "1 - Prop. VPs" curves).
func (s *Stability) CCDF(letter rss.Letter, family topology.Family, old bool) []stats.ECDFPoint {
	return stats.CCDF(s.Changes(letter, family, old))
}

// WriteFigure3 renders the paper's Fig. 3: CCDFs for b.root (all four
// address curves) and g.root (both families), plus the §4.2 medians for all
// letters.
func (s *Stability) WriteFigure3(w io.Writer) {
	fmt.Fprintln(w, "Figure 3: CCDF of site-change events per VP")
	curves := []struct {
		label  string
		letter rss.Letter
		family topology.Family
		old    bool
	}{
		{"b.root IPv4new", "b", topology.IPv4, false},
		{"b.root IPv4old", "b", topology.IPv4, true},
		{"b.root IPv6new", "b", topology.IPv6, false},
		{"b.root IPv6old", "b", topology.IPv6, true},
		{"g.root IPv4", "g", topology.IPv4, false},
		{"g.root IPv6", "g", topology.IPv6, false},
	}
	for _, c := range curves {
		changes := s.Changes(c.letter, c.family, c.old)
		fmt.Fprintf(w, "%-16s median=%.0f p90=%.0f max=%.0f  (VPs=%d)\n",
			c.label, stats.Median(changes), stats.Quantile(changes, 0.9),
			stats.Quantile(changes, 1), len(changes))
		for _, x := range []float64{0, 1, 10, 100} {
			fmt.Fprintf(w, "    P(changes > %4.0f) = %.3f\n", x, stats.CCDFAt(changes, x))
		}
	}
	fmt.Fprintln(w, "Median changes per VP, all letters:")
	fmt.Fprintln(w, "root   IPv4  IPv6")
	for _, l := range rss.Letters() {
		fmt.Fprintf(w, "%-5s %5.0f %5.0f\n", l,
			s.MedianChanges(l, topology.IPv4, false),
			s.MedianChanges(l, topology.IPv6, false))
	}
}
