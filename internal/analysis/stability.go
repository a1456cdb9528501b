package analysis

import (
	"fmt"
	"io"
	"slices"

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
	// cells is indexed vp·rss.Slots + slot. The constructor is given no
	// population, so the table grows to the largest VP index seen.
	cells []stabCell
}

// stabCell is one (VP, target) pair. Its fields are exported because the
// checkpoint seal encodes it as JSON (see checkpoint.go).
type stabCell struct {
	Last    string `json:"l,omitempty"` // the previously observed site; "" until the pair's first sample
	Changes int    `json:"c,omitempty"` // transitions so far
}

// NewStability creates the accumulator.
func NewStability() *Stability { return &Stability{} }

// growTo returns s extended with zero values to hold at least n elements,
// amortised like append. The per-VP tables grow through it: an index past the
// end is a larger population than seen so far, never a panic.
func growTo[T any](s []T, n int) []T {
	if n <= len(s) {
		return s
	}
	return slices.Grow(s, n-len(s))[:n]
}

// memoWays is how many keys a memo holds: a (VP, target)'s site is one of
// its AS's candidate routes, and an AS keeps at most four (the routing
// rib's cap). The bench replay stream never shows more than four site
// cities for one pair.
const memoWays = 4

// memo remembers the last memoWays distinct keys put into it, each with a
// value; a put past that evicts the oldest.
type memo[K comparable, V any] struct {
	keys [memoWays]K
	vals [memoWays]V
	n    uint8 // keys held
	next uint8 // where the next put goes
}

// get returns the value put with k, if m still holds it.
func (m *memo[K, V]) get(k K) (V, bool) {
	for i := range m.n {
		if m.keys[i] == k {
			return m.vals[i], true
		}
	}
	var zero V
	return zero, false
}

// put remembers k, which m does not hold, with v.
func (m *memo[K, V]) put(k K, v V) {
	m.keys[m.next], m.vals[m.next] = k, v
	m.next = (m.next + 1) % memoWays
	if m.n < memoWays {
		m.n++
	}
}

// HandleProbe implements measure.Handler.
//
//rootlint:hotpath
func (s *Stability) HandleProbe(e measure.ProbeEvent) {
	slot, ok := e.Target.Slot()
	if e.Lost || e.SiteID == "" || !ok || e.VPIdx < 0 {
		return
	}
	s.cells = growTo(s.cells, (e.VPIdx+1)*rss.Slots)
	c := &s.cells[e.VPIdx*rss.Slots+slot]
	if c.Last != "" && c.Last != e.SiteID {
		c.Changes++
	}
	c.Last = e.SiteID
}

// HandleTransfer implements measure.Handler.
//
//rootlint:hotpath
func (s *Stability) HandleTransfer(measure.TransferEvent) {}

// Changes returns the per-VP change counts for one target, in VP order.
func (s *Stability) Changes(letter rss.Letter, family topology.Family, old bool) []float64 {
	slot, ok := rss.ServiceAddr{Letter: letter, Family: family, Old: old}.Slot()
	if !ok {
		return nil
	}
	var out []float64
	for i := slot; i < len(s.cells); i += rss.Slots {
		if s.cells[i].Last != "" {
			out = append(out, float64(s.cells[i].Changes))
		}
	}
	return out
}

// MedianChanges returns the median per-VP change count for one target.
func (s *Stability) MedianChanges(letter rss.Letter, family topology.Family, old bool) float64 {
	return stats.Median(s.Changes(letter, family, old))
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
