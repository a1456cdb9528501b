package analysis

import (
	"fmt"
	"io"
	"slices"

	"repro/internal/geo"
	"repro/internal/measure"
	"repro/internal/rss"
	"repro/internal/stats"
	"repro/internal/topology"
)

// RTT accumulates query round-trip times per (region, letter, family,
// old-b) for the violin/box figures (Figs. 6, 14, 15), plus per-transit-AS
// RTT attribution for the paper's §6 path observations (e.g. AS6939
// carrying IPv6 out of continent).
type RTT struct {
	// samples is indexed region·rss.Slots + slot.
	samples [geo.RegionCount * rss.Slots][]float64
	// carrierCount counts probes through each carrier per region·2 + family,
	// of the totalCount probes seen there.
	carrierCount [geo.RegionCount * 2][len(carriers)]int
	totalCount   [geo.RegionCount * 2]int
}

// carriers are the special transit ASes of the paper's §6.
var carriers = [...]int{topology.ASNOpenV6, topology.ASNCarrierV4}

// NewRTT creates the accumulator.
func NewRTT() *RTT { return &RTT{} }

// HandleProbe implements measure.Handler.
//
//rootlint:hotpath
func (r *RTT) HandleProbe(e measure.ProbeEvent) {
	if e.Lost || e.RTTms <= 0 {
		return
	}
	target := e.Target
	i, ok := cell(e.VP.Region, target)
	if !ok {
		return
	}
	r.samples[i] = append(r.samples[i], e.RTTms)

	fam := int(e.VP.Region)*2 + int(target.Family)
	r.totalCount[fam]++
	for c, carrier := range carriers {
		for _, asn := range e.ASPath {
			if asn == carrier {
				r.carrierCount[fam][c]++
				break
			}
		}
	}
}

// HandleTransfer implements measure.Handler.
//
//rootlint:hotpath
func (r *RTT) HandleTransfer(measure.TransferEvent) {}

// cell returns the table index of (region, target), false for a region or
// target outside the tables.
func cell(region geo.Region, target rss.ServiceAddr) (int, bool) {
	slot, ok := target.Slot()
	if !ok || uint(region) >= uint(geo.RegionCount) {
		return 0, false
	}
	return int(region)*rss.Slots + slot, true
}

// Samples returns the RTT samples for one cell.
func (r *RTT) Samples(region geo.Region, l rss.Letter, f topology.Family, old bool) []float64 {
	i, ok := cell(region, rss.ServiceAddr{Letter: l, Family: f, Old: old})
	if !ok {
		return nil
	}
	return r.samples[i]
}

// Summary summarizes one cell.
func (r *RTT) Summary(region geo.Region, l rss.Letter, f topology.Family, old bool) stats.Summary {
	return stats.Summarize(r.Samples(region, l, f, old))
}

// CarrierShare returns the fraction of probes in (region, family) whose
// path traverses the carrier AS.
func (r *RTT) CarrierShare(region geo.Region, f topology.Family, carrier int) float64 {
	c := slices.Index(carriers[:], carrier)
	if c < 0 || uint(region) >= uint(geo.RegionCount) || uint(f) > 1 {
		return 0
	}
	fam := int(region)*2 + int(f)
	if r.totalCount[fam] == 0 {
		return 0
	}
	return float64(r.carrierCount[fam][c]) / float64(r.totalCount[fam])
}

// WriteFigure6 renders the RTT violins for the four regions of Fig. 6;
// WriteFigure14 renders all six (Figs. 14/15 include Asia and Oceania).
func (r *RTT) WriteFigure6(w io.Writer) {
	r.writeRegions(w, "Figure 6: RTTs of requests by continent",
		[]geo.Region{geo.Africa, geo.SouthAmerica, geo.NorthAmerica, geo.Europe})
}

// WriteFigure14 renders all six regions (Figs. 14 and 15).
func (r *RTT) WriteFigure14(w io.Writer) {
	r.writeRegions(w, "Figures 14/15: RTTs of requests by continent (all regions)",
		geo.Regions())
}

func (r *RTT) writeRegions(w io.Writer, title string, regions []geo.Region) {
	fmt.Fprintln(w, title)
	for _, region := range regions {
		fmt.Fprintf(w, "-- %s --\n", region)
		fmt.Fprintln(w, "target             fam   n     mean    sd     p25    p50    p75")
		for _, l := range rss.Letters() {
			for _, f := range topology.Families() {
				variants := []string{""} // indexed by old
				if l == "b" {
					variants = []string{" (new)", " (old)"}
				}
				for i, suffix := range variants {
					s := r.Summary(region, l, f, i == 1)
					if s.N == 0 {
						continue
					}
					fmt.Fprintf(w, "%-18s %-4s %5d %7.1f %6.1f %6.1f %6.1f %6.1f\n",
						string(l)+".root"+suffix, f, s.N, s.Mean, s.StdDev, s.P25, s.P50, s.P75)
				}
			}
		}
	}
}

// WriteSection6Callouts renders the per-letter regional IPv4-vs-IPv6 mean
// RTT comparisons of the paper's §6 prose (a.root in South America, h.root
// and i.root there, i.root in North America, l.root in Africa), flagging
// which family wins and by how much.
func (r *RTT) WriteSection6Callouts(w io.Writer) {
	fmt.Fprintln(w, "Section 6: per-letter regional IPv4-vs-IPv6 mean RTT")
	callouts := []struct {
		region geo.Region
		letter rss.Letter
	}{
		{geo.SouthAmerica, "a"},
		{geo.SouthAmerica, "h"},
		{geo.SouthAmerica, "i"},
		{geo.NorthAmerica, "i"},
		{geo.Africa, "l"},
	}
	for _, c := range callouts {
		s4 := r.Summary(c.region, c.letter, topology.IPv4, false)
		s6 := r.Summary(c.region, c.letter, topology.IPv6, false)
		if s4.N == 0 || s6.N == 0 {
			fmt.Fprintf(w, "  %-14s %s.root: insufficient samples\n", c.region, c.letter)
			continue
		}
		faster := "IPv4"
		ratio := s6.Mean / s4.Mean
		if s6.Mean < s4.Mean {
			faster = "IPv6"
			ratio = s4.Mean / s6.Mean
		}
		fmt.Fprintf(w, "  %-14s %s.root: v4 %.1f±%.1f ms, v6 %.1f±%.1f ms — %s %.2fx faster\n",
			c.region, c.letter, s4.Mean, s4.StdDev, s6.Mean, s6.StdDev, faster, ratio)
	}
}

// WriteCarrierEffects renders the §6 per-AS observations: carrier share and
// RTT through the special ASes per region and family.
func (r *RTT) WriteCarrierEffects(w io.Writer) {
	fmt.Fprintln(w, "Section 6: transit-carrier effects (AS6939-like open-v6, AS12956-like v4)")
	for _, region := range geo.Regions() {
		for _, f := range topology.Families() {
			for _, carrier := range carriers {
				share := r.CarrierShare(region, f, carrier)
				if share == 0 {
					continue
				}
				fmt.Fprintf(w, "%-14s %s AS%-5d share=%.1f%%\n", region, f, carrier, share*100)
			}
		}
	}
}
