package analysis

import (
	"fmt"
	"io"

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
	samples map[rttKey][]float64
	// viaCarrier tracks RTTs of probes whose AS path traverses the given
	// special carrier, per (region, letter, family).
	viaCarrier map[rttCarrierKey][]float64
	// carrierCount counts probes through each carrier per (region, family).
	carrierCount map[carrierCountKey]int
	totalCount   map[carrierCountKey]int
}

type rttKey struct {
	Region geo.Region
	Letter rss.Letter
	Family topology.Family
	Old    bool
}

type rttCarrierKey struct {
	Region  geo.Region
	Letter  rss.Letter
	Family  topology.Family
	Carrier int
}

type carrierCountKey struct {
	Region  geo.Region
	Family  topology.Family
	Carrier int
}

// NewRTT creates the accumulator.
func NewRTT() *RTT {
	return &RTT{
		samples:      make(map[rttKey][]float64),
		viaCarrier:   make(map[rttCarrierKey][]float64),
		carrierCount: make(map[carrierCountKey]int),
		totalCount:   make(map[carrierCountKey]int),
	}
}

// HandleProbe implements measure.Handler.
func (r *RTT) HandleProbe(e measure.ProbeEvent) {
	if e.Lost || e.RTTms <= 0 {
		return
	}
	k := rttKey{e.VP.Region, e.Target.Letter, e.Target.Family, e.Target.Old}
	r.samples[k] = append(r.samples[k], e.RTTms)

	for _, carrier := range []int{topology.ASNOpenV6, topology.ASNCarrierV4} {
		ck := carrierCountKey{e.VP.Region, e.Target.Family, carrier}
		r.totalCount[ck]++
		for _, asn := range e.ASPath {
			if asn == carrier {
				r.carrierCount[ck]++
				rk := rttCarrierKey{e.VP.Region, e.Target.Letter, e.Target.Family, carrier}
				r.viaCarrier[rk] = append(r.viaCarrier[rk], e.RTTms)
				break
			}
		}
	}
}

// HandleTransfer implements measure.Handler.
func (r *RTT) HandleTransfer(measure.TransferEvent) {}

// Samples returns the RTT samples for one cell.
func (r *RTT) Samples(region geo.Region, l rss.Letter, f topology.Family, old bool) []float64 {
	return r.samples[rttKey{region, l, f, old}]
}

// Summary summarizes one cell.
func (r *RTT) Summary(region geo.Region, l rss.Letter, f topology.Family, old bool) stats.Summary {
	return stats.Summarize(r.Samples(region, l, f, old))
}

// CarrierShare returns the fraction of probes in (region, family) whose
// path traverses the carrier AS.
func (r *RTT) CarrierShare(region geo.Region, f topology.Family, carrier int) float64 {
	ck := carrierCountKey{region, f, carrier}
	if r.totalCount[ck] == 0 {
		return 0
	}
	return float64(r.carrierCount[ck]) / float64(r.totalCount[ck])
}

// CarrierRTT summarizes RTTs of probes through the carrier for one letter.
func (r *RTT) CarrierRTT(region geo.Region, l rss.Letter, f topology.Family, carrier int) stats.Summary {
	return stats.Summarize(r.viaCarrier[rttCarrierKey{region, l, f, carrier}])
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
				variants := []bool{false}
				if l == "b" {
					variants = []bool{false, true}
				}
				for _, old := range variants {
					s := r.Summary(region, l, f, old)
					if s.N == 0 {
						continue
					}
					label := string(l) + ".root"
					if l == "b" {
						if old {
							label += " (old)"
						} else {
							label += " (new)"
						}
					}
					fmt.Fprintf(w, "%-18s %-4s %5d %7.1f %6.1f %6.1f %6.1f %6.1f\n",
						label, f, s.N, s.Mean, s.StdDev, s.P25, s.P50, s.P75)
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
			for _, carrier := range []int{topology.ASNOpenV6, topology.ASNCarrierV4} {
				share := r.CarrierShare(region, f, carrier)
				if share == 0 {
					continue
				}
				fmt.Fprintf(w, "%-14s %s AS%-5d share=%.1f%%\n", region, f, carrier, share*100)
			}
		}
	}
}
