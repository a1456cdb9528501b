package analysis

// The map-keyed accumulators as they stood before the dense tables replaced
// them, kept as the reference the rewrite is compared against
// (TestDenseAccumulatorsMatchReference): same events in, same bytes out of
// every writer, equal results from every accessor. Only the type names
// changed (ref prefix); nothing here is reachable from non-test code.

import (
	"fmt"
	"io"
	"math"

	"repro/internal/anycast"
	"repro/internal/geo"
	"repro/internal/measure"
	"repro/internal/rss"
	"repro/internal/stats"
	"repro/internal/topology"
	"repro/internal/vantage"
)

// refStability counts site-change events per (VP, letter, family): two
// subsequent measurements on the same VP reaching different sites (Fig. 3,
// §4.2). b.root's old/new targets are tracked separately, like the paper's
// IPv4old/IPv4new/IPv6old/IPv6new curves.
type refStability struct {
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

// newRefStability creates the accumulator.
func newRefStability() *refStability {
	return &refStability{
		last:    make(map[stabKey]string),
		changes: make(map[stabKey]int),
		seen:    make(map[stabKey]bool),
	}
}

// HandleProbe implements measure.Handler.
func (s *refStability) HandleProbe(e measure.ProbeEvent) {
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
func (s *refStability) HandleTransfer(measure.TransferEvent) {}

// Changes returns the per-VP change counts for one target.
func (s *refStability) Changes(letter rss.Letter, family topology.Family, old bool) []float64 {
	var out []float64
	for k := range s.seen {
		if k.Letter == letter && k.Family == family && k.Old == old {
			out = append(out, float64(s.changes[k]))
		}
	}
	return out
}

// MedianChanges returns the median per-VP change count for one target.
func (s *refStability) MedianChanges(letter rss.Letter, family topology.Family, old bool) float64 {
	return stats.Median(s.Changes(letter, family, old))
}

// WriteFigure3 renders the paper's Fig. 3: CCDFs for b.root (all four
// address curves) and g.root (both families), plus the §4.2 medians for all
// letters.
func (s *refStability) WriteFigure3(w io.Writer) {
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

// refDistance measures geographic route inflation (Fig. 5): for each request,
// the great-circle distance from the VP to the geographically closest
// *global* site of the deployment versus the distance to the site the
// request actually reached. Requests landing on a closer local site fall
// below the diagonal; requests routed past their closest global site fall
// above it.
type refDistance struct {
	sys *rss.System
	pop *vantage.Population
	// closestGlobal caches the per-(vp, letter) closest global site
	// distance.
	closestGlobal map[distKey]float64

	// Samples per (letter, family): pairs of (closest, actual) distances.
	samples map[sampleKey]*refDistSamples
	// perVP accumulates mean extra distance per VP per letter+family.
	extraSum   map[vpTarget]float64
	extraCount map[vpTarget]int
}

type distKey struct {
	vpIdx  int
	letter rss.Letter
}

type sampleKey struct {
	Letter rss.Letter
	Family topology.Family
}

type vpTarget struct {
	VP     int
	Letter rss.Letter
	Family topology.Family
}

type refDistSamples struct {
	Closest, Actual []float64
}

// newRefDistance creates the accumulator.
func newRefDistance(sys *rss.System, pop *vantage.Population) *refDistance {
	return &refDistance{
		sys:           sys,
		pop:           pop,
		closestGlobal: make(map[distKey]float64),
		samples:       make(map[sampleKey]*refDistSamples),
		extraSum:      make(map[vpTarget]float64),
		extraCount:    make(map[vpTarget]int),
	}
}

// HandleProbe implements measure.Handler.
func (d *refDistance) HandleProbe(e measure.ProbeEvent) {
	if e.Lost || e.SiteID == "" || e.Target.Old {
		return
	}
	ck := distKey{e.VPIdx, e.Target.Letter}
	closest, ok := d.closestGlobal[ck]
	if !ok {
		closest = d.computeClosest(e.VP, e.Target.Letter)
		d.closestGlobal[ck] = closest
	}
	actual := geo.DistanceKm(e.VP.City.Point, e.SiteCity.Point)

	sk := sampleKey{e.Target.Letter, e.Target.Family}
	s := d.samples[sk]
	if s == nil {
		s = &refDistSamples{}
		d.samples[sk] = s
	}
	s.Closest = append(s.Closest, closest)
	s.Actual = append(s.Actual, actual)

	vk := vpTarget{e.VPIdx, e.Target.Letter, e.Target.Family}
	extra := actual - closest
	if extra < 0 {
		extra = 0 // landed on a closer local site
	}
	d.extraSum[vk] += extra
	d.extraCount[vk]++
}

// HandleTransfer implements measure.Handler.
func (d *refDistance) HandleTransfer(measure.TransferEvent) {}

func (d *refDistance) computeClosest(vp *vantage.VP, l rss.Letter) float64 {
	minKm := math.Inf(1)
	for _, s := range d.sys.Deployments[l].Sites {
		if s.Kind != anycast.Global {
			continue
		}
		if km := geo.DistanceKm(vp.City.Point, s.City.Point); km < minKm {
			minKm = km
		}
	}
	return minKm
}

// OptimalShare returns the fraction of requests routed to their closest
// global site or closer (the paper: 78.2%/82.2% for b.root v4/v6, ~80% for
// m.root), using a tolerance of tolKm for "same distance".
func (d *refDistance) OptimalShare(l rss.Letter, f topology.Family, tolKm float64) float64 {
	s := d.samples[sampleKey{l, f}]
	if s == nil || len(s.Actual) == 0 {
		return math.NaN()
	}
	n := 0
	for i := range s.Actual {
		if s.Actual[i] <= s.Closest[i]+tolKm {
			n++
		}
	}
	return float64(n) / float64(len(s.Actual))
}

// ExtraDistancePerVP returns each VP's mean additional distance for the
// target (paper §6: 79.5% of b.root clients under 1,000 km extra; 21.5% up
// to 15,000 km).
func (d *refDistance) ExtraDistancePerVP(l rss.Letter, f topology.Family) []float64 {
	var out []float64
	for vk, sum := range d.extraSum {
		if vk.Letter == l && vk.Family == f && d.extraCount[vk] > 0 {
			out = append(out, sum/float64(d.extraCount[vk]))
		}
	}
	return out
}

// WriteFigure5 renders the Fig. 5 scatter summaries for b.root and m.root.
func (d *refDistance) WriteFigure5(w io.Writer) {
	fmt.Fprintln(w, "Figure 5: distance to closest global site vs actual site")
	for _, sel := range []struct {
		letter rss.Letter
		family topology.Family
		label  string
	}{
		{"b", topology.IPv4, "b.root (new IPv4)"},
		{"b", topology.IPv6, "b.root (new IPv6)"},
		{"m", topology.IPv4, "m.root (IPv4)"},
		{"m", topology.IPv6, "m.root (IPv6)"},
	} {
		share := d.OptimalShare(sel.letter, sel.family, sameDistanceKm)
		extras := d.ExtraDistancePerVP(sel.letter, sel.family)
		under1k := 0
		for _, e := range extras {
			if e < 1000 {
				under1k++
			}
		}
		frac := math.NaN()
		if len(extras) > 0 {
			frac = float64(under1k) / float64(len(extras))
		}
		fmt.Fprintf(w, "%-18s optimal-or-closer=%.1f%%  VPs<1000km extra=%.1f%%  extra-dist %s\n",
			sel.label, share*100, frac*100, stats.Summarize(extras))
	}
}

// refRTT accumulates query round-trip times per (region, letter, family,
// old-b) for the violin/box figures (Figs. 6, 14, 15), plus per-transit-AS
// RTT attribution for the paper's §6 path observations (e.g. AS6939
// carrying IPv6 out of continent).
type refRTT struct {
	samples map[rttKey][]float64
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

type carrierCountKey struct {
	Region  geo.Region
	Family  topology.Family
	Carrier int
}

// newRefRTT creates the accumulator.
func newRefRTT() *refRTT {
	return &refRTT{
		samples:      make(map[rttKey][]float64),
		carrierCount: make(map[carrierCountKey]int),
		totalCount:   make(map[carrierCountKey]int),
	}
}

// HandleProbe implements measure.Handler.
func (r *refRTT) HandleProbe(e measure.ProbeEvent) {
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
				break
			}
		}
	}
}

// HandleTransfer implements measure.Handler.
func (r *refRTT) HandleTransfer(measure.TransferEvent) {}

// Samples returns the RTT samples for one cell.
func (r *refRTT) Samples(region geo.Region, l rss.Letter, f topology.Family, old bool) []float64 {
	return r.samples[rttKey{region, l, f, old}]
}

// Summary summarizes one cell.
func (r *refRTT) Summary(region geo.Region, l rss.Letter, f topology.Family, old bool) stats.Summary {
	return stats.Summarize(r.Samples(region, l, f, old))
}

// CarrierShare returns the fraction of probes in (region, family) whose
// path traverses the carrier AS.
func (r *refRTT) CarrierShare(region geo.Region, f topology.Family, carrier int) float64 {
	ck := carrierCountKey{region, f, carrier}
	if r.totalCount[ck] == 0 {
		return 0
	}
	return float64(r.carrierCount[ck]) / float64(r.totalCount[ck])
}

// WriteFigure6 renders the RTT violins for the four regions of Fig. 6;
// WriteFigure14 renders all six (Figs. 14/15 include Asia and Oceania).
func (r *refRTT) WriteFigure6(w io.Writer) {
	r.writeRegions(w, "Figure 6: RTTs of requests by continent",
		[]geo.Region{geo.Africa, geo.SouthAmerica, geo.NorthAmerica, geo.Europe})
}

// WriteFigure14 renders all six regions (Figs. 14 and 15).
func (r *refRTT) WriteFigure14(w io.Writer) {
	r.writeRegions(w, "Figures 14/15: RTTs of requests by continent (all regions)",
		geo.Regions())
}

func (r *refRTT) writeRegions(w io.Writer, title string, regions []geo.Region) {
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
func (r *refRTT) WriteSection6Callouts(w io.Writer) {
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
func (r *refRTT) WriteCarrierEffects(w io.Writer) {
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

// refColocation quantifies reduced redundancy per VP (Fig. 4, §5): within one
// tick, the VP's 13 probes (one per letter, per family) whose traceroutes
// share a second-to-last hop indicate co-located servers. Reduced redundancy
// = total letters observed − distinct second-to-last hops. Missed hops count
// as unique, making the measure a lower bound like the paper's.
type refColocation struct {
	pop *vantage.Population
	// current accumulates the in-progress tick's second-to-last hops per
	// (vp, family); when a new tick starts for that vp, the previous one is
	// folded into the per-VP series.
	current map[colocKey]*refTickHops
	// series holds the per-tick reduced-redundancy observations per
	// (vp, family). Co-location is a property of the typical routing, so
	// per-VP reporting uses the median over ticks; the campaign-wide
	// maximum backs the "up to N co-located servers" observation.
	series map[colocKey][]float64
}

type colocKey struct {
	VP     int
	Family topology.Family
}

type refTickHops struct {
	Tick    int
	Total   int
	Hops    map[string]bool
	Uniques int // unresponsive hops, each counted unique
}

// newRefColocation creates the accumulator.
func newRefColocation(pop *vantage.Population) *refColocation {
	return &refColocation{
		pop:     pop,
		current: make(map[colocKey]*refTickHops),
		series:  make(map[colocKey][]float64),
	}
}

// HandleProbe implements measure.Handler.
func (c *refColocation) HandleProbe(e measure.ProbeEvent) {
	if e.Lost || e.Target.Old {
		return // 13 letters, one probe each; skip b.root's old duplicate
	}
	if e.SecondToLast == "" && !e.STLOK {
		// The facility edge did not answer the traceroute: the hop counts
		// as unique/absent.
		if e.SiteID == "" {
			return
		}
	}
	k := colocKey{e.VPIdx, e.Target.Family}
	th := c.current[k]
	if th == nil || th.Tick != e.Tick.Index {
		if th != nil {
			c.fold(k, th)
		}
		th = &refTickHops{Tick: e.Tick.Index, Hops: make(map[string]bool)}
		c.current[k] = th
	}
	th.Total++
	if e.STLOK {
		th.Hops[e.SecondToLast] = true
	} else {
		th.Uniques++
	}
}

// HandleTransfer implements measure.Handler.
func (c *refColocation) HandleTransfer(measure.TransferEvent) {}

func (c *refColocation) fold(k colocKey, th *refTickHops) {
	distinct := len(th.Hops) + th.Uniques
	rr := th.Total - distinct
	if rr < 0 {
		rr = 0
	}
	c.series[k] = append(c.series[k], float64(rr))
}

// finish folds any in-progress ticks.
func (c *refColocation) finish() {
	for k, th := range c.current {
		c.fold(k, th)
		delete(c.current, k)
	}
}

// ReducedRedundancy returns the per-VP typical (median-over-ticks) reduced
// redundancy for one family in one region (nil region = all VPs).
func (c *refColocation) ReducedRedundancy(f topology.Family, region *geo.Region) []float64 {
	c.finish()
	var out []float64
	for vpIdx := range c.pop.VPs {
		vp := &c.pop.VPs[vpIdx]
		if region != nil && vp.Region != *region {
			continue
		}
		if s := c.series[colocKey{vpIdx, f}]; len(s) > 0 {
			out = append(out, stats.Median(s))
		}
	}
	return out
}

// ShareWithColocation returns the fraction of VPs whose typical measurement
// observes co-location of at least two servers (reduced redundancy >= 1) in
// either family — the paper's "~70% of clients" headline.
func (c *refColocation) ShareWithColocation() float64 {
	c.finish()
	seen, hit := 0, 0
	for vpIdx := range c.pop.VPs {
		any := false
		found := false
		for _, f := range topology.Families() {
			if s := c.series[colocKey{vpIdx, f}]; len(s) > 0 {
				found = true
				if stats.Median(s) >= 1 {
					any = true
				}
			}
		}
		if found {
			seen++
			if any {
				hit++
			}
		}
	}
	if seen == 0 {
		return 0
	}
	return float64(hit) / float64(seen)
}

// MaxReducedRedundancy returns the largest single-tick value observed
// anywhere (paper: up to 12 co-located servers).
func (c *refColocation) MaxReducedRedundancy() int {
	c.finish()
	maxV := 0.0
	for _, s := range c.series {
		for _, v := range s {
			if v > maxV {
				maxV = v
			}
		}
	}
	return int(maxV)
}

// WriteFigure4 renders the per-continent reduced-redundancy histograms with
// the per-family averages the paper annotates.
func (c *refColocation) WriteFigure4(w io.Writer) {
	fmt.Fprintln(w, "Figure 4: reduced redundancy due to shared last hop, per continent")
	for _, region := range geo.Regions() {
		region := region
		v4 := c.ReducedRedundancy(topology.IPv4, &region)
		v6 := c.ReducedRedundancy(topology.IPv6, &region)
		fmt.Fprintf(w, "-- %s -- avg(v4)=%.2f avg(v6)=%.2f (VPs=%d)\n",
			region, stats.Mean(v4), stats.Mean(v6), len(v4))
		h4 := stats.Histogram(v4, 1, 13)
		h6 := stats.Histogram(v6, 1, 13)
		for rr := 0; rr < 13; rr++ {
			if h4[rr] == 0 && h6[rr] == 0 {
				continue
			}
			fmt.Fprintf(w, "   rr=%2d  v4:%4d  v6:%4d\n", rr, h4[rr], h6[rr])
		}
	}
	fmt.Fprintf(w, "VPs observing co-location of >=2 servers: %.1f%% (max %d of %d)\n",
		c.ShareWithColocation()*100, c.MaxReducedRedundancy(), len(rss.Letters())-1)
}
