package analysis

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

// Distance measures geographic route inflation (Fig. 5): for each request,
// the great-circle distance from the VP to the geographically closest
// *global* site of the deployment versus the distance to the site the
// request actually reached. Requests landing on a closer local site fall
// below the diagonal; requests routed past their closest global site fall
// above it.
type Distance struct {
	sys *rss.System
	pop *vantage.Population
	// closestGlobal caches the per-(vp, letter) closest global site
	// distance.
	closestGlobal map[distKey]float64

	// Samples per (letter, family): pairs of (closest, actual) distances.
	samples map[sampleKey]*distSamples
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

type distSamples struct {
	Closest, Actual []float64
}

// NewDistance creates the accumulator.
func NewDistance(sys *rss.System, pop *vantage.Population) *Distance {
	return &Distance{
		sys:           sys,
		pop:           pop,
		closestGlobal: make(map[distKey]float64),
		samples:       make(map[sampleKey]*distSamples),
		extraSum:      make(map[vpTarget]float64),
		extraCount:    make(map[vpTarget]int),
	}
}

// HandleProbe implements measure.Handler.
func (d *Distance) HandleProbe(e measure.ProbeEvent) {
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
		s = &distSamples{}
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
func (d *Distance) HandleTransfer(measure.TransferEvent) {}

func (d *Distance) computeClosest(vp *vantage.VP, l rss.Letter) float64 {
	minKm := math.Inf(1)
	for _, s := range d.sys.Deployments[l].GlobalSites() {
		if km := geo.DistanceKm(vp.City.Point, s.City.Point); km < minKm {
			minKm = km
		}
	}
	return minKm
}

// OptimalShare returns the fraction of requests routed to their closest
// global site or closer (the paper: 78.2%/82.2% for b.root v4/v6, ~80% for
// m.root), using a tolerance of tolKm for "same distance".
func (d *Distance) OptimalShare(l rss.Letter, f topology.Family, tolKm float64) float64 {
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
func (d *Distance) ExtraDistancePerVP(l rss.Letter, f topology.Family) []float64 {
	var out []float64
	for vk, sum := range d.extraSum {
		if vk.Letter == l && vk.Family == f && d.extraCount[vk] > 0 {
			out = append(out, sum/float64(d.extraCount[vk]))
		}
	}
	return out
}

// WriteFigure5 renders the Fig. 5 scatter summaries for b.root and m.root.
func (d *Distance) WriteFigure5(w io.Writer) {
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
		share := d.OptimalShare(sel.letter, sel.family, 100)
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

// closerLocalShare returns the fraction of requests that landed on a local
// site closer than the closest global site (below-diagonal mass in Fig. 5).
func (d *Distance) closerLocalShare(l rss.Letter, f topology.Family) float64 {
	s := d.samples[sampleKey{l, f}]
	if s == nil || len(s.Actual) == 0 {
		return math.NaN()
	}
	n := 0
	for i := range s.Actual {
		if s.Actual[i] < s.Closest[i]-100 {
			n++
		}
	}
	return float64(n) / float64(len(s.Actual))
}

// LocalSiteShare exposes closerLocalShare for reports and tests.
func (d *Distance) LocalSiteShare(l rss.Letter, f topology.Family) float64 {
	return d.closerLocalShare(l, f)
}

// ObservedDeployment ties the accumulator to its system for callers that
// need per-letter deployment context.
func (d *Distance) ObservedDeployment(l rss.Letter) *anycast.Deployment {
	return d.sys.Deployments[l]
}
