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
	// globals[letter] holds the points of the letter's global sites, resolved
	// once; closest caches, per vp·13 + letter, the distance from the VP to
	// the nearest of them (rebuilt on demand, never sealed).
	globals [13][]geo.Point
	closest []closestCell
	// actual caches, per vp·rss.Slots + slot, the last site the VP reached on
	// the target and the distance to it: sites change rarely, so a probe
	// mostly skips the haversine (rebuilt on demand, never sealed).
	actual []actualCell

	// samples holds, per slot, pairs of (closest, actual) distances.
	samples [rss.Slots]distSamples
	// extra accumulates extra distance per vp·rss.Slots + slot, for the
	// per-VP means.
	extra []extraCell
}

type closestCell struct {
	km    float64
	known bool
}

type actualCell struct {
	site  geo.Point
	km    float64
	known bool
}

// extraCell and distSamples carry exported fields because the checkpoint
// seal encodes them as JSON (see checkpoint.go).
type extraCell struct {
	Sum float64 `json:"s,omitempty"`
	N   int     `json:"n,omitempty"`
}

type distSamples struct {
	Closest, Actual []float64
}

// NewDistance creates the accumulator. The population is not consulted
// (events carry their VP); bench/replay.go pins the signature.
func NewDistance(sys *rss.System, _ *vantage.Population) *Distance {
	d := &Distance{}
	for _, l := range rss.Letters() {
		if dep := sys.Deployments[l]; dep != nil {
			for _, s := range dep.Sites {
				if s.Kind == anycast.Global {
					d.globals[l.Index()] = append(d.globals[l.Index()], s.City.Point)
				}
			}
		}
	}
	return d
}

// HandleProbe implements measure.Handler.
//
//rootlint:hotpath
func (d *Distance) HandleProbe(e measure.ProbeEvent) {
	slot, ok := e.Target.Slot()
	if e.Lost || e.SiteID == "" || e.Target.Old || !ok || e.VPIdx < 0 {
		return
	}
	d.closest = growTo(d.closest, (e.VPIdx+1)*len(d.globals))
	cc := &d.closest[e.VPIdx*len(d.globals)+slot/2]
	if !cc.known {
		*cc = closestCell{d.computeClosest(e.VP, slot/2), true}
	}
	closest := cc.km
	d.actual = growTo(d.actual, (e.VPIdx+1)*rss.Slots)
	ac := &d.actual[e.VPIdx*rss.Slots+slot]
	if !ac.known || ac.site != e.SiteCity.Point {
		*ac = actualCell{e.SiteCity.Point, geo.DistanceKm(e.VP.City.Point, e.SiteCity.Point), true}
	}
	actual := ac.km

	s := &d.samples[slot]
	s.Closest = append(s.Closest, closest)
	s.Actual = append(s.Actual, actual)

	extra := actual - closest
	if extra < 0 {
		extra = 0 // landed on a closer local site
	}
	d.extra = growTo(d.extra, (e.VPIdx+1)*rss.Slots)
	x := &d.extra[e.VPIdx*rss.Slots+slot]
	x.Sum += extra
	x.N++
}

// HandleTransfer implements measure.Handler.
//
//rootlint:hotpath
func (d *Distance) HandleTransfer(measure.TransferEvent) {}

func (d *Distance) computeClosest(vp *vantage.VP, letter int) float64 {
	minKm := math.Inf(1)
	for _, p := range d.globals[letter] {
		if km := geo.DistanceKm(vp.City.Point, p); km < minKm {
			minKm = km
		}
	}
	return minKm
}

// samplesFor returns the samples of one current (not old) target, nil for a
// target that has no slot.
func (d *Distance) samplesFor(l rss.Letter, f topology.Family) *distSamples {
	slot, ok := rss.ServiceAddr{Letter: l, Family: f}.Slot()
	if !ok {
		return nil
	}
	return &d.samples[slot]
}

// sameDistanceKm is how much farther than the closest global site a request's
// site may be and still count as the closest.
const sameDistanceKm = 100

// OptimalShare returns the fraction of requests routed to their closest
// global site or closer (the paper: 78.2%/82.2% for b.root v4/v6, ~80% for
// m.root), within sameDistanceKm.
func (d *Distance) OptimalShare(l rss.Letter, f topology.Family) float64 {
	s := d.samplesFor(l, f)
	if s == nil || len(s.Actual) == 0 {
		return math.NaN()
	}
	n := 0
	for i := range s.Actual {
		if s.Actual[i] <= s.Closest[i]+sameDistanceKm {
			n++
		}
	}
	return float64(n) / float64(len(s.Actual))
}

// ExtraDistancePerVP returns each VP's mean additional distance for the
// target, in VP order (paper §6: 79.5% of b.root clients under 1,000 km
// extra; 21.5% up to 15,000 km).
func (d *Distance) ExtraDistancePerVP(l rss.Letter, f topology.Family) []float64 {
	slot, ok := rss.ServiceAddr{Letter: l, Family: f}.Slot()
	if !ok {
		return nil
	}
	var out []float64
	for i := slot; i < len(d.extra); i += rss.Slots {
		if x := d.extra[i]; x.N > 0 {
			out = append(out, x.Sum/float64(x.N))
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
		share := d.OptimalShare(sel.letter, sel.family)
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
