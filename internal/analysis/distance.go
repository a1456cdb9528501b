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
	// the nearest of them, which byCity computes once per VP city and letter
	// (the bench's 167 VPs share 58 cities). Both are rebuilt on demand,
	// never sealed.
	globals [13][]geo.Point
	closest []closestCell
	byCity  map[cityLetter]float64
	// actual remembers, per vp·rss.Slots + slot, the last memoWays site
	// cities the VP reached on the target and the distance to each. In the
	// bench replay stream (seed 1), 33.1 % of the 225,376 landed probes on
	// current targets reach another city than the pair's previous probe, but
	// no pair reaches more than four: the memo misses only on a pair's first
	// probe into a city, 5.0 % of the probes (rebuilt on demand, never
	// sealed).
	actual []memo[geo.Point, float64]

	// optimal counts, per slot, the requests seen and those that reached
	// their closest global site or closer.
	optimal [rss.Slots]optimalCell
	// extra accumulates extra distance per vp·rss.Slots + slot, for the
	// per-VP means.
	extra []extraCell
}

type closestCell struct {
	km    float64
	known bool
}

type cityLetter struct {
	city   geo.Point
	letter int
}

// extraCell and optimalCell carry exported fields because the checkpoint
// seal encodes them as JSON (see checkpoint.go).
type extraCell struct {
	Sum float64 `json:"s,omitempty"`
	N   int     `json:"n,omitempty"`
}

type optimalCell struct {
	N       int `json:"n,omitempty"`
	Optimal int `json:"o,omitempty"`
}

// NewDistance creates the accumulator. The population is not consulted
// (events carry their VP); bench/replay.go pins the signature.
func NewDistance(sys *rss.System, _ *vantage.Population) *Distance {
	d := &Distance{byCity: make(map[cityLetter]float64)}
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
	actual, ok := ac.get(e.SiteCity.Point)
	if !ok {
		actual = geo.DistanceKm(e.VP.City.Point, e.SiteCity.Point)
		ac.put(e.SiteCity.Point, actual)
	}

	o := &d.optimal[slot]
	o.N++
	if actual <= closest+sameDistanceKm {
		o.Optimal++
	}

	d.extra = growTo(d.extra, (e.VPIdx+1)*rss.Slots)
	x := &d.extra[e.VPIdx*rss.Slots+slot]
	x.Sum += max(actual-closest, 0) // 0: landed on a closer local site
	x.N++
}

// HandleTransfer implements measure.Handler.
//
//rootlint:hotpath
func (d *Distance) HandleTransfer(measure.TransferEvent) {}

// computeClosest returns the distance from vp's city to letter's nearest
// global site.
func (d *Distance) computeClosest(vp *vantage.VP, letter int) float64 {
	key := cityLetter{vp.City.Point, letter}
	if km, ok := d.byCity[key]; ok {
		return km
	}
	minKm := math.Inf(1)
	for _, p := range d.globals[letter] {
		if km := geo.DistanceKm(vp.City.Point, p); km < minKm {
			minKm = km
		}
	}
	d.byCity[key] = minKm
	return minKm
}

// sameDistanceKm is how much farther than the closest global site a request's
// site may be and still count as the closest.
const sameDistanceKm = 100

// OptimalShare returns the fraction of requests routed to their closest
// global site or closer (the paper: 78.2%/82.2% for b.root v4/v6, ~80% for
// m.root), within sameDistanceKm.
func (d *Distance) OptimalShare(l rss.Letter, f topology.Family) float64 {
	slot, ok := rss.ServiceAddr{Letter: l, Family: f}.Slot()
	if !ok {
		return math.NaN()
	}
	if o := d.optimal[slot]; o.N > 0 {
		return float64(o.Optimal) / float64(o.N)
	}
	return math.NaN()
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
