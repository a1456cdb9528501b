package analysis

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"math/rand"
	"slices"
	"testing"
	"time"

	"repro/internal/geo"
	"repro/internal/measure"
	"repro/internal/rss"
	"repro/internal/stats"
	"repro/internal/topology"
	"repro/internal/vantage"
)

// syntheticProbes is a seeded stream shaped to reach every branch of the
// four dense accumulators: all 28 targets, lost and site-less probes, RTTs
// of zero, unanswered and untraced second-to-last hops, paths through either
// carrier and through neither, VPs in shuffled order (so tables grow from the
// middle), ticks that are skipped, and ticks that come round a second time
// after a later one (a crafted dataset: more than 13 hops in one tick).
func syntheticProbes(pop *vantage.Population, rounds int) []measure.ProbeEvent {
	rng := rand.New(rand.NewSource(7))
	targets := rss.AllServiceAddrs()
	cities := geo.Cities()
	start := time.Date(2023, 8, 1, 0, 0, 0, 0, time.UTC)
	var out []measure.ProbeEvent
	tick := 0
	for round := 0; round < rounds; round++ {
		switch rng.Intn(8) {
		case 0:
			tick += 3 // skipped ticks
		case 1:
			tick = max(tick-1, 0) // the previous tick again
		case 2: // the same tick again
		default:
			tick++
		}
		for _, vp := range rng.Perm(len(pop.VPs)) {
			if rng.Intn(10) == 0 {
				continue // this VP sat the round out
			}
			for _, target := range targets {
				e := measure.ProbeEvent{
					Tick:  measure.Tick{Index: tick, Time: start.Add(time.Duration(tick) * time.Hour)},
					VP:    &pop.VPs[vp],
					VPIdx: vp, Target: target,
					Lost: rng.Intn(12) == 0,
				}
				if !e.Lost {
					site := rng.Intn(3)
					e.SiteCity = cities[(target.Letter.Index()*7+site*31+vp)%len(cities)]
					e.Identifier = fmt.Sprintf("%s%d.%s", target.Letter, site, e.SiteCity.IATA)
					if rng.Intn(15) != 0 {
						e.SiteID = e.Identifier
					}
					if rng.Intn(20) != 0 {
						e.RTTms = 1 + 300*rng.Float64()
					}
					e.ASPath = []int{64500 + vp, 3356, 64999}
					switch rng.Intn(5) {
					case 0:
						e.ASPath[1] = topology.ASNOpenV6
					case 1:
						e.ASPath[1] = topology.ASNCarrierV4
					case 2:
						e.ASPath = append(e.ASPath, topology.ASNOpenV6, topology.ASNCarrierV4)
					}
					switch rng.Intn(6) {
					case 0: // traced, hop did not answer
					case 1: // not traced this tick
						if e.SiteID == "" {
							e.STLOK = rng.Intn(2) == 0
						}
					default:
						e.STLOK = true
						e.SecondToLast = fmt.Sprintf("r%d.as%d", rng.Intn(4+round%16), 64500+vp)
					}
				}
				out = append(out, e)
			}
		}
	}
	return out
}

// sameFloats compares two result slices, NaN equal to NaN. The reference
// lists per-VP results in map order, the tables in VP order; what is done
// with them (quantiles, histograms, means to a decimal) does not depend on
// it, so anyOrder compares them sorted.
func sameFloats(t *testing.T, what string, got, want []float64, anyOrder bool) {
	t.Helper()
	if anyOrder {
		got, want = slices.Clone(got), slices.Clone(want)
		slices.Sort(got)
		slices.Sort(want)
	}
	if !slices.EqualFunc(got, want, func(a, b float64) bool { return a == b || (math.IsNaN(a) && math.IsNaN(b)) }) {
		t.Errorf("%s: %d values %.6v, reference has %d values %.6v", what, len(got), head(got), len(want), head(want))
	}
}

func head(xs []float64) []float64 { return xs[:min(len(xs), 8)] }

// TestDenseAccumulatorsMatchReference feeds one stream to the dense tables
// and to the map-keyed accumulators they replaced (reference_test.go): every
// writer must render the same bytes and every accessor return equal results.
func TestDenseAccumulatorsMatchReference(t *testing.T) {
	w := testWorld(t)
	events := syntheticProbes(w.Population, 36)
	if len(events) < 50000 {
		t.Fatalf("stream of %d events, want at least 50,000", len(events))
	}

	stab, refStab := NewStability(), newRefStability()
	dist, refDist := NewDistance(w.System, w.Population), newRefDistance(w.System, w.Population)
	rtt, refRtt := NewRTT(), newRefRTT()
	col, refCol := NewColocation(w.Population), newRefColocation(w.Population)
	for _, e := range events {
		for _, h := range []measure.Handler{stab, refStab, dist, refDist, rtt, refRtt, col, refCol} {
			h.HandleProbe(e)
		}
	}

	for _, wr := range []struct {
		name      string
		got, want func(io.Writer)
	}{
		{"WriteFigure3", stab.WriteFigure3, refStab.WriteFigure3},
		{"WriteFigure4", col.WriteFigure4, refCol.WriteFigure4},
		{"WriteFigure5", dist.WriteFigure5, refDist.WriteFigure5},
		{"WriteFigure6", rtt.WriteFigure6, refRtt.WriteFigure6},
		{"WriteFigure14", rtt.WriteFigure14, refRtt.WriteFigure14},
		{"WriteSection6Callouts", rtt.WriteSection6Callouts, refRtt.WriteSection6Callouts},
		{"WriteCarrierEffects", rtt.WriteCarrierEffects, refRtt.WriteCarrierEffects},
	} {
		var got, want bytes.Buffer
		wr.got(&got)
		wr.want(&want)
		if want.Len() < 100 {
			t.Errorf("%s: the reference rendered only %q", wr.name, want.String())
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Errorf("%s differs from the reference:\n%s\nreference:\n%s", wr.name, got.String(), want.String())
		}
	}

	carrierASNs := []int{topology.ASNOpenV6, topology.ASNCarrierV4, 3356}
	for _, target := range rss.AllServiceAddrs() {
		l, f, old := target.Letter, target.Family, target.Old
		name := fmt.Sprintf("%s/%s/old=%v", l, f, old)
		sameFloats(t, "Changes "+name, stab.Changes(l, f, old), refStab.Changes(l, f, old), true)
		for _, region := range geo.Regions() {
			sameFloats(t, "Samples "+name, rtt.Samples(region, l, f, old), refRtt.Samples(region, l, f, old), false)
		}
		if old {
			continue
		}
		sameFloats(t, "ExtraDistancePerVP "+name, dist.ExtraDistancePerVP(l, f), refDist.ExtraDistancePerVP(l, f), true)
		sameFloats(t, "OptimalShare "+name,
			[]float64{dist.OptimalShare(l, f)}, []float64{refDist.OptimalShare(l, f, sameDistanceKm)}, false)
	}
	if got := stab.Changes("b", topology.IPv4, true); len(got) == 0 || stats.Quantile(got, 1) == 0 {
		t.Errorf("b.root old IPv4 change counts %v: the stream never moved a site", head(got))
	}
	for _, f := range topology.Families() {
		for _, region := range geo.Regions() {
			region := region
			for _, asn := range carrierASNs {
				if got, want := rtt.CarrierShare(region, f, asn), refRtt.CarrierShare(region, f, asn); got != want {
					t.Errorf("CarrierShare %s %s AS%d: %v, reference %v", region, f, asn, got, want)
				}
			}
			sameFloats(t, fmt.Sprintf("ReducedRedundancy %s %s", f, region),
				col.ReducedRedundancy(f, &region), refCol.ReducedRedundancy(f, &region), false)
		}
		sameFloats(t, fmt.Sprintf("ReducedRedundancy %s", f), col.ReducedRedundancy(f, nil), refCol.ReducedRedundancy(f, nil), false)
	}
	if got, want := col.MaxReducedRedundancy(), refCol.MaxReducedRedundancy(); got != want || got == 0 {
		t.Errorf("MaxReducedRedundancy = %d, reference %d, want equal and above zero", got, want)
	}
	if got, want := col.ShareWithColocation(), refCol.ShareWithColocation(); got != want {
		t.Errorf("ShareWithColocation = %v, reference %v", got, want)
	}
}

// TestNoSlotNoPanic: hand-built events reach the accumulators without passing
// the dataset reader's checks. One whose target has no slot (a letter outside
// a–m, an unknown family, Old on a letter other than b), a negative VP index
// or a region outside the tables is skipped, and a VP index far past any seen
// grows the tables: never an index out of range.
func TestNoSlotNoPanic(t *testing.T) {
	w := testWorld(t)
	pop := w.Population
	render := func(hs []measure.Handler) string {
		var b bytes.Buffer
		hs[0].(*Stability).WriteFigure3(&b)
		hs[1].(*Colocation).WriteFigure4(&b)
		hs[2].(*Distance).WriteFigure5(&b)
		hs[3].(*RTT).WriteFigure14(&b)
		hs[3].(*RTT).WriteCarrierEffects(&b)
		return b.String()
	}
	fresh := func() []measure.Handler {
		return []measure.Handler{NewStability(), NewColocation(pop), NewDistance(w.System, pop), NewRTT()}
	}
	empty := render(fresh())

	good := measure.ProbeEvent{
		VP: &pop.VPs[0], Target: rss.AllServiceAddrs()[0],
		SiteID: "a1", Identifier: "a1", SiteCity: geo.Cities()[0], RTTms: 12,
		ASPath: []int{64500, topology.ASNOpenV6}, SecondToLast: "r1", STLOK: true,
	}
	hs := fresh()
	offRegion := pop.VPs[0]
	offRegion.Region = geo.Region(geo.RegionCount)
	for _, mutate := range []func(e *measure.ProbeEvent){
		func(e *measure.ProbeEvent) { e.Target.Letter = "n" },
		func(e *measure.ProbeEvent) { e.Target.Letter = "" },
		func(e *measure.ProbeEvent) { e.Target.Letter = "ab" },
		func(e *measure.ProbeEvent) { e.Target.Family = 2 },
		func(e *measure.ProbeEvent) { e.Target.Family = -1 },
		func(e *measure.ProbeEvent) { e.Target.Old = true }, // a.root has no old address
	} {
		e := good
		mutate(&e)
		for _, h := range hs {
			h.HandleProbe(e)
		}
	}
	if got := render(hs); got != empty {
		t.Errorf("events without a slot were counted:\n%s", got)
	}
	// RTT has no table by VP and the other three none by region.
	e := good
	e.VPIdx = -1
	for _, h := range hs[:3] {
		h.HandleProbe(e)
	}
	e = good
	e.VP = &offRegion
	hs[3].HandleProbe(e)
	if got := render(hs); got != empty {
		t.Errorf("an event from a VP or a region outside the tables was counted:\n%s", got)
	}

	far := good
	far.VPIdx = 100000
	for _, h := range hs {
		h.HandleProbe(far)
		h.HandleProbe(good)
	}
	if got := hs[0].(*Stability).Changes("a", topology.IPv4, false); len(got) != 2 {
		t.Errorf("Changes after VPs 100000 and 0: %v, want two VPs", got)
	}
	if got := hs[2].(*Distance).ExtraDistancePerVP("a", topology.IPv4); len(got) != 2 {
		t.Errorf("ExtraDistancePerVP after VPs 100000 and 0: %v, want two VPs", got)
	}
}

// TestWarmHandleProbeDoesNotAllocate: once a (VP, target) has been seen, a
// probe costs the dense accumulators no allocation beyond the amortised
// growth of their sample slices: a few hundred slices that each double now
// and then, against thousands of probes a pass. Colocation is fed whole
// ticks, so every fold is inside the count.
func TestWarmHandleProbeDoesNotAllocate(t *testing.T) {
	w := testWorld(t)
	events := syntheticProbes(w.Population, 2)
	for _, tc := range []struct {
		name string
		h    measure.Handler
	}{
		{"Stability", NewStability()},
		{"Distance", NewDistance(w.System, w.Population)},
		{"RTT", NewRTT()},
		{"Colocation", NewColocation(w.Population)},
	} {
		tick := 0
		pass := func() {
			tick += 10
			for i := range events {
				e := events[i]
				e.Tick.Index += tick
				tc.h.HandleProbe(e)
			}
		}
		for i := 0; i < 4; i++ {
			pass() // tables grown, hop lists sized
		}
		if allocs := testing.AllocsPerRun(20, pass); allocs > float64(len(events))/20 {
			t.Errorf("%s: %v allocations per pass of %d warm probes, want amortised sample growth only", tc.name, allocs, len(events))
		}
	}
}
