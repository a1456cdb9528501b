package analysis

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"reflect"
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

// flappingProbes is syntheticProbes over a copy of pop in which VP 1 lives
// in VP 0's city, and in which VP 0's answered probes on each target reach
// six sites in turn, each in a city of its own: more cities and identifiers
// than a memo holds, so the memos evict.
func flappingProbes(pop *vantage.Population, rounds int) []measure.ProbeEvent {
	moved := &vantage.Population{VPs: slices.Clone(pop.VPs)}
	moved.VPs[1].City = moved.VPs[0].City
	events := syntheticProbes(moved, rounds)
	cities := geo.Cities()
	turns := map[rss.ServiceAddr]int{}
	for i := range events {
		e := &events[i]
		if e.VPIdx != 0 || e.Lost {
			continue
		}
		site := turns[e.Target] % 6
		turns[e.Target]++
		e.SiteCity = cities[(e.Target.Letter.Index()+5*site)%len(cities)]
		e.Identifier = fmt.Sprintf("%s%d.%s", e.Target.Letter, site, e.SiteCity.IATA)
		if e.SiteID != "" {
			e.SiteID = e.Identifier
		}
	}
	return events
}

// TestDenseAccumulatorsMatchReference feeds each of two streams to the dense
// tables and to the map-keyed accumulators they replaced
// (reference_test.go): every writer must render the same bytes and every
// accessor return equal results. The second stream makes the memos evict
// and has two VPs share a city.
func TestDenseAccumulatorsMatchReference(t *testing.T) {
	w := testWorld(t)
	t.Run("synthetic", func(t *testing.T) { matchReference(t, w, syntheticProbes(w.Population, 36)) })
	t.Run("flapping", func(t *testing.T) {
		events := flappingProbes(w.Population, 36)
		cities := map[geo.Point]bool{}
		for _, e := range events {
			if e.VPIdx == 0 && !e.Lost && e.Target.Letter == "a" && e.Target.Family == topology.IPv4 {
				cities[e.SiteCity.Point] = true
			}
		}
		if len(cities) <= memoWays {
			t.Fatalf("VP 0 reaches %d cities on a.root IPv4, want more than the %d a memo holds", len(cities), memoWays)
		}
		matchReference(t, w, events)
	})
}

// matchReference is TestDenseAccumulatorsMatchReference on one stream.
func matchReference(t *testing.T, w *measure.World, events []measure.ProbeEvent) {
	if len(events) < 50000 {
		t.Fatalf("stream of %d events, want at least 50,000", len(events))
	}

	stab, refStab := NewStability(), newRefStability()
	dist, refDist := NewDistance(w.System, w.Population), newRefDistance(w.System, w.Population)
	rtt, refRtt := NewRTT(), newRefRTT()
	col, refCol := NewColocation(w.Population), newRefColocation(w.Population)
	cov, refCov := NewCoverage(w.System), newRefCoverage(w.System)
	for _, e := range events {
		for _, h := range []measure.Handler{stab, refStab, dist, refDist, rtt, refRtt, col, refCol, cov, refCov} {
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
		{"WriteTable1", cov.WriteTable1, refCov.WriteTable1},
		{"WriteTable4", cov.WriteTable4, refCov.WriteTable4},
		{"Figure11", cov.Figure11, refCov.Figure11},
		{"WriteValidation", cov.WriteValidation, refCov.WriteValidation},
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
	if !reflect.DeepEqual(cov.observedIdentifiers, refCov.observedIdentifiers) || refCov.ObservedIdentifiers() == 0 {
		t.Errorf("Coverage observed %d identifiers, the reference %d, want the same sets and more than none",
			cov.ObservedIdentifiers(), refCov.ObservedIdentifiers())
	}
}

// TestCoverageMemo: the memo skips the set insert only for an identifier
// the same VP saw on the same target lately. An identifier two letters share
// (the IATA-only letters name a site by its metro code) goes into both
// letters' sets, and a checkpoint restored over a used accumulator takes the
// memo with the identifiers it forgets.
func TestCoverageMemo(t *testing.T) {
	w := testWorld(t)
	probe := func(l rss.Letter, ident string) measure.ProbeEvent {
		return measure.ProbeEvent{VP: &w.Population.VPs[0], Target: rss.ServiceAddr{Letter: l}, SiteID: ident, Identifier: ident}
	}
	c := NewCoverage(w.System)
	c.HandleProbe(probe("a", "ams"))
	c.HandleProbe(probe("b", "ams"))
	if !c.observedIdentifiers["a"]["ams"] || !c.observedIdentifiers["b"]["ams"] {
		t.Errorf("an identifier a.root and b.root share: observed %v", c.observedIdentifiers)
	}
	c.HandleProbe(probe("a", "fra"))
	sealed, err := c.CheckpointSeal()
	if err != nil {
		t.Fatal(err)
	}
	c.HandleProbe(probe("a", "lhr"))
	if err := c.RestoreCheckpoint(sealed); err != nil {
		t.Fatal(err)
	}
	c.HandleProbe(probe("a", "lhr"))
	if !c.observedIdentifiers["a"]["lhr"] {
		t.Errorf("an identifier seen after the checkpoint, restored over, then seen again: observed %v", c.observedIdentifiers)
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

// passes returns a function that feeds events to h once more each call,
// their ticks moved on by 10 a call, as a campaign's next ticks would be.
func passes(h measure.Handler, events []measure.ProbeEvent) func() {
	tick := 0
	return func() {
		tick += 10
		for i := range events {
			e := events[i]
			e.Tick.Index += tick
			h.HandleProbe(e)
		}
	}
}

// TestWarmHandleProbeDoesNotAllocate: once a (VP, target) has been seen, a
// probe costs Distance, Colocation and Coverage no allocation at all. Stability and
// RTT keep a bound that leaves room for the amortised growth of RTT's sample
// slices: a few hundred slices that each double now and then, against
// thousands of probes a pass. Colocation is fed whole ticks, so every fold
// is inside the count.
func TestWarmHandleProbeDoesNotAllocate(t *testing.T) {
	w := testWorld(t)
	events := syntheticProbes(w.Population, 2)
	for _, tc := range []struct {
		name   string
		h      measure.Handler
		budget float64
	}{
		{"Stability", NewStability(), float64(len(events)) / 20},
		{"Distance", NewDistance(w.System, w.Population), 0},
		{"RTT", NewRTT(), float64(len(events)) / 20},
		{"Colocation", NewColocation(w.Population), 0},
		{"Coverage", NewCoverage(w.System), 0},
	} {
		pass := passes(tc.h, events)
		for i := 0; i < 4; i++ {
			pass() // tables grown, hop lists sized
		}
		if allocs := testing.AllocsPerRun(20, pass); allocs > tc.budget {
			t.Errorf("%s: %v allocations per pass of %d warm probes, want at most %v", tc.name, allocs, len(events), tc.budget)
		}
	}
}

// sealedValues counts the JSON tokens other than brackets and braces in a
// checkpoint seal: the size of the state it holds. The seal's byte length
// is no such measure, since counters and sums gain digits as they grow.
func sealedValues(t *testing.T, p interface{ CheckpointSeal() ([]byte, error) }) int {
	t.Helper()
	blob, err := p.CheckpointSeal()
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(blob))
	for n := 0; ; {
		tok, err := dec.Token()
		if err == io.EOF {
			return n
		}
		if err != nil {
			t.Fatal(err)
		}
		if _, delim := tok.(json.Delim); !delim {
			n++
		}
	}
}

// TestAccumulatorStateIsBoundedInTicks: Distance and Colocation hold counts
// per cell, not observations, so 40 passes of the same probes leave them
// holding as many values as 10 did.
func TestAccumulatorStateIsBoundedInTicks(t *testing.T) {
	w := testWorld(t)
	events := syntheticProbes(w.Population, 2)
	for _, tc := range []struct {
		name string
		h    interface {
			measure.Handler
			CheckpointSeal() ([]byte, error)
		}
	}{
		{"Distance", NewDistance(w.System, w.Population)},
		{"Colocation", NewColocation(w.Population)},
	} {
		pass := passes(tc.h, events)
		for i := 0; i < 10; i++ {
			pass()
		}
		at10 := sealedValues(t, tc.h)
		for i := 10; i < 40; i++ {
			pass()
		}
		if at40 := sealedValues(t, tc.h); at40 != at10 || at10 == 0 {
			t.Errorf("%s seals %d values after 10 passes and %d after 40, want the same, above zero", tc.name, at10, at40)
		}
	}
}

// TestMedianOfCountsMatchesMedian: the median read from per-value counts is
// stats.Median of the series those counts stand for, bit for bit, at odd
// and even lengths alike.
func TestMedianOfCountsMatchesMedian(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	if got := medianOfCounts(nil); !math.IsNaN(got) {
		t.Errorf("median of no counts = %v, want NaN", got)
	}
	for i := 0; i < 600; i++ {
		series := make([]float64, 1+i%200) // every length, three times
		var counts []int
		for j := range series {
			v := rng.Intn(16)
			series[j] = float64(v)
			counts = growTo(counts, v+1)
			counts[v]++
		}
		if got, want := medianOfCounts(counts), stats.Median(series); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("length %d, counts %v: median %v, stats.Median %v", len(series), counts, got, want)
		}
	}
}
