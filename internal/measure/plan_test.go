package measure

import (
	"fmt"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/rss"
	"repro/internal/topology"
	"repro/internal/traceroute"
	"repro/internal/vantage"
)

// probeReference is Campaign.probe as it was before the plan, kept as its
// oracle: select the route, look the site up, compute the RTT (to the whole
// centi-millisecond, truncated, as a recording keeps it) and expand the
// whole traceroute to read its second-to-last hop, per (tick, VP, target).
func probeReference(c *Campaign, tick Tick, vp *vantage.VP, vpIdx, tIdx int, target rss.ServiceAddr) ProbeEvent {
	pe := ProbeEvent{Tick: tick, VP: vp, VPIdx: vpIdx, Target: target}
	catch := c.World.Catchments[target.Letter][target.Family]
	route, ok := catch.SelectAt(vp.ASN, tick.Index, c.Cfg.Seed, c.Cfg.Scale)
	if !ok || c.Plan.Loss.Lost(vpIdx, tIdx, tick.Index, 0) {
		pe.Lost = true
		return pe
	}
	site, _ := c.World.System.Deployments[target.Letter].SiteByID(route.Origin.SiteID)
	pe.SiteID = site.ID
	pe.Identifier = site.Identifier
	pe.Facility = site.Facility
	pe.SiteCity = site.City
	pe.SiteKind = site.Kind
	pe.ASPath = route.ASPath
	pe.RTTms = float64(uint64((rttFor(route, target.Family)+rttJitter(c.Cfg.Seed, vpIdx, tIdx, tick.Index))*100)) / 100
	tr := traceroute.Run(c.World.Topo, route, site, target.Family, c.traceCfg, c.Cfg.Seed, tick.Index)
	pe.SecondToLast, pe.STLOK = tr.SecondToLast()
	return pe
}

// TestProbeMatchesReference compares the planned probe with the reference,
// field for field, over every VP (and one in an AS no route reaches) and
// every target for 200 ticks, unthinned and at the benchmark's thinning.
func TestProbeMatchesReference(t *testing.T) {
	w := testWorld(t)
	w.Population.VPs = append(w.Population.VPs, vantage.VP{ID: "nowhere", ASN: 999999})
	for _, scale := range []int{1, 192} {
		cfg := DefaultConfig()
		cfg.Scale, cfg.Seed = scale, 5
		c := NewCampaign(cfg, w)
		c.Plan.Loss.Prob = 0.05
		var err error
		if c.probes, err = c.buildPlan(); err != nil {
			t.Fatal(err)
		}
		lost, flapped, missed, n := 0, 0, 0, 0
		for i := 0; i < 200; i++ {
			tick := Tick{Index: i, Time: StudyStart.Add(time.Duration(i) * time.Hour)}
			for vpIdx := range w.Population.VPs {
				vp := &w.Population.VPs[vpIdx]
				for tIdx, target := range rss.AllServiceAddrs() {
					want := probeReference(c, tick, vp, vpIdx, tIdx, target)
					got := c.probe(tick, vp, vpIdx, tIdx)
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("scale %d, tick %d, VP %d, target %d:\n got %+v\nwant %+v",
							scale, i, vpIdx, tIdx, got, want)
					}
					n++
					if best, ok := bestRoute(w.Catchments[target.Letter][target.Family], vp.ASN); want.Lost {
						lost++
					} else if ok && want.SiteID != best.Origin.SiteID {
						flapped++
					} else if !want.STLOK {
						missed++
					}
				}
			}
		}
		if last := len(w.Population.VPs) - 1; !c.probe(Tick{}, &w.Population.VPs[last], last, 0).Lost {
			t.Error("a VP no route reaches was answered")
		}
		if lost < n/100 || flapped < 20 || missed < n/100 {
			t.Errorf("scale %d: %d lost, %d flapped, %d missed edges in %d probes: too few to tell",
				scale, lost, flapped, missed, n)
		}
	}
}

// TestWarmProbeDoesNotAllocate: with the plan built, a probe is an index, a
// few draws and a copy.
func TestWarmProbeDoesNotAllocate(t *testing.T) {
	w := testWorld(t)
	cfg := DefaultConfig()
	cfg.Scale = 192
	c := NewCampaign(cfg, w)
	var err error
	if c.probes, err = c.buildPlan(); err != nil {
		t.Fatal(err)
	}
	vps, targets := len(w.Population.VPs), len(c.probes.targets)
	i, answered := 0, 0
	if allocs := testing.AllocsPerRun(5000, func() {
		i++
		vpIdx, tIdx := i%vps, i%targets
		if pe := c.probe(Tick{Index: i}, &w.Population.VPs[vpIdx], vpIdx, tIdx); pe.STLOK {
			answered++
		}
	}); allocs != 0 {
		t.Errorf("probe: %v allocs/op, want 0", allocs)
	}
	if answered < 2500 {
		t.Errorf("only %d of 5000 probes answered: the test is not on the answered path", answered)
	}
}

// TestPlanReadsWhatRunReads: the plan is built by Run, from the Cfg Run sees.
// A campaign whose thinning is edited after NewCampaign records exactly what
// one constructed with that thinning records — flaps compound over it, so a
// plan resolved any earlier would flap four times too seldom here.
func TestPlanReadsWhatRunReads(t *testing.T) {
	w := testWorld(t)
	cfg := DefaultConfig()
	cfg.Start = time.Date(2023, 8, 1, 0, 0, 0, 0, time.UTC)
	cfg.End = cfg.Start.Add(4 * 24 * time.Hour)
	cfg.Scale = 1
	edited := NewCampaign(cfg, w)
	edited.Cfg.Scale = 4
	cfg.Scale = 4
	built := NewCampaign(cfg, w)
	a, b := &collector{}, &collector{}
	if err := edited.Run(a); err != nil {
		t.Fatal(err)
	}
	if err := built.Run(b); err != nil {
		t.Fatal(err)
	}
	if len(a.probes) == 0 || !reflect.DeepEqual(a.probes, b.probes) {
		t.Fatalf("a campaign with Cfg.Scale edited before Run recorded %d probes that differ from the %d of one constructed with it",
			len(a.probes), len(b.probes))
	}
	flapped := 0
	for _, p := range a.probes {
		if best, ok := bestRoute(w.Catchments[p.Target.Letter][p.Target.Family], p.VP.ASN); ok && !p.Lost && p.SiteID != best.Origin.SiteID {
			flapped++
		}
	}
	if flapped < 20 {
		t.Errorf("%d flaps in %d probes: too few to tell the thinnings apart", flapped, len(a.probes))
	}
}

// TestRunRefusesRouteToMissingSite: a deployment that lost a site after its
// catchments were computed still has routes into it. Such a probe used to be
// recorded as answered by a site named ""; Run now names the route and calls
// no handler.
func TestRunRefusesRouteToMissingSite(t *testing.T) {
	w := testWorld(t)
	vp := w.Population.VPs[0]
	route, ok := bestRoute(w.Catchments["d"][topology.IPv4], vp.ASN)
	if !ok {
		t.Fatal("first VP has no route to d.root")
	}
	d := w.System.Deployments["d"]
	for i, s := range d.Sites {
		if s.ID == route.Origin.SiteID {
			d.Sites = append(d.Sites[:i:i], d.Sites[i+1:]...)
			break
		}
	}
	cfg := DefaultConfig()
	cfg.Start = time.Date(2023, 8, 1, 0, 0, 0, 0, time.UTC)
	cfg.End = cfg.Start.Add(time.Hour)
	cfg.Scale = 1
	col := &collector{}
	err := NewCampaign(cfg, w).Run(col)
	if err == nil {
		t.Fatal("Run accepted a route into a site the deployment does not have")
	}
	for _, want := range []string{"d.root", "IPv4", fmt.Sprintf("AS%d ", vp.ASN), strconv.Quote(route.Origin.SiteID)} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not name %q", err, want)
		}
	}
	if len(col.probes)+len(col.transfers) != 0 {
		t.Errorf("%d events delivered before the error", len(col.probes)+len(col.transfers))
	}
}
