package analysis

import (
	"fmt"
	"io"

	"repro/internal/geo"
	"repro/internal/measure"
	"repro/internal/rss"
	"repro/internal/stats"
	"repro/internal/topology"
	"repro/internal/vantage"
)

// Colocation quantifies reduced redundancy per VP (Fig. 4, §5): within one
// tick, the VP's 13 probes (one per letter, per family) whose traceroutes
// share a second-to-last hop indicate co-located servers. Reduced redundancy
// = total letters observed − distinct second-to-last hops. Missed hops count
// as unique, making the measure a lower bound like the paper's.
type Colocation struct {
	pop *vantage.Population
	// current accumulates the in-progress tick's second-to-last hops per
	// (vp, family); when a new tick starts for that vp, the previous one is
	// folded into the per-VP series.
	current map[colocKey]*tickHops
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

type tickHops struct {
	Tick    int
	Total   int
	Hops    map[string]bool
	Uniques int // unresponsive hops, each counted unique
}

// NewColocation creates the accumulator.
func NewColocation(pop *vantage.Population) *Colocation {
	return &Colocation{
		pop:     pop,
		current: make(map[colocKey]*tickHops),
		series:  make(map[colocKey][]float64),
	}
}

// HandleProbe implements measure.Handler.
func (c *Colocation) HandleProbe(e measure.ProbeEvent) {
	if e.Lost || e.Target.Old {
		return // 13 letters, one probe each; skip b.root's old duplicate
	}
	if e.SecondToLast == "" && !e.STLOK {
		// Either the traceroute was skipped this tick (TraceEvery) or the
		// hop was missed; a skipped traceroute has no hop data at all and
		// is indistinguishable here, so both count as unique/absent.
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
		th = &tickHops{Tick: e.Tick.Index, Hops: make(map[string]bool)}
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
func (c *Colocation) HandleTransfer(measure.TransferEvent) {}

func (c *Colocation) fold(k colocKey, th *tickHops) {
	distinct := len(th.Hops) + th.Uniques
	rr := th.Total - distinct
	if rr < 0 {
		rr = 0
	}
	c.series[k] = append(c.series[k], float64(rr))
}

// finish folds any in-progress ticks.
func (c *Colocation) finish() {
	for k, th := range c.current {
		c.fold(k, th)
		delete(c.current, k)
	}
}

// ReducedRedundancy returns the per-VP typical (median-over-ticks) reduced
// redundancy for one family in one region (nil region = all VPs).
func (c *Colocation) ReducedRedundancy(f topology.Family, region *geo.Region) []float64 {
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
func (c *Colocation) ShareWithColocation() float64 {
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
func (c *Colocation) MaxReducedRedundancy() int {
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
func (c *Colocation) WriteFigure4(w io.Writer) {
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
