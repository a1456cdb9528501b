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
	// vp·2 + family; when a new tick starts for that vp, the previous one is
	// folded into the per-VP series. Both tables grow to the largest VP seen.
	current []tickHops
	// series holds the per-tick reduced-redundancy observations per
	// vp·2 + family. Co-location is a property of the typical routing, so
	// per-VP reporting uses the median over ticks; the campaign-wide
	// maximum backs the "up to N co-located servers" observation.
	series [][]float64
}

// tickHops is one (VP, family)'s tick in progress; Total is zero between
// ticks. Its fields are exported because the checkpoint seal encodes it as
// JSON (see checkpoint.go).
type tickHops struct {
	Tick  int `json:"t,omitempty"`
	Total int `json:"n,omitempty"`
	// Hops lists the distinct responsive hops: 13 at most in a campaign's
	// tick, so it is searched linearly, and its backing array is reused from
	// tick to tick.
	Hops    []string `json:"h,omitempty"`
	Uniques int      `json:"u,omitempty"` // unresponsive hops, each counted unique
}

// NewColocation creates the accumulator.
func NewColocation(pop *vantage.Population) *Colocation {
	return &Colocation{pop: pop}
}

// HandleProbe implements measure.Handler.
//
//rootlint:hotpath
func (c *Colocation) HandleProbe(e measure.ProbeEvent) {
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
	if _, ok := e.Target.Slot(); !ok || e.VPIdx < 0 {
		return
	}
	k := e.VPIdx*2 + int(e.Target.Family)
	c.current = growTo(c.current, k+1)
	th := &c.current[k]
	if th.Total > 0 && th.Tick != e.Tick.Index {
		c.fold(k)
	}
	th.Tick = e.Tick.Index
	th.Total++
	if !e.STLOK {
		th.Uniques++
	} else if !slices.Contains(th.Hops, e.SecondToLast) {
		th.Hops = append(th.Hops, e.SecondToLast)
	}
}

// HandleTransfer implements measure.Handler.
//
//rootlint:hotpath
func (c *Colocation) HandleTransfer(measure.TransferEvent) {}

// fold appends the in-progress tick of k to its series and clears it.
func (c *Colocation) fold(k int) {
	th := &c.current[k]
	distinct := len(th.Hops) + th.Uniques
	rr := th.Total - distinct
	if rr < 0 {
		rr = 0
	}
	c.series = growTo(c.series, k+1)
	c.series[k] = append(c.series[k], float64(rr))
	clear(th.Hops) // do not pin the tick's strings
	*th = tickHops{Hops: th.Hops[:0]}
}

// finish folds any in-progress ticks.
func (c *Colocation) finish() {
	for k := range c.current {
		if c.current[k].Total > 0 {
			c.fold(k)
		}
	}
}

// seriesOf returns the observations of one (VP, family), nil when there are
// none.
func (c *Colocation) seriesOf(vpIdx int, f topology.Family) []float64 {
	if k := vpIdx*2 + int(f); uint(f) <= 1 && k < len(c.series) {
		return c.series[k]
	}
	return nil
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
		if s := c.seriesOf(vpIdx, f); len(s) > 0 {
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
			if s := c.seriesOf(vpIdx, f); len(s) > 0 {
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
