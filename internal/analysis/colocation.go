package analysis

import (
	"fmt"
	"io"
	"math"
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
	// folded into its counts. Both tables grow to the largest VP seen.
	current []tickHops
	// counts[vp·2 + family][rr] is the number of ticks whose reduced
	// redundancy was rr, grown to the largest rr counted (≤ 12 in a campaign,
	// more after a crafted repeat of a tick): a last bucket is never empty.
	// Co-location is a property of the typical routing, so per-VP reporting
	// uses the median over ticks; the maximum backs "up to N co-located".
	counts [][]int
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
	if e.SecondToLast == "" && !e.STLOK && e.SiteID == "" {
		return // no hop and no site; a site without a hop counts as unique
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

// fold counts the in-progress tick of k and clears it.
func (c *Colocation) fold(k int) {
	th := &c.current[k]
	distinct := len(th.Hops) + th.Uniques
	rr := th.Total - distinct
	if rr < 0 {
		rr = 0
	}
	c.counts = growTo(c.counts, k+1)
	c.counts[k] = growTo(c.counts[k], rr+1)
	c.counts[k][rr]++
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

// countsOf returns the per-value tick counts of one (VP, family), nil when
// it has none.
func (c *Colocation) countsOf(vpIdx int, f topology.Family) []int {
	if k := vpIdx*2 + int(f); uint(f) <= 1 && k < len(c.counts) {
		return c.counts[k]
	}
	return nil
}

// medianOfCounts is stats.Median, bit for bit, of the series in which value
// v occurs counts[v] times (NaN when it is empty): its two middle order
// statistics, one and the same at an odd length, weighted ·0.5 each as
// stats.quantileSorted interpolates.
func medianOfCounts(counts []int) float64 {
	n := 0
	for _, c := range counts {
		n += c
	}
	return orderStat(counts, (n-1)/2)*0.5 + orderStat(counts, n/2)*0.5
}

// orderStat returns the i-th smallest value, from 0, of that series.
func orderStat(counts []int, i int) float64 {
	for v, c := range counts {
		if i -= c; i < 0 {
			return float64(v)
		}
	}
	return math.NaN()
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
		if s := c.countsOf(vpIdx, f); len(s) > 0 {
			out = append(out, medianOfCounts(s))
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
		found, any := false, false
		for _, f := range topology.Families() {
			if s := c.countsOf(vpIdx, f); len(s) > 0 {
				found = true
				any = any || medianOfCounts(s) >= 1
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
	maxV := 0
	for _, s := range c.counts {
		maxV = max(maxV, len(s)-1)
	}
	return maxV
}

// WriteFigure4 renders the per-continent reduced-redundancy histograms with
// the per-family averages the paper annotates.
func (c *Colocation) WriteFigure4(w io.Writer) {
	fmt.Fprintln(w, "Figure 4: reduced redundancy due to shared last hop, per continent")
	for _, region := range geo.Regions() {
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
