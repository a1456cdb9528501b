// Package propagation implements the high-frequency SOA experiment the
// paper's Appendix E recommends as future work ("Limited Temporal
// Resolution"): probing SOA serials at per-second resolution around a zone
// publication to measure how quickly each deployment's sites converge on a
// new serial. The 30/15-minute campaign cadence cannot see this; a
// dedicated SOA-only prober can.
package propagation

import (
	"fmt"
	"io"
	"math"
	"math/rand"
	"sort"
	"time"

	"repro/internal/anycast"
	"repro/internal/rss"
	"repro/internal/stats"
	"repro/internal/topology"
	"repro/internal/vantage"
)

// SyncModel describes how a deployment distributes a new zone serial to its
// sites: each site applies the update after a log-normally distributed lag.
type SyncModel struct {
	// MedianLag is the median site update lag.
	MedianLag time.Duration
	// Sigma is the log-normal shape (larger = heavier tail of stragglers).
	Sigma float64
}

// DefaultSyncModels gives per-letter distribution models: most letters sync
// within tens of seconds; a couple have heavier tails (the paper's stale
// d.root sites are the extreme of such a tail).
func DefaultSyncModels() map[rss.Letter]SyncModel {
	out := make(map[rss.Letter]SyncModel, 13)
	for _, l := range rss.Letters() {
		out[l] = SyncModel{MedianLag: 25 * time.Second, Sigma: 0.6}
	}
	out["d"] = SyncModel{MedianLag: 45 * time.Second, Sigma: 1.1}
	out["j"] = SyncModel{MedianLag: 35 * time.Second, Sigma: 0.9}
	return out
}

// SiteLags draws the per-site lag for one publication event.
func SiteLags(d *anycast.Deployment, m SyncModel, seed int64) map[string]time.Duration {
	rng := rand.New(rand.NewSource(seed))
	out := make(map[string]time.Duration, len(d.Sites))
	mu := math.Log(m.MedianLag.Seconds())
	for _, s := range d.Sites {
		lag := math.Exp(rng.NormFloat64()*m.Sigma + mu)
		out[s.ID] = time.Duration(lag * float64(time.Second))
	}
	return out
}

// Observation is one per-second SOA probe result.
type Observation struct {
	Offset time.Duration // since publication
	Serial uint32
}

// Probe simulates a VP probing one deployment's SOA once per second for
// the window after publication. Anycast site changes mid-window can make
// the observed serial flap between old and new — the effect per-second
// probing exposes.
func Probe(catch *anycast.Catchment, vp *vantage.VP, lags map[string]time.Duration,
	oldSerial, newSerial uint32, window time.Duration, seed int64) []Observation {
	n := int(window / time.Second)
	out := make([]Observation, 0, n)
	for i := 0; i < n; i++ {
		route, ok := catch.SelectAt(vp.ASN, i, seed, 1)
		if !ok {
			continue
		}
		serial := oldSerial
		if lag, found := lags[route.Origin.SiteID]; found && time.Duration(i)*time.Second >= lag {
			serial = newSerial
		}
		out = append(out, Observation{Offset: time.Duration(i) * time.Second, Serial: serial})
	}
	return out
}

// FirstSeen returns when the new serial was first observed (-1 if never).
func FirstSeen(obs []Observation, newSerial uint32) time.Duration {
	for _, o := range obs {
		if o.Serial == newSerial {
			return o.Offset
		}
	}
	return -1
}

// Flaps counts old→new→old serial regressions, the signature of partially
// synced anycast catchment changes.
func Flaps(obs []Observation, newSerial uint32) int {
	flaps := 0
	seenNew := false
	for _, o := range obs {
		if o.Serial == newSerial {
			seenNew = true
		} else if seenNew {
			flaps++
			seenNew = false
		}
	}
	return flaps
}

// Experiment runs the per-second SOA study for all letters in one family.
type Experiment struct {
	// Catchments are the letters' catchments, keyed by letter then family,
	// as measure.World holds them.
	Catchments map[rss.Letter]map[topology.Family]*anycast.Catchment
	Population *vantage.Population
	Models     map[rss.Letter]SyncModel
	// Window is the probing duration after publication.
	Window time.Duration
	// Seed drives lags and probing.
	Seed int64
}

// LetterResult summarizes one deployment's convergence.
type LetterResult struct {
	Letter rss.Letter
	// FirstSeen is the per-VP time (seconds) until the new serial appears.
	FirstSeen []float64
	// SiteLags is the per-site applied-lag distribution (seconds).
	SiteLags []float64
	// FlapVPs counts VPs that observed serial regressions.
	FlapVPs int
}

// Run executes the experiment.
func (e *Experiment) Run(f topology.Family) []LetterResult {
	window := e.Window
	if window <= 0 {
		window = 3 * time.Minute
	}
	const oldSerial, newSerial = 2023112000, 2023112001
	results := make([]LetterResult, 0, 13)
	for _, l := range rss.Letters() {
		catch := e.Catchments[l][f]
		lags := SiteLags(catch.Deployment, e.Models[l], e.Seed^int64(l.Index()))
		res := LetterResult{Letter: l}
		for id := range lags {
			res.SiteLags = append(res.SiteLags, lags[id].Seconds())
		}
		sort.Float64s(res.SiteLags)
		for i := range e.Population.VPs {
			vp := &e.Population.VPs[i]
			obs := Probe(catch, vp, lags, oldSerial, newSerial, window, e.Seed)
			if len(obs) == 0 {
				continue
			}
			if first := FirstSeen(obs, newSerial); first >= 0 {
				res.FirstSeen = append(res.FirstSeen, first.Seconds())
			}
			if Flaps(obs, newSerial) > 0 {
				res.FlapVPs++
			}
		}
		results = append(results, res)
	}
	return results
}

// Write renders the convergence summary.
func Write(w io.Writer, results []LetterResult) {
	fmt.Fprintln(w, "Per-second SOA propagation after a zone publication")
	fmt.Fprintln(w, "root   site-lag p50/p90 (s)   first-seen p50/p90 (s)   VPs-with-flaps")
	for _, r := range results {
		fmt.Fprintf(w, "%-5s  %8.0f / %-8.0f    %8.0f / %-8.0f    %d\n",
			r.Letter,
			stats.Quantile(r.SiteLags, 0.5), stats.Quantile(r.SiteLags, 0.9),
			stats.Quantile(r.FirstSeen, 0.5), stats.Quantile(r.FirstSeen, 0.9),
			r.FlapVPs)
	}
}
