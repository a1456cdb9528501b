package telemetry

import (
	"fmt"
	"math/bits"
	"sync"
	"sync/atomic"
)

// NumShards is the fixed shard count for counters. Workers index shards by
// worker id masked to this power of two; the exported value is always the
// sum over shards, so the shard count never shows in any snapshot.
const NumShards = 8

// shardMask masks a worker id into a shard index.
const shardMask = NumShards - 1

// paddedInt64 is one cache-line-sized counter slot, padded so two workers
// bumping adjacent shards never share a line.
type paddedInt64 struct {
	v atomic.Int64
	_ [56]byte
}

// Counter is a monotone sharded counter. Inc/Add touch shard 0 (fine for
// serial call sites: the drain barrier, caches under their own mutex);
// worker loops use ShardInc with their worker id so concurrent
// increments never contend on one cache line.
type Counter struct {
	shards [NumShards]paddedInt64
}

// Inc adds 1 on shard 0.
func (c *Counter) Inc() { c.shards[0].v.Add(1) }

// Add adds n on shard 0.
func (c *Counter) Add(n int64) { c.shards[0].v.Add(n) }

// ShardInc adds 1 on the worker's shard.
func (c *Counter) ShardInc(worker int) { c.shards[worker&shardMask].v.Add(1) }

// Value sums the shards. The sum is commutative, so it is independent of
// which worker incremented which shard.
func (c *Counter) Value() int64 {
	var total int64
	for i := range c.shards {
		total += c.shards[i].v.Load()
	}
	return total
}

// reset zeroes every shard.
func (c *Counter) reset() {
	for i := range c.shards {
		c.shards[i].v.Store(0)
	}
}

// setTotal overwrites the counter with an absolute value (checkpoint
// restore): the value lands on shard 0, all other shards zero.
func (c *Counter) setTotal(v int64) {
	c.reset()
	c.shards[0].v.Store(v)
}

// Gauge is a single settable value.
type Gauge struct {
	v atomic.Int64
}

// Set stores v.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add adjusts the gauge by delta.
func (g *Gauge) Add(delta int64) { g.v.Add(delta) }

// Value reads the gauge.
func (g *Gauge) Value() int64 { return g.v.Load() }

func (g *Gauge) reset() { g.v.Store(0) }

// histBuckets is the histogram resolution: power-of-two buckets, bucket i
// covering [2^(i-1), 2^i). 48 buckets cover any microsecond duration a
// campaign could produce.
const histBuckets = 48

// Histogram accumulates value observations into power-of-two buckets.
// Histograms back the wall-clock namespace: Observe is only called behind
// the Enabled gate, so a run without telemetry flags never pays for it.
type Histogram struct {
	count   atomic.Int64
	sum     atomic.Int64
	buckets [histBuckets]atomic.Int64
}

// Observe records one value (negative values clamp to zero).
func (h *Histogram) Observe(v int64) {
	if v < 0 {
		v = 0
	}
	idx := bits.Len64(uint64(v))
	if idx >= histBuckets {
		idx = histBuckets - 1
	}
	h.count.Add(1)
	h.sum.Add(v)
	h.buckets[idx].Add(1)
}

// Count reports how many observations landed.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum reports the observation total.
func (h *Histogram) Sum() int64 { return h.sum.Load() }

// BucketCounts returns the non-empty buckets as [upper-bound, count] pairs
// with power-of-two exclusive upper bounds, in ascending order — the same
// shape Snapshot exports, so in-process consumers (rootblast's latency
// report) and readers of the JSON snapshot compute identical quantiles.
func (h *Histogram) BucketCounts() [][2]int64 {
	var out [][2]int64
	for i := range h.buckets {
		if n := h.buckets[i].Load(); n > 0 {
			out = append(out, [2]int64{bucketUpper(i), n})
		}
	}
	return out
}

// Quantile estimates the q-quantile (q in [0,1]) of the observed
// distribution. See QuantileFromBuckets for the estimation contract.
func (h *Histogram) Quantile(q float64) int64 {
	return QuantileFromBuckets(h.BucketCounts(), q)
}

// QuantileFromBuckets estimates the q-quantile of a power-of-two bucket
// distribution in Snapshot/BucketCounts form: the bucket holding the q-th
// ranked observation is located by cumulative count, and the estimate
// interpolates linearly between the bucket's bounds ([upper/2, upper), with
// bucket 1 holding only zeros). Resolution is therefore a factor of two in
// the worst case — adequate for latency reporting, where the buckets are
// microseconds. Returns 0 when the distribution is empty.
func QuantileFromBuckets(buckets [][2]int64, q float64) int64 {
	var total int64
	for _, b := range buckets {
		total += b[1]
	}
	if total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(total)
	var cum float64
	for _, b := range buckets {
		upper, n := b[0], b[1]
		if cum+float64(n) < rank {
			cum += float64(n)
			continue
		}
		lower := upper / 2
		if upper == 1 {
			lower = 0
		}
		frac := (rank - cum) / float64(n)
		return lower + int64(frac*float64(upper-lower))
	}
	last := buckets[len(buckets)-1][0]
	return last
}

func (h *Histogram) reset() {
	h.count.Store(0)
	h.sum.Store(0)
	for i := range h.buckets {
		h.buckets[i].Store(0)
	}
}

// --- registry claims --------------------------------------------------------

var (
	claimMu sync.Mutex
	claimed = make(map[string]any) // name -> *Counter | *Gauge | *Histogram
	enabled atomic.Bool
)

// SetEnabled switches the nondeterministic layer (wall-clock histograms,
// timers) on or off. Logical counters and gauges are always live: they cost
// one uncontended atomic add and feed the determinism tests.
func SetEnabled(on bool) { enabled.Store(on) }

// claim registers a metric instance for name, panicking on any misuse: a
// name missing from the registry, a kind mismatch, or a second claim. These
// are programming errors the metricname analyzer catches statically; the
// panic keeps a dynamically constructed bypass from shipping.
func claim(name string, kind Kind, m any) {
	def := lookupDef(name)
	if def == nil {
		panic(fmt.Sprintf("telemetry: metric %q is not in the registry", name))
	}
	if def.Kind != kind {
		panic(fmt.Sprintf("telemetry: metric %q is registered as a %s, not a %s", name, def.Kind, kind))
	}
	claimMu.Lock()
	defer claimMu.Unlock()
	if _, dup := claimed[name]; dup {
		panic(fmt.Sprintf("telemetry: metric %q constructed twice", name))
	}
	claimed[name] = m
}

// NewCounter claims the named counter. Call once, from a package-level var.
func NewCounter(name string) *Counter {
	c := &Counter{}
	claim(name, KindCounter, c)
	return c
}

// NewGauge claims the named gauge.
func NewGauge(name string) *Gauge {
	g := &Gauge{}
	claim(name, KindGauge, g)
	return g
}

// NewHistogram claims the named histogram.
func NewHistogram(name string) *Histogram {
	h := &Histogram{}
	claim(name, KindHistogram, h)
	return h
}

// claimedMetric returns the instance claimed for name, if any. Metrics whose
// claiming package is not linked into the binary are simply absent; snapshots
// render them as zeros so the output shape is a pure function of the
// registry.
func claimedMetric(name string) (any, bool) {
	claimMu.Lock()
	defer claimMu.Unlock()
	m, ok := claimed[name]
	return m, ok
}

// Reset zeroes every claimed metric and drops all recorded spans. Tests use
// it to run several campaigns in one process against a clean slate.
//
//rootlint:allow deadcode: the hook measure/chaos_test.go and the blast, core, dataset and dnsserver tests start from zeroed metrics with
func Reset() {
	claimMu.Lock()
	for _, m := range claimed {
		switch v := m.(type) {
		case *Counter:
			v.reset()
		case *Gauge:
			v.reset()
		case *Histogram:
			v.reset()
		}
	}
	claimMu.Unlock()
	resetSpans()
}
