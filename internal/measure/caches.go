package measure

import (
	"maps"
	"sync"

	"repro/internal/telemetry"
)

// flightCache is a thread-safe, single-flight cache of build results keyed
// by K. Single-flight matters under the parallel campaign engine: signing a
// zone and running the full ldns-style validation are the most expensive
// steps on the transfer path, both are pure functions of their key, and two
// workers hitting the same key at once must not both pay for it (or race on
// the map).
type flightCache[K comparable, V any] struct {
	//rootlint:immutable-after-start
	hits, misses *telemetry.Counter
	mu           sync.Mutex
	//rootlint:guardedby mu
	entries map[K]*flightEntry[V]
}

type flightEntry[V any] struct {
	once sync.Once
	v    V
}

func newFlightCache[K comparable, V any](hits, misses *telemetry.Counter) *flightCache[K, V] {
	return &flightCache[K, V]{hits: hits, misses: misses, entries: make(map[K]*flightEntry[V])}
}

// get returns the cached value for key, building it via build exactly once
// no matter how many goroutines ask concurrently.
func (fc *flightCache[K, V]) get(key K, build func() V) V {
	fc.mu.Lock()
	e := fc.entries[key]
	if e == nil {
		e = &flightEntry[V]{}
		fc.entries[key] = e
		fc.misses.Inc()
	} else {
		fc.hits.Inc()
	}
	fc.mu.Unlock()
	e.once.Do(func() { e.v = build() })
	return e.v
}

// forget drops the entries whose key the caller knows will not be asked for
// again; one that is, is simply built — and counted as a miss — again.
func (fc *flightCache[K, V]) forget(stale func(K) bool) {
	fc.mu.Lock()
	defer fc.mu.Unlock()
	maps.DeleteFunc(fc.entries, func(k K, _ *flightEntry[V]) bool { return stale(k) })
}
