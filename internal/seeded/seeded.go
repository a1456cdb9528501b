// Package seeded is the repo's one seeded-hash helper: every decision that
// must be a pure function of (seed, coordinates) — a lost probe, a dropped
// packet, a sampled query, a backoff jitter, a route flap, an unresponsive
// traceroute hop — is Mix applied to the seed combined with the coordinates,
// keyed where needed by an FNV-1a hash of the identifying bytes, and mapped
// to a probability with Unit. A decision that needs several numbers takes
// Draw(key, 0), Draw(key, 1), ... rather than seeding a generator to read
// its first few outputs. No generator state, no allocation, no wall clock.
// How seed and coordinates are combined stays with each caller: those
// combinations are the separate models (campaign loss, link loss, RRL slip
// phase, sampling, route flap, hop miss) and changing one would shift its
// every recorded output.
//
// A leaf package: it imports nothing.
package seeded

// Mix is one SplitMix64 step: the golden-ratio increment, then the
// finalizer. A bijective, full-avalanche mix, so consecutive inputs give
// independent-looking outputs.
func Mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Draw is the k-th number of the sequence keyed by key, a pure function of
// (key, k). The key is mixed before the counter is added, so keys that differ
// by one (consecutive ticks, say) do not share draws at neighbouring k.
func Draw(key uint64, k int) uint64 { return Mix(Mix(key) + uint64(k)) }

// Unit maps a hash onto [0, 1) uniformly: its top 53 bits, the most a
// float64 mantissa holds.
func Unit(h uint64) float64 { return float64(h>>11) / (1 << 53) }

// FNVBasis is the standard 64-bit FNV-1a offset basis.
const FNVBasis uint64 = 14695981039346656037

const fnvPrime = 1099511628211

// FNV is 64-bit FNV-1a over b starting from basis (FNVBasis, unless a call
// site is pinned to another value by outputs already recorded).
func FNV(basis uint64, b []byte) uint64 {
	h := basis
	for _, c := range b {
		h = (h ^ uint64(c)) * fnvPrime
	}
	return h
}

// FNVString is FNV over the bytes of s, without converting it.
func FNVString(basis uint64, s string) uint64 {
	h := basis
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * fnvPrime
	}
	return h
}
