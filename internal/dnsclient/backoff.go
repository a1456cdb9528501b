package dnsclient

import (
	"time"

	"repro/internal/seeded"
)

// Backoff is the client's retry pacing policy: capped exponential growth
// with deterministic jitter. The zero value waits nothing between attempts,
// which is exactly dig's behavior — the measurement battery's documented
// `+retry=0 +timeout=1` semantics stay byte-for-byte intact unless a caller
// opts in (see DESIGN.md §14 for why the battery default must not change:
// the paper's loss-rate observable *is* the unretried timeout).
//
// Jitter is drawn from seeded.Mix(Seed, attempt), not from wall clock or
// global rand, so a retrying client under a seeded netem profile re-sends
// at reproducible offsets and a blast run's retry schedule is a pure
// function of its configuration.
type Backoff struct {
	// Base is the delay before the first re-send. 0 disables waiting.
	Base time.Duration
	// Cap bounds the exponential growth; 0 means 8×Base.
	Cap time.Duration
	// Seed roots the jitter stream.
	Seed uint64
}

// Delay returns the pause taken after send attempt `attempt` (0-based)
// fails, before the next re-send: Base<<attempt capped at Cap, then
// jittered into [d/2, d) so synchronized clients desynchronize. Zero Base
// always returns 0.
func (b Backoff) Delay(attempt int) time.Duration {
	if b.Base <= 0 {
		return 0
	}
	limit := b.Cap
	if limit <= 0 {
		limit = 8 * b.Base
	}
	d := b.Base
	for i := 0; i < attempt && d < limit; i++ {
		d <<= 1
	}
	if d > limit {
		d = limit
	}
	half := d / 2
	if half <= 0 {
		return d
	}
	frac := seeded.Unit(seeded.Mix(b.Seed ^ uint64(attempt)*0x9e3779b97f4a7c15))
	return half + time.Duration(frac*float64(half))
}
