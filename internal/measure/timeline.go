// Package measure implements the NLNOG-DNS-1 campaign engine: it walks the
// paper's measurement timeline (Fig. 2), runs the per-interval probe battery
// from every vantage point against all 28 root service addresses
// (13 letters x 2 families plus b.root's old pair), and streams probe and
// zone-transfer events to analysis handlers. Zone contents evolve on the
// real rollout schedule (ZONEMD placeholder from 2023-09-13, verifiable from
// 2023-12-06) and planned faults (bitflips, stale sites, VP clock skew)
// surface as cryptographically real validation failures.
package measure

import "time"

// Timeline milestones (UTC), from the paper's Fig. 2.
var (
	// StudyStart and StudyEnd bound the campaign (2023-07-03 to 2023-12-24).
	StudyStart = time.Date(2023, 7, 3, 0, 0, 0, 0, time.UTC)
	StudyEnd   = time.Date(2023, 12, 24, 0, 0, 0, 0, time.UTC)
	// AXFRStart is when ZONEMD and AXFR queries were added (2023-07-31).
	AXFRStart = time.Date(2023, 7, 31, 0, 0, 0, 0, time.UTC)
)

// fastWindow is a period measured at 15-minute instead of 30-minute
// intervals.
type fastWindow struct{ start, end time.Time }

// fastWindows are the two high-resolution periods around the ZONEMD rollout
// and the b.root change.
var fastWindows = []fastWindow{
	{time.Date(2023, 9, 8, 0, 0, 0, 0, time.UTC), time.Date(2023, 10, 2, 0, 0, 0, 0, time.UTC)},
	{time.Date(2023, 11, 20, 0, 0, 0, 0, time.UTC), time.Date(2023, 12, 6, 0, 0, 0, 0, time.UTC)},
}

// BaseInterval returns the unscaled measurement interval in effect at t.
func BaseInterval(t time.Time) time.Duration {
	for _, w := range fastWindows {
		if !t.Before(w.start) && t.Before(w.end) {
			return 15 * time.Minute
		}
	}
	return 30 * time.Minute
}

// Tick is one campaign measurement round.
type Tick struct {
	Index int
	Time  time.Time
}

// Ticks enumerates the campaign's measurement rounds between start and end
// with the interval scaled by scale (1 = the paper's fidelity; larger values
// thin the schedule proportionally while preserving the fast windows'
// doubled density).
func Ticks(start, end time.Time, scale int) []Tick {
	if scale < 1 {
		scale = 1
	}
	var out []Tick
	t := start
	for i := 0; t.Before(end); i++ {
		out = append(out, Tick{Index: i, Time: t})
		t = t.Add(BaseInterval(t) * time.Duration(scale))
	}
	return out
}

// SerialAt returns the root zone SOA serial in effect at t: the conventional
// YYYYMMDDNN scheme with two revisions per day (NN = 00 before 12:00 UTC,
// 01 after).
func SerialAt(t time.Time) uint32 {
	rev := 0
	if t.Hour() >= 12 {
		rev = 1
	}
	return uint32(t.Year()*1000000 + int(t.Month())*10000 + t.Day()*100 + rev)
}

// SerialPublishedAt returns the moment the serial in effect at t was
// published (00:00 or 12:00 UTC of its day).
func SerialPublishedAt(t time.Time) time.Time {
	hour := 0
	if t.Hour() >= 12 {
		hour = 12
	}
	return time.Date(t.Year(), t.Month(), t.Day(), hour, 0, 0, 0, time.UTC)
}
