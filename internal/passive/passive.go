// Package passive simulates the ISP-DNS-1 and IXP-DNS-1 datasets: sampled,
// prefix-aggregated flow traffic between resolver client subnets (/24 for
// IPv4, /48 for IPv6) and the root server prefixes, around b.root's
// 2023-11-27 renumbering. The resolver population model captures the paper's
// adoption mechanics: priming-capable clients (more common among
// IPv6-enabled, newer deployments) switch to the new address quickly and
// afterwards touch the old prefix only about once a day, while legacy
// clients keep querying the old address indefinitely. Regional CPE
// differences make European IXP traffic far more eager to move than North
// American traffic.
package passive

import (
	"math"
	"math/rand"
	"sort"
	"time"

	"repro/internal/rss"
	"repro/internal/topology"
)

// BRootChange is the renumbering date.
var BRootChange = time.Date(2023, 11, 27, 0, 0, 0, 0, time.UTC)

// primingDailyVolume is the expected sampled flow volume a switched,
// priming-capable client still sends to the old b.root prefix per day.
const primingDailyVolume = 0.25

// Observation windows of the two passive datasets (paper §4.1).
var (
	ISPPreDay   = time.Date(2023, 10, 8, 0, 0, 0, 0, time.UTC)
	ISPWindow2  = [2]time.Time{time.Date(2024, 2, 5, 0, 0, 0, 0, time.UTC), time.Date(2024, 3, 4, 0, 0, 0, 0, time.UTC)}
	ISPWindow3  = [2]time.Time{time.Date(2024, 4, 22, 0, 0, 0, 0, time.UTC), time.Date(2024, 4, 29, 0, 0, 0, 0, time.UTC)}
	IXPWindow1  = [2]time.Time{time.Date(2023, 10, 26, 0, 0, 0, 0, time.UTC), time.Date(2023, 12, 28, 0, 0, 0, 0, time.UTC)}
	ARootDipDay = time.Date(2024, 2, 26, 0, 0, 0, 0, time.UTC)
)

// Target identifies one root prefix from the passive perspective.
type Target struct {
	Letter rss.Letter
	Family topology.Family
	Old    bool // b.root's pre-renumbering prefix
}

// Client is one resolver subnet (/24 or /48) behind the tap.
type Client struct {
	ID int
	// Family is the address family this client record aggregates (the
	// datasets anonymize to per-family prefixes, so a dual-stack resolver
	// appears as two clients).
	Family topology.Family
	// RatePerDay is the client's mean root-bound flow count per day.
	RatePerDay float64
	// SwitchDelay is how long after the change the client adopts b.root's
	// new address; a negative value means it never switches in the study
	// horizon. Priming-capable clients have short delays.
	SwitchDelay time.Duration
	// Priming marks clients that, after switching, still touch the old
	// prefix once a day (the RFC 8109 priming pattern of Fig. 8).
	Priming bool
}

// Switched reports whether the client uses the new b.root prefix at t.
func (c Client) Switched(t time.Time) bool {
	if c.SwitchDelay < 0 {
		return false
	}
	return t.After(BRootChange.Add(c.SwitchDelay))
}

// letterShares approximate the per-letter traffic mix. ISP traffic is
// fairly even with b.root at ~4.9%; IXP traffic is dominated by k and d
// (paper Fig. 13).
var ispLetterShare = map[rss.Letter]float64{
	"a": 0.085, "b": 0.049, "c": 0.075, "d": 0.08, "e": 0.08, "f": 0.085,
	"g": 0.06, "h": 0.065, "i": 0.08, "j": 0.085, "k": 0.09, "l": 0.085, "m": 0.081,
}

var ixpLetterShare = map[rss.Letter]float64{
	"a": 0.05, "b": 0.03, "c": 0.05, "d": 0.21, "e": 0.06, "f": 0.07,
	"g": 0.03, "h": 0.04, "i": 0.07, "j": 0.08, "k": 0.24, "l": 0.05, "m": 0.02,
}

// Model is one passive vantage (the ISP, or one IXP region).
type Model struct {
	// Clients is the resolver population.
	Clients []Client
	// LetterShare is the per-letter traffic mix.
	LetterShare map[rss.Letter]float64
	// SampleRate is the flow sampling factor applied to emitted volumes.
	SampleRate float64

	families [2]family // by topology.Family: Clients as NewModel left them, for Volume
}

// ModelConfig parameterizes population generation.
type ModelConfig struct {
	Clients int
	Seed    int64
	// SwitchedV4 and SwitchedV6 are the fractions of in-family traffic that
	// has moved to the new b.root prefix by the late observation windows.
	SwitchedV4, SwitchedV6 float64
	// V6ClientFraction is the share of clients that are IPv6 records.
	V6ClientFraction float64
	V4Mix            float64
	LetterShare      map[rss.Letter]float64
}

// ISPConfig mirrors the paper's large European eyeball ISP: in-family shift
// ratios of 87.1% (IPv4) and 96.3% (IPv6).
func ISPConfig(clients int, seed int64) ModelConfig {
	return ModelConfig{
		Clients: clients, Seed: seed,
		// Targets slightly above the paper's measured in-family shift
		// ratios (87.1% / 96.3%): the priming trickle to the old prefix
		// drags the measured ratio down to those values.
		SwitchedV4: 0.885, SwitchedV6: 0.99,
		V6ClientFraction: 0.42, V4Mix: 0.82,
		LetterShare: ispLetterShare,
	}
}

// IXPConfigEU mirrors the European exchanges: 60.8% of IPv6 traffic shifts.
func IXPConfigEU(clients int, seed int64) ModelConfig {
	return ModelConfig{
		Clients: clients, Seed: seed,
		SwitchedV4: 0.75, SwitchedV6: 0.608,
		V6ClientFraction: 0.55, V4Mix: 0.35,
		LetterShare: ixpLetterShare,
	}
}

// IXPConfigNA mirrors the North American exchanges: only 16.5% of IPv6
// traffic shifts.
func IXPConfigNA(clients int, seed int64) ModelConfig {
	return ModelConfig{
		Clients: clients, Seed: seed,
		SwitchedV4: 0.70, SwitchedV6: 0.165,
		V6ClientFraction: 0.50, V4Mix: 0.35,
		LetterShare: ixpLetterShare,
	}
}

// NewModel generates the resolver population. Traffic volume is heavy-tailed
// (log-normal rates), and switching behavior is volume-weighted so the
// configured switched-traffic fractions hold approximately in flow volume,
// not client count.
func NewModel(cfg ModelConfig) *Model {
	rng := rand.New(rand.NewSource(cfg.Seed))
	m := &Model{
		LetterShare: cfg.LetterShare,
		SampleRate:  1.0 / 1024,
	}
	if m.LetterShare == nil {
		m.LetterShare = ispLetterShare
	}
	for i := 0; i < cfg.Clients; i++ {
		fam := topology.IPv4
		if rng.Float64() < cfg.V6ClientFraction {
			fam = topology.IPv6
		}
		rate := math.Exp(rng.NormFloat64()*1.6 + 5.0) // heavy tail, median ~150/day
		m.Clients = append(m.Clients, Client{
			ID:          i,
			Family:      fam,
			RatePerDay:  rate,
			SwitchDelay: -1,
		})
	}
	// Rescale IPv6 client rates so the family volume split matches V4Mix
	// (the paper's ISP sees 76-89% of b.root traffic on IPv4 pre-change).
	if cfg.V4Mix > 0 && cfg.V4Mix < 1 {
		var v4Vol, v6Vol float64
		for _, cl := range m.Clients {
			if cl.Family == topology.IPv4 {
				v4Vol += cl.RatePerDay
			} else {
				v6Vol += cl.RatePerDay
			}
		}
		if v4Vol > 0 && v6Vol > 0 {
			scale := (1 - cfg.V4Mix) / cfg.V4Mix * v4Vol / v6Vol
			for i := range m.Clients {
				if m.Clients[i].Family == topology.IPv6 {
					m.Clients[i].RatePerDay *= scale
				}
			}
		}
	}
	// The configured shift ratios are fractions of *traffic volume*, not of
	// clients; mark clients as switchers in random order until the switched
	// share of each family's volume reaches the target.
	for _, fam := range topology.Families() {
		target := cfg.SwitchedV4
		if fam == topology.IPv6 {
			target = cfg.SwitchedV6
		}
		var famTotal float64
		var idxs []int
		for i, cl := range m.Clients {
			if cl.Family == fam {
				famTotal += cl.RatePerDay
				idxs = append(idxs, i)
			}
		}
		rng.Shuffle(len(idxs), func(a, b int) { idxs[a], idxs[b] = idxs[b], idxs[a] })
		var switched float64
		for _, i := range idxs {
			if switched >= target*famTotal {
				break
			}
			cl := &m.Clients[i]
			switched += cl.RatePerDay
			// Switchers adopt within days of the change; IPv6-enabled
			// resolvers tend to be newer software that primes on restart.
			cl.SwitchDelay = time.Duration(rng.ExpFloat64()*48) * time.Hour
			cl.Priming = fam == topology.IPv6 && rng.Float64() < 0.8 ||
				fam == topology.IPv4 && rng.Float64() < 0.4
		}
		m.families[fam] = newFamily(m.Clients, fam)
	}
	return m
}

// diurnal scales traffic by hour of day (UTC) with a mild day/night swing.
func diurnal(t time.Time) float64 {
	hour, minute, _ := t.Clock()
	return diurnalByMinute[hour][minute]
}

// diurnalByMinute holds diurnal's swing for every minute of the day, built
// once: it is read per (target, hour).
var diurnalByMinute = func() (swing [24][60]float64) {
	for hour := range swing {
		for minute := range swing[hour] {
			h := float64(hour) + float64(minute)/60
			swing[hour][minute] = 1 + 0.35*math.Sin((h-9)*math.Pi/12)
		}
	}
	return swing
}()

// rates is what a client of a target's family sends to the target in one
// hour, per unit of its RatePerDay, once it has switched to b.root's new
// prefix and before, and what a switched priming client adds.
type rates struct{ switched, unswitched, priming float64 }

// of returns what cl, of the target's family, sends in the hour starting at t.
func (r rates) of(cl Client, t time.Time) float64 {
	switch {
	case !cl.Switched(t):
		return cl.RatePerDay * r.unswitched
	case cl.Priming:
		return cl.RatePerDay*r.switched + r.priming
	}
	return cl.RatePerDay * r.switched
}

// hour returns target's rates in the hour starting at t. Volume and
// ClientDayActivity both read it, so the closed form and the per-client sums
// cannot drift apart. b.root's old/new split follows the client's switch
// state; other letters ignore Old.
func (m *Model) hour(target Target, t time.Time) rates {
	base := diurnal(t) / 24 * m.LetterShare[target.Letter] * m.SampleRate * 1024
	if target.Letter == "a" && t.Truncate(24*time.Hour).Equal(ARootDipDay) {
		base *= 0.45 // the unexplained a.root dip of Fig. 12
	}
	switch {
	case target.Letter != "b":
		if target.Old {
			return rates{}
		}
		return rates{base, base, 0}
	case t.Before(BRootChange):
		// Pre-change: the new prefix is operational but unannounced in the
		// root zone; it draws a sliver of traffic (paper: 0.8%). No client
		// has switched yet.
		if target.Old {
			return rates{unswitched: base * 0.992}
		}
		return rates{unswitched: base * 0.008}
	case target.Old:
		// One priming query per day; under the traces' heavy flow sampling
		// only a fraction of these single-packet flows surfaces.
		return rates{unswitched: base, priming: primingDailyVolume / 24 * m.SampleRate * 1024}
	}
	return rates{switched: base}
}

// family is one family's clients in switch order, never-switchers last, with
// running sums that give an hour's volume without a loop over clients: at k,
// the rate and the priming clients among the first k, and the rest's rate.
type family struct {
	clients                       []Client
	switched, priming, unswitched []float64
}

func newFamily(all []Client, f topology.Family) (fam family) {
	for _, cl := range all {
		if cl.Family == f {
			fam.clients = append(fam.clients, cl)
		}
	}
	// A never-switcher's negative delay sorts last as unsigned.
	sort.SliceStable(fam.clients, func(i, j int) bool {
		return uint64(fam.clients[i].SwitchDelay) < uint64(fam.clients[j].SwitchDelay)
	})
	n := len(fam.clients)
	fam.switched, fam.priming, fam.unswitched = make([]float64, n+1), make([]float64, n+1), make([]float64, n+1)
	for i, cl := range fam.clients {
		fam.switched[i+1] = fam.switched[i] + cl.RatePerDay
		fam.priming[i+1] = fam.priming[i]
		if cl.Priming {
			fam.priming[i+1]++
		}
		fam.unswitched[n-1-i] = fam.unswitched[n-i] + fam.clients[n-1-i].RatePerDay
	}
	return fam
}

// Volume returns the population's total volume to target over the hours
// starting in [start, end): each hour's rates times the family's running
// sums at the clients switched by then.
func (m *Model) Volume(target Target, start, end time.Time) (sum float64) {
	fam, k := &m.families[target.Family], 0
	for t := start; t.Before(end); t = t.Add(time.Hour) {
		for k < len(fam.clients) && fam.clients[k].Switched(t) {
			k++
		}
		r := m.hour(target, t)
		sum += r.switched*fam.switched[k] + r.unswitched*fam.unswitched[k] + r.priming*fam.priming[k]
	}
	return sum
}

// ShiftRatio computes the in-family fraction of b.root traffic on the new
// prefix during [start, end): new / (new + old).
func (m *Model) ShiftRatio(f topology.Family, start, end time.Time) float64 {
	nv := m.Volume(Target{Letter: "b", Family: f}, start, end)
	ov := m.Volume(Target{Letter: "b", Family: f, Old: true}, start, end)
	if nv+ov == 0 {
		return 0
	}
	return nv / (nv + ov)
}

// ClientDayActivity returns, per client that contacted the target at all,
// its expected flows per day to the target during the day starting at t.
func (m *Model) ClientDayActivity(target Target, day time.Time) []float64 {
	var hours [24]rates
	for h := range hours {
		hours[h] = m.hour(target, day.Add(time.Duration(h)*time.Hour))
	}
	var out []float64
	for _, cl := range m.Clients {
		if cl.Family != target.Family {
			continue
		}
		var sum float64
		for h, r := range hours {
			sum += r.of(cl, day.Add(time.Duration(h)*time.Hour))
		}
		if sum > 0 {
			out = append(out, sum)
		}
	}
	return out
}
