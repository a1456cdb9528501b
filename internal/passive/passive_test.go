package passive

import (
	"math"
	"testing"
	"time"

	"repro/internal/rss"
	"repro/internal/stats"
	"repro/internal/topology"
)

func ispModel() *Model   { return NewModel(ISPConfig(2000, 1)) }
func ixpEUModel() *Model { return NewModel(IXPConfigEU(2000, 2)) }
func ixpNAModel() *Model { return NewModel(IXPConfigNA(2000, 3)) }

func TestPopulationShape(t *testing.T) {
	m := ispModel()
	if len(m.Clients) != 2000 {
		t.Fatalf("clients = %d", len(m.Clients))
	}
	v6 := 0
	for _, c := range m.Clients {
		if c.Family == topology.IPv6 {
			v6++
		}
		if c.RatePerDay <= 0 {
			t.Fatalf("client %d rate %f", c.ID, c.RatePerDay)
		}
	}
	frac := float64(v6) / float64(len(m.Clients))
	if frac < 0.35 || frac > 0.50 {
		t.Errorf("v6 client fraction = %.2f", frac)
	}
}

func TestModelDeterministic(t *testing.T) {
	a, b := ispModel(), ispModel()
	for i := range a.Clients {
		if a.Clients[i] != b.Clients[i] {
			t.Fatalf("client %d differs", i)
		}
	}
}

func TestPreChangeTrafficMix(t *testing.T) {
	m := ispModel()
	day := ISPPreDay
	volume := func(f topology.Family, old bool) float64 {
		return m.Volume(Target{Letter: "b", Family: f, Old: old}, day, day.Add(24*time.Hour))
	}
	newV4, oldV4 := volume(topology.IPv4, false), volume(topology.IPv4, true)
	newV6, oldV6 := volume(topology.IPv6, false), volume(topology.IPv6, true)
	total := newV4 + oldV4 + newV6 + oldV6
	if total == 0 {
		t.Fatal("no pre-change traffic")
	}
	// Paper: old v4 76.1-88.9%, old v6 10.0-21.0%, new ~0.8%.
	oldV4Share := oldV4 / total
	oldV6Share := oldV6 / total
	newShare := (newV4 + newV6) / total
	if oldV4Share < 0.6 || oldV4Share > 0.95 {
		t.Errorf("old v4 share = %.3f", oldV4Share)
	}
	if oldV6Share < 0.05 || oldV6Share > 0.35 {
		t.Errorf("old v6 share = %.3f", oldV6Share)
	}
	if newShare < 0.001 || newShare > 0.03 {
		t.Errorf("new share = %.4f, want ~0.008", newShare)
	}
}

func TestISPShiftRatios(t *testing.T) {
	m := ispModel()
	start, end := ISPWindow2[0], ISPWindow2[0].Add(7*24*time.Hour)
	v4 := m.ShiftRatio(topology.IPv4, start, end)
	v6 := m.ShiftRatio(topology.IPv6, start, end)
	// Paper: 87.1% v4, 96.3% v6. Volume weighting adds noise; check shape.
	if math.Abs(v4-0.871) > 0.10 {
		t.Errorf("v4 shift ratio = %.3f, want ~0.871", v4)
	}
	if math.Abs(v6-0.963) > 0.06 {
		t.Errorf("v6 shift ratio = %.3f, want ~0.963", v6)
	}
	if v6 <= v4 {
		t.Errorf("v6 (%.3f) must shift more eagerly than v4 (%.3f)", v6, v4)
	}
}

func TestIXPRegionalShift(t *testing.T) {
	start, end := IXPWindow1[0].AddDate(0, 1, 5), IXPWindow1[1] // post-change portion
	eu := ixpEUModel().ShiftRatio(topology.IPv6, start, end)
	na := ixpNAModel().ShiftRatio(topology.IPv6, start, end)
	if math.Abs(eu-0.608) > 0.12 {
		t.Errorf("EU v6 shift = %.3f, want ~0.608", eu)
	}
	if math.Abs(na-0.165) > 0.10 {
		t.Errorf("NA v6 shift = %.3f, want ~0.165", na)
	}
	if eu <= na {
		t.Error("EU must shift more than NA")
	}
}

func TestPrimingOnceADayPattern(t *testing.T) {
	m := ispModel()
	day := ISPWindow2[0]
	oldV6 := Target{Letter: "b", Family: topology.IPv6, Old: true}
	newV6 := Target{Letter: "b", Family: topology.IPv6, Old: false}
	oldAct := m.ClientDayActivity(oldV6, day)
	newAct := m.ClientDayActivity(newV6, day)
	if len(oldAct) == 0 || len(newAct) == 0 {
		t.Fatal("no post-change client activity")
	}
	// Old v6 prefix: dominated by ~1 flow/day priming contacts, so its
	// median per-client volume must be far below the new prefix's.
	if stats.Median(oldAct) >= stats.Median(newAct) {
		t.Errorf("old v6 median %.2f >= new v6 median %.2f",
			stats.Median(oldAct), stats.Median(newAct))
	}
	ones := 0
	for _, a := range oldAct {
		if a <= 1.5 {
			ones++
		}
	}
	if frac := float64(ones) / float64(len(oldAct)); frac < 0.4 {
		t.Errorf("only %.2f of old-v6 clients show once-a-day contact", frac)
	}
}

func TestLetterShares(t *testing.T) {
	day := ISPWindow2[0]
	letterVolumes := func(m *Model) (map[rss.Letter]float64, float64) {
		out := map[rss.Letter]float64{}
		var total float64
		for _, tgt := range letterTargets() {
			v := m.Volume(tgt, day, day.Add(24*time.Hour))
			out[tgt.Letter] += v
			total += v
		}
		return out, total
	}
	volumes, total := letterVolumes(ispModel())
	share := volumes["b"] / total
	// Paper: b.root 4.46-4.90% of ISP root traffic.
	if share < 0.02 || share > 0.09 {
		t.Errorf("b.root share = %.4f", share)
	}
	// IXP traffic must be dominated by k and d.
	shares, itotal := letterVolumes(ixpEUModel())
	if shares["k"]/itotal < 0.15 || shares["d"]/itotal < 0.12 {
		t.Errorf("IXP k=%.3f d=%.3f; want k,d dominant",
			shares["k"]/itotal, shares["d"]/itotal)
	}
}

func TestARootDip(t *testing.T) {
	m := ispModel()
	aTarget := Target{Letter: "a", Family: topology.IPv4}
	dip := m.Volume(aTarget, ARootDipDay, ARootDipDay.Add(24*time.Hour))
	normal := m.Volume(aTarget, ARootDipDay.AddDate(0, 0, 1), ARootDipDay.AddDate(0, 0, 2))
	if dip >= normal*0.7 {
		t.Errorf("a.root dip day %.1f vs normal %.1f; expected a clear dip", dip, normal)
	}
}

func TestDiurnalPattern(t *testing.T) {
	m := ispModel()
	day := ISPWindow2[0]
	k := Target{Letter: "k", Family: topology.IPv4}
	minV, maxV := math.Inf(1), math.Inf(-1)
	for at := day; at.Before(day.Add(24 * time.Hour)); at = at.Add(time.Hour) {
		v := m.Volume(k, at, at.Add(time.Hour))
		if v < minV {
			minV = v
		}
		if v > maxV {
			maxV = v
		}
	}
	if maxV <= minV*1.2 {
		t.Error("no diurnal swing in hourly traffic")
	}
}

func TestOldPrefixOnlyForB(t *testing.T) {
	m := ispModel()
	day := ISPWindow2[0]
	if m.Volume(Target{Letter: "k", Family: topology.IPv4, Old: true}, day, day.Add(2*time.Hour)) != 0 {
		t.Error("non-b letter has old-prefix traffic")
	}
}

// TestDiurnalTableIsTheSwing: the table diurnal reads gives, bit for bit, the
// swing computed from the time of day, at every minute and whatever the
// seconds or the date.
func TestDiurnalTableIsTheSwing(t *testing.T) {
	day := time.Date(2023, 10, 2, 0, 0, 0, 0, time.UTC)
	for m := 0; m < 24*60; m++ {
		at := day.Add(time.Duration(m)*time.Minute + time.Duration(m%60)*time.Second)
		h := float64(at.Hour()) + float64(at.Minute())/60
		want := 1 + 0.35*math.Sin((h-9)*math.Pi/12)
		if got := diurnal(at); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%s: diurnal = %v, want %v", at.Format("15:04:05"), got, want)
		}
	}
}

// letterTargets is one target per letter and family, new prefixes.
func letterTargets() []Target {
	var out []Target
	for _, l := range rss.Letters() {
		for _, f := range topology.Families() {
			out = append(out, Target{Letter: l, Family: f})
		}
	}
	return out
}

// referenceFlowVolume is one client's sampled flow volume to target in the
// hour starting at t, written out case by case, without the rates that
// Volume and ClientDayActivity share.
func referenceFlowVolume(m *Model, cl Client, target Target, t time.Time) float64 {
	if cl.Family != target.Family {
		return 0
	}
	base := cl.RatePerDay / 24 * diurnal(t) * m.LetterShare[target.Letter] * m.SampleRate * 1024
	if target.Letter == "a" && t.Year() == ARootDipDay.Year() && t.YearDay() == ARootDipDay.YearDay() {
		base *= 0.45
	}
	if target.Letter != "b" {
		if target.Old {
			return 0
		}
		return base
	}
	switch {
	case t.Before(BRootChange) && target.Old:
		return base * 0.992
	case t.Before(BRootChange):
		return base * 0.008
	case cl.Switched(t) && target.Old && cl.Priming:
		return primingDailyVolume / 24 * m.SampleRate * 1024
	case cl.Switched(t) == target.Old:
		return 0
	}
	return base
}

// bruteVolume is Volume's oracle: referenceFlowVolume summed over the
// clients for each hour of the window, then over the hours.
func bruteVolume(m *Model, target Target, start, end time.Time) float64 {
	var sum float64
	for t := start; t.Before(end); t = t.Add(time.Hour) {
		var hour float64
		for _, cl := range m.Clients {
			hour += referenceFlowVolume(m, cl, target, t)
		}
		sum += hour
	}
	return sum
}

func relErr(got, want float64) float64 {
	if got == want {
		return 0
	}
	return math.Abs(got-want) / math.Max(math.Abs(got), math.Abs(want))
}

// TestVolumeMatchesBruteForce: the closed form agrees with the hour × client
// sum to 1e-12 on every target and on every window the report reads, and
// ClientDayActivity with the per-client reference. The populations are the
// quick preset's 500 clients (and one 300-client exchange), which keeps the
// brute force to about a second.
func TestVolumeMatchesBruteForce(t *testing.T) {
	models := map[string]*Model{
		"ISP": NewModel(ISPConfig(500, 1)), "EU": NewModel(IXPConfigEU(500, 2)),
		"NA": NewModel(IXPConfigNA(500, 3)), "IX-ORD": testMultiIXP().Sites[11].Model,
	}
	targets := append(letterTargets(),
		Target{Letter: "b", Family: topology.IPv4, Old: true},
		Target{Letter: "b", Family: topology.IPv6, Old: true})
	windows := [][2]time.Time{
		{ISPPreDay, ISPPreDay.Add(24 * time.Hour)}, ISPWindow2, ISPWindow3, IXPWindow1,
		{ARootDipDay, ARootDipDay.Add(24 * time.Hour)},
		{BRootChange.Add(-12 * time.Hour), BRootChange.Add(4 * 24 * time.Hour)},
	}
	for name, m := range models {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			for _, tgt := range targets {
				for _, w := range windows {
					got, want := m.Volume(tgt, w[0], w[1]), bruteVolume(m, tgt, w[0], w[1])
					if e := relErr(got, want); e > 1e-12 {
						t.Errorf("%+v %s..%s: Volume %v, brute force %v (rel err %.2g)",
							tgt, w[0].Format("2006-01-02"), w[1].Format("2006-01-02"), got, want, e)
					}
				}
				for _, day := range []time.Time{ISPPreDay, BRootChange, ISPWindow2[0], ARootDipDay} {
					checkDayActivity(t, m, tgt, day)
				}
			}
		})
	}
}

// checkDayActivity holds ClientDayActivity to referenceFlowVolume summed
// over the day's hours, client by client.
func checkDayActivity(t *testing.T, m *Model, tgt Target, day time.Time) {
	t.Helper()
	var want []float64
	for _, cl := range m.Clients {
		var sum float64
		for h := 0; h < 24; h++ {
			sum += referenceFlowVolume(m, cl, tgt, day.Add(time.Duration(h)*time.Hour))
		}
		if sum > 0 {
			want = append(want, sum)
		}
	}
	got := m.ClientDayActivity(tgt, day)
	if len(got) != len(want) {
		t.Fatalf("%+v %s: %d active clients, reference %d", tgt, day.Format("2006-01-02"), len(got), len(want))
	}
	for i := range got {
		if e := relErr(got[i], want[i]); e > 1e-12 {
			t.Errorf("%+v %s: client %d activity %v, reference %v", tgt, day.Format("2006-01-02"), i, got[i], want[i])
		}
	}
}
