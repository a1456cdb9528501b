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
	series := m.TrafficSeries(day, day.Add(24*time.Hour), BTargets())
	var newV4, oldV4, newV6, oldV6 float64
	for _, s := range series {
		switch {
		case s.Target.Family == topology.IPv4 && !s.Target.Old:
			newV4 = s.Total()
		case s.Target.Family == topology.IPv4 && s.Target.Old:
			oldV4 = s.Total()
		case s.Target.Family == topology.IPv6 && !s.Target.Old:
			newV6 = s.Total()
		default:
			oldV6 = s.Total()
		}
	}
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
	m := ispModel()
	day := ISPWindow2[0]
	series := m.TrafficSeries(day, day.Add(24*time.Hour), AllLetterTargets())
	var total, b float64
	for _, s := range series {
		total += s.Total()
		if s.Target.Letter == "b" {
			b += s.Total()
		}
	}
	share := b / total
	// Paper: b.root 4.46-4.90% of ISP root traffic.
	if share < 0.02 || share > 0.09 {
		t.Errorf("b.root share = %.4f", share)
	}
	// IXP traffic must be dominated by k and d.
	ixp := ixpEUModel()
	iseries := ixp.TrafficSeries(day, day.Add(24*time.Hour), AllLetterTargets())
	shares := map[rss.Letter]float64{}
	var itotal float64
	for _, s := range iseries {
		shares[s.Target.Letter] += s.Total()
		itotal += s.Total()
	}
	if shares["k"]/itotal < 0.15 || shares["d"]/itotal < 0.12 {
		t.Errorf("IXP k=%.3f d=%.3f; want k,d dominant",
			shares["k"]/itotal, shares["d"]/itotal)
	}
}

func TestARootDip(t *testing.T) {
	m := ispModel()
	aTarget := []Target{{Letter: "a", Family: topology.IPv4}}
	dip := m.TrafficSeries(ARootDipDay, ARootDipDay.Add(24*time.Hour), aTarget)[0].Total()
	normal := m.TrafficSeries(ARootDipDay.AddDate(0, 0, 1), ARootDipDay.AddDate(0, 0, 2), aTarget)[0].Total()
	if dip >= normal*0.7 {
		t.Errorf("a.root dip day %.1f vs normal %.1f; expected a clear dip", dip, normal)
	}
}

func TestDiurnalPattern(t *testing.T) {
	m := ispModel()
	day := ISPWindow2[0]
	s := m.TrafficSeries(day, day.Add(24*time.Hour), []Target{{Letter: "k", Family: topology.IPv4}})[0]
	minV, maxV := s.Hours[0], s.Hours[0]
	for _, v := range s.Hours {
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
	s := m.TrafficSeries(day, day.Add(2*time.Hour), []Target{{Letter: "k", Family: topology.IPv4, Old: true}})
	if s[0].Total() != 0 {
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
