package geo

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestDistanceKnownPairs(t *testing.T) {
	fra, _ := CityByIATA("FRA")
	ams, _ := CityByIATA("AMS")
	nrt, _ := CityByIATA("NRT")
	iad, _ := CityByIATA("IAD")
	gru, _ := CityByIATA("GRU")

	cases := []struct {
		a, b     Point
		min, max float64 // km, generous bounds around known values
	}{
		{fra.Point, ams.Point, 300, 450},
		{fra.Point, nrt.Point, 9000, 9700},
		{iad.Point, fra.Point, 6200, 6900},
		{gru.Point, iad.Point, 7400, 8200},
	}
	for _, c := range cases {
		got := DistanceKm(c.a, c.b)
		if got < c.min || got > c.max {
			t.Errorf("distance(%v, %v) = %.0f km, want in [%.0f, %.0f]",
				c.a, c.b, got, c.min, c.max)
		}
	}
}

func TestDistanceProperties(t *testing.T) {
	randPoint := func(r *rand.Rand) Point {
		return Point{Lat: r.Float64()*180 - 90, Lon: r.Float64()*360 - 180}
	}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a, b := randPoint(r), randPoint(r)
		dab, dba := DistanceKm(a, b), DistanceKm(b, a)
		if math.Abs(dab-dba) > 1e-6 {
			return false // symmetry
		}
		if DistanceKm(a, a) > 1e-6 {
			return false // identity
		}
		if dab < 0 || dab > 20040 {
			return false // bounded by half the circumference
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestRTTModel(t *testing.T) {
	// The paper: every 1,000 km induces ~10 ms of delay.
	if got := RTTms(1000, 0, 0); math.Abs(got-10) > 1e-9 {
		t.Errorf("RTTms(1000km) = %.2f, want 10", got)
	}
	if got := RTTms(0, 10, 0.5); math.Abs(got-5) > 1e-9 {
		t.Errorf("hop term = %.2f, want 5", got)
	}
	if RTTms(5000, 12, 0.2) <= RTTms(5000, 12, 0) {
		t.Error("per-hop delay not additive")
	}
}

func TestCityCatalog(t *testing.T) {
	if len(Cities()) < 80 {
		t.Errorf("catalog has %d cities, want >= 80", len(Cities()))
	}
	seen := map[string]bool{}
	for _, c := range Cities() {
		if len(c.IATA) != 3 {
			t.Errorf("bad IATA %q", c.IATA)
		}
		if seen[c.IATA] {
			t.Errorf("duplicate IATA %q", c.IATA)
		}
		seen[c.IATA] = true
		if c.Point.Lat < -90 || c.Point.Lat > 90 || c.Point.Lon < -180 || c.Point.Lon > 180 {
			t.Errorf("%s has out-of-range coordinates %v", c.IATA, c.Point)
		}
	}
	for _, r := range Regions() {
		if len(CitiesIn(r)) < 8 {
			t.Errorf("region %s has only %d cities", r, len(CitiesIn(r)))
		}
	}
}

func TestCityByIATA(t *testing.T) {
	c, ok := CityByIATA("NRT")
	if !ok || c.Name != "Tokyo" || c.Region != Asia {
		t.Errorf("NRT = %+v, %v", c, ok)
	}
	if _, ok := CityByIATA("XXX"); ok {
		t.Error("nonexistent code found")
	}
}

func TestRegionStrings(t *testing.T) {
	want := map[Region]string{
		Africa: "Africa", Asia: "Asia", Europe: "Europe",
		NorthAmerica: "North America", SouthAmerica: "South America",
		Oceania: "Oceania",
	}
	for r, s := range want {
		if r.String() != s {
			t.Errorf("%d.String() = %q, want %q", r, r.String(), s)
		}
	}
	if len(Regions()) != 6 {
		t.Errorf("Regions() = %d entries", len(Regions()))
	}
	for i, r := range Regions() {
		if int(r) != i {
			t.Errorf("Regions()[%d] = %d: a Region must index a table", i, r)
		}
	}
	if RegionCount != len(Regions()) {
		t.Errorf("RegionCount = %d, Regions() has %d", RegionCount, len(Regions()))
	}
}
