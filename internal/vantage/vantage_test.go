package vantage

import (
	"testing"
	"time"

	"repro/internal/geo"
	"repro/internal/topology"
)

func TestGenerateFullPopulation(t *testing.T) {
	topo := topology.Build(topology.DefaultConfig())
	p := Generate(topo, DefaultConfig())

	if len(p.VPs) != 675 {
		t.Errorf("population = %d VPs, want 675 (Table 3)", len(p.VPs))
	}
	byRegion := p.ByRegion()
	for region, dist := range Table3 {
		if got := len(byRegion[region]); got != dist.VPs {
			t.Errorf("%s: %d VPs, want %d", region, got, dist.VPs)
		}
	}
	// Table 3's regional network counts sum to 554 (the paper's worldwide
	// total of 523 de-duplicates ASes appearing in several regions; our
	// synthetic ASes are single-region, so 554 is the expected count when
	// each region has enough stubs).
	if n := p.Networks(); n < 450 || n > 554 {
		t.Errorf("networks = %d, want near 554", n)
	}
	if c := p.Countries(); c < 40 || c > 62 {
		t.Errorf("countries = %d, want near 62", c)
	}
	if got := len(skewed(p)); got != 2 {
		t.Errorf("skewed VPs = %d, want 2", got)
	}
}

// skewed returns the VPs with non-zero clock skew.
func skewed(p *Population) []VP {
	var out []VP
	for _, v := range p.VPs {
		if v.ClockSkew != 0 {
			out = append(out, v)
		}
	}
	return out
}

func TestGenerateScaled(t *testing.T) {
	topo := topology.Build(topology.DefaultConfig())
	cfg := DefaultConfig()
	cfg.Scale = 10
	p := Generate(topo, cfg)
	if len(p.VPs) < 60 || len(p.VPs) > 80 {
		t.Errorf("scaled population = %d, want ~67", len(p.VPs))
	}
	// Every region still represented.
	byRegion := p.ByRegion()
	for _, r := range geo.Regions() {
		if len(byRegion[r]) == 0 {
			t.Errorf("region %s empty at scale 10", r)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	topo := topology.Build(topology.DefaultConfig())
	a := Generate(topo, DefaultConfig())
	b := Generate(topo, DefaultConfig())
	if len(a.VPs) != len(b.VPs) {
		t.Fatal("sizes differ")
	}
	for i := range a.VPs {
		if a.VPs[i] != b.VPs[i] {
			t.Fatalf("VP %d differs", i)
		}
	}
}

func TestVPHomedInRegion(t *testing.T) {
	topo := topology.Build(topology.DefaultConfig())
	p := Generate(topo, DefaultConfig())
	for _, v := range p.VPs {
		as := topo.ASes[v.ASN]
		if as == nil {
			t.Fatalf("%s homed in unknown AS %d", v.ID, v.ASN)
		}
		if as.Region != v.Region {
			t.Errorf("%s region %s but AS %d is in %s", v.ID, v.Region, v.ASN, as.Region)
		}
		if as.Tier != topology.Stub {
			t.Errorf("%s homed in non-stub AS %d", v.ID, v.ASN)
		}
	}
}

func TestClockSkew(t *testing.T) {
	topo := topology.Build(topology.DefaultConfig())
	cfg := DefaultConfig()
	cfg.SkewedVPs = 3
	cfg.SkewAmount = -2 * time.Hour
	p := Generate(topo, cfg)
	skewed := skewed(p)
	if len(skewed) != 3 {
		t.Fatalf("skewed = %d", len(skewed))
	}
	now := time.Date(2023, 10, 2, 22, 0, 0, 0, time.UTC)
	for _, v := range skewed {
		if got := v.Now(now); !got.Equal(now.Add(-2 * time.Hour)) {
			t.Errorf("%s Now() = %v", v.ID, got)
		}
	}
	// Unskewed VPs see true time.
	for _, v := range p.VPs {
		if v.ClockSkew == 0 && !v.Now(now).Equal(now) {
			t.Errorf("%s skewless Now() wrong", v.ID)
		}
	}
}

func TestUniqueIDs(t *testing.T) {
	topo := topology.Build(topology.DefaultConfig())
	p := Generate(topo, DefaultConfig())
	seen := map[string]bool{}
	for _, v := range p.VPs {
		if seen[v.ID] {
			t.Fatalf("duplicate VP ID %s", v.ID)
		}
		seen[v.ID] = true
	}
}
