package passive

import (
	"math"
	"strings"
	"testing"
	"time"

	"repro/internal/geo"
	"repro/internal/topology"
)

func testMultiIXP() *MultiIXP { return NewMultiIXP(300, 9) }

func TestMultiIXPShape(t *testing.T) {
	m := testMultiIXP()
	if len(m.Sites) != 14 {
		t.Fatalf("sites = %d, want 14 (paper §4.1)", len(m.Sites))
	}
	var eu, na int
	for _, s := range m.Sites {
		switch s.Region {
		case geo.Europe:
			eu++
		case geo.NorthAmerica:
			na++
		default:
			t.Errorf("%s in unexpected region %s", s.Name, s.Region)
		}
		if len(s.Model.Clients) == 0 {
			t.Errorf("%s has no clients", s.Name)
		}
	}
	if eu < 5 || na < 3 {
		t.Errorf("regions: %d EU, %d NA", eu, na)
	}
	// Bigger exchanges carry bigger populations.
	var fra, prg int
	for _, s := range m.Sites {
		switch s.Name {
		case "IX-FRA":
			fra = len(s.Model.Clients)
		case "IX-PRG":
			prg = len(s.Model.Clients)
		}
	}
	if fra <= prg {
		t.Errorf("IX-FRA (%d clients) not larger than IX-PRG (%d)", fra, prg)
	}
}

func TestRegionShiftAggregates(t *testing.T) {
	m := testMultiIXP()
	start := BRootChange.Add(72 * time.Hour)
	end := IXPWindow1[1]
	eu := m.RegionShift(geo.Europe, topology.IPv6, start, end)
	na := m.RegionShift(geo.NorthAmerica, topology.IPv6, start, end)
	if math.Abs(eu-0.608) > 0.15 {
		t.Errorf("EU aggregate shift = %.3f, want ~0.608", eu)
	}
	if math.Abs(na-0.165) > 0.12 {
		t.Errorf("NA aggregate shift = %.3f, want ~0.165", na)
	}
	if eu <= na {
		t.Error("EU must shift more than NA")
	}
}

func TestPerIXPShiftVaries(t *testing.T) {
	m := testMultiIXP()
	start := BRootChange.Add(72 * time.Hour)
	end := IXPWindow1[1]
	minV, maxV := 1.0, 0.0
	for _, site := range m.Sites {
		v := site.Model.ShiftRatio(topology.IPv6, start, end)
		if v < minV {
			minV = v
		}
		if v > maxV {
			maxV = v
		}
	}
	if maxV-minV < 0.1 {
		t.Errorf("per-IXP spread %.3f too small; exchanges must differ", maxV-minV)
	}
}

func TestWriteDetail(t *testing.T) {
	m := testMultiIXP()
	var sb strings.Builder
	m.WriteDetail(&sb, topology.IPv6, BRootChange.Add(72*time.Hour), IXPWindow1[1])
	out := sb.String()
	for _, want := range []string{"IX-FRA", "IX-JFK", "aggregate", "Europe"} {
		if !strings.Contains(out, want) {
			t.Errorf("detail missing %q", want)
		}
	}
}
