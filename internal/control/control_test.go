package control

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/anycast"
	"repro/internal/geo"
	"repro/internal/rss"
	"repro/internal/stats"
	"repro/internal/topology"
	"repro/internal/vantage"
)

func setup(t *testing.T) *Experiment {
	t.Helper()
	topo := topology.Build(topology.DefaultConfig())
	sys := rss.Build(topo, 1)
	vpCfg := vantage.DefaultConfig()
	vpCfg.Scale = 5 // ~135 VPs
	pop := vantage.Generate(topo, vpCfg)
	cfg := DefaultConfig()
	cfg.Ticks = 100
	return New(cfg, topo, sys.Catchments(), pop)
}

func TestControlDeploymentShape(t *testing.T) {
	e := setup(t)
	want := 0
	for _, n := range e.Cfg.SitesPerRegion {
		want += n
	}
	if len(e.Control.Sites) != want {
		t.Fatalf("control sites = %d, want %d", len(e.Control.Sites), want)
	}
	for _, s := range e.Control.Sites {
		if s.Kind != anycast.Global {
			t.Errorf("control site %s is not global", s.ID)
		}
		if s.HostASN == 0 {
			t.Errorf("control site %s has no host", s.ID)
		}
	}
}

func TestRunComparison(t *testing.T) {
	e := setup(t)
	res := e.Run("h", topology.IPv4)
	if len(res.ControlChanges) == 0 || len(res.LetterChanges) == 0 {
		t.Fatal("no change samples")
	}
	if len(res.ControlRTT) == 0 || len(res.LetterRTT) == 0 {
		t.Fatal("no RTT samples")
	}
	// Both deployments are similar in size; RTT distributions should be
	// within the same order of magnitude.
	cm, lm := stats.Median(res.ControlRTT), stats.Median(res.LetterRTT)
	if cm <= 0 || lm <= 0 {
		t.Fatalf("degenerate medians %f %f", cm, lm)
	}
	if cm > lm*10 || lm > cm*10 {
		t.Errorf("control median %.1f vs %s.root %.1f: order-of-magnitude gap", cm, res.Letter, lm)
	}
	var sb strings.Builder
	res.Write(&sb)
	if !strings.Contains(sb.String(), "Control group vs h.root") {
		t.Error("rendering incomplete")
	}
}

func TestControlNotColocatedWithLetters(t *testing.T) {
	e := setup(t)
	letterFacs := map[string]bool{}
	for _, l := range rss.Letters() {
		for _, s := range e.Catchments[l][topology.IPv4].Deployment.Sites {
			letterFacs[s.Facility] = true
		}
	}
	shared := 0
	for _, s := range e.Control.Sites {
		if letterFacs[s.Facility] {
			shared++
		}
	}
	// A fresh experimenter deployment can land at the same exchanges, but
	// most sites should be elsewhere.
	if shared > len(e.Control.Sites)/2 {
		t.Errorf("control shares %d/%d facilities with the RSS", shared, len(e.Control.Sites))
	}
}

func TestRegionsCovered(t *testing.T) {
	e := setup(t)
	regions := map[geo.Region]bool{}
	for _, s := range e.Control.Sites {
		regions[s.City.Region] = true
	}
	if len(regions) < 5 {
		t.Errorf("control covers %d regions", len(regions))
	}
}

// TestNewIsDeterministic: one config places the same control sites every
// time. Each placement draws from one seeded builder, so the regions must be
// visited in a fixed order, not in map order.
func TestNewIsDeterministic(t *testing.T) {
	e := setup(t)
	for i := 0; i < 20; i++ {
		again := New(e.Cfg, e.Topo, e.Catchments, e.Population)
		if !reflect.DeepEqual(again.Control.Sites, e.Control.Sites) {
			t.Fatalf("build %d placed other control sites", i+1)
		}
	}
}
