package propagation

import (
	"strings"
	"testing"
	"time"

	"repro/internal/rss"
	"repro/internal/stats"
	"repro/internal/topology"
	"repro/internal/vantage"
)

func setup(t *testing.T) *Experiment {
	t.Helper()
	topo := topology.Build(topology.DefaultConfig())
	vpCfg := vantage.DefaultConfig()
	vpCfg.Scale = 10
	return &Experiment{
		Catchments: rss.Build(topo, 1).Catchments(),
		Population: vantage.Generate(topo, vpCfg),
		Models:     DefaultSyncModels(),
		Window:     2 * time.Minute,
		Seed:       3,
	}
}

func TestSiteLagsDistribution(t *testing.T) {
	e := setup(t)
	d := e.Catchments["l"][topology.IPv4].Deployment
	lags := SiteLags(d, e.Models["l"], 1)
	if len(lags) != len(d.Sites) {
		t.Fatalf("lags = %d, sites = %d", len(lags), len(d.Sites))
	}
	var xs []float64
	for _, lag := range lags {
		if lag <= 0 {
			t.Fatal("non-positive lag")
		}
		xs = append(xs, lag.Seconds())
	}
	med := stats.Median(xs)
	if med < 5 || med > 120 {
		t.Errorf("median lag = %.1f s, want near the 25 s model", med)
	}
	// Deterministic.
	again := SiteLags(d, e.Models["l"], 1)
	for id, lag := range lags {
		if again[id] != lag {
			t.Fatal("lags not deterministic")
		}
	}
}

func TestProbeSeesTransition(t *testing.T) {
	e := setup(t)
	catch := e.Catchments["c"][topology.IPv4]
	lags := SiteLags(catch.Deployment, e.Models["c"], 2)
	var vp *vantage.VP
	for i := range e.Population.VPs {
		if catch.Choices(e.Population.VPs[i].ASN, 1).Routes.Len() > 0 {
			vp = &e.Population.VPs[i]
			break
		}
	}
	if vp == nil {
		t.Skip("no routable VP")
	}
	obs := Probe(catch, vp, lags, 100, 101, 3*time.Minute, 1)
	if len(obs) == 0 {
		t.Fatal("no observations")
	}
	first := FirstSeen(obs, 101)
	if first < 0 {
		t.Fatal("new serial never seen within window")
	}
	if first > 3*time.Minute {
		t.Errorf("first seen at %v", first)
	}
	// Before the transition, the old serial must be served.
	if obs[0].Serial != 100 && first > 0 {
		t.Errorf("first observation already new at offset 0 with first=%v", first)
	}
}

func TestFlapsCounting(t *testing.T) {
	obs := []Observation{
		{0, 100}, {1e9, 101}, {2e9, 100}, {3e9, 101}, {4e9, 101},
	}
	if got := Flaps(obs, 101); got != 1 {
		t.Errorf("flaps = %d, want 1", got)
	}
	if got := FirstSeen(obs, 101); got != time.Second {
		t.Errorf("first seen = %v", got)
	}
	if got := FirstSeen(obs, 999); got != -1 {
		t.Errorf("missing serial first seen = %v", got)
	}
	if got := Flaps(nil, 101); got != 0 {
		t.Errorf("nil flaps = %d", got)
	}
}

func TestExperimentRun(t *testing.T) {
	e := setup(t)
	results := e.Run(topology.IPv4)
	if len(results) != 13 {
		t.Fatalf("results for %d letters", len(results))
	}
	for _, r := range results {
		if len(r.SiteLags) == 0 {
			t.Errorf("%s: no site lags", r.Letter)
		}
		if len(r.FirstSeen) == 0 {
			t.Errorf("%s: no VP convergence samples", r.Letter)
		}
	}
	// d.root's heavier tail model must show in the p90 site lag relative
	// to a fast letter.
	var dP90, bP90 float64
	for _, r := range results {
		switch r.Letter {
		case "d":
			dP90 = stats.Quantile(r.SiteLags, 0.9)
		case "b":
			bP90 = stats.Quantile(r.SiteLags, 0.9)
		}
	}
	if dP90 <= bP90 {
		t.Errorf("d.root p90 lag %.1f <= b.root %.1f; d must straggle", dP90, bP90)
	}
	var sb strings.Builder
	Write(&sb, results)
	if !strings.Contains(sb.String(), "SOA propagation") {
		t.Error("rendering incomplete")
	}
}

func TestDefaultSyncModelsComplete(t *testing.T) {
	m := DefaultSyncModels()
	for _, l := range rss.Letters() {
		if m[l].MedianLag <= 0 || m[l].Sigma <= 0 {
			t.Errorf("%s: incomplete model %+v", l, m[l])
		}
	}
}
