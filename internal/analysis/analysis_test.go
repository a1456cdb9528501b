package analysis

import (
	"strings"
	"testing"
	"time"

	"repro/internal/geo"
	"repro/internal/measure"
	"repro/internal/rss"
	"repro/internal/topology"
	"repro/internal/vantage"
)

// testWorld builds a small world shared by the analysis tests.
func testWorld(t *testing.T) *measure.World {
	t.Helper()
	cfg := measure.DefaultConfig()
	cfg.TLDCount = 15
	topoCfg := topology.Config{
		Seed: 21,
		StubsPerRegion: map[geo.Region]int{
			geo.Africa: 4, geo.Asia: 8, geo.Europe: 30,
			geo.NorthAmerica: 14, geo.SouthAmerica: 5, geo.Oceania: 5,
		},
		Tier2PerRegion: map[geo.Region]int{
			geo.Africa: 2, geo.Asia: 3, geo.Europe: 5,
			geo.NorthAmerica: 4, geo.SouthAmerica: 2, geo.Oceania: 2,
		},
	}
	vpCfg := vantage.DefaultConfig()
	vpCfg.Scale = 10 // ~67 VPs
	w, err := measure.NewWorld(cfg, topoCfg, vpCfg)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// runCampaign runs a short campaign with the given handlers.
func runCampaign(t *testing.T, w *measure.World, start time.Time, d time.Duration, scale int, handlers ...measure.Handler) {
	t.Helper()
	cfg := measure.DefaultConfig()
	cfg.Start, cfg.End, cfg.Scale = start, start.Add(d), scale
	cfg.TLDCount = 15
	c := measure.NewCampaign(cfg, w)
	if err := c.Run(handlers...); err != nil {
		t.Fatal(err)
	}
}

func TestCoverageAccumulates(t *testing.T) {
	w := testWorld(t)
	cov := NewCoverage(w.System)
	start := time.Date(2023, 8, 1, 0, 0, 0, 0, time.UTC)
	runCampaign(t, w, start, 4*time.Hour, 2, cov)

	rows := cov.Table1()
	if len(rows) != 13 {
		t.Fatalf("Table1 rows = %d", len(rows))
	}
	for _, r := range rows {
		wantG, wantL := rss.TotalSites(r.Letter)
		if r.GlobalSites != wantG || r.LocalSites != wantL {
			t.Errorf("%s: published %d/%d, want %d/%d",
				r.Letter, r.GlobalSites, r.LocalSites, wantG, wantL)
		}
		if r.GlobalCov > r.GlobalSites || r.LocalCov > r.LocalSites {
			t.Errorf("%s: coverage exceeds published sites", r.Letter)
		}
	}
	// Small letters with global-only sites must be fully or mostly covered.
	for _, r := range rows {
		if r.Letter == "b" || r.Letter == "g" {
			if r.GlobalCov < r.GlobalSites/2 {
				t.Errorf("%s.root global coverage %d/%d too low",
					r.Letter, r.GlobalCov, r.GlobalSites)
			}
		}
	}
	// Local-heavy deployments are only partially covered (paper: f.root
	// locals 27.8%).
	for _, r := range rows {
		if r.Letter == "f" && r.LocalSites > 0 && r.LocalCov == r.LocalSites {
			t.Error("f.root local coverage complete; expected partial")
		}
	}
	t4 := cov.Table4()
	if len(t4) != 6 {
		t.Errorf("Table4 regions = %d", len(t4))
	}
	// Regional rows must sum to the worldwide rows.
	for i, l := range rss.Letters() {
		var g, gc int
		for _, region := range geo.Regions() {
			g += t4[region][i].GlobalSites
			gc += t4[region][i].GlobalCov
		}
		if g != rows[i].GlobalSites || gc != rows[i].GlobalCov {
			t.Errorf("%s: regional sums %d/%d vs worldwide %d/%d",
				l, g, gc, rows[i].GlobalSites, rows[i].GlobalCov)
		}
	}
	var sb strings.Builder
	cov.WriteTable1(&sb)
	cov.WriteTable4(&sb)
	cov.Figure11(&sb)
	if !strings.Contains(sb.String(), "Table 1") || !strings.Contains(sb.String(), "Figure 11") {
		t.Error("rendered tables incomplete")
	}
	if cov.ObservedIdentifiers() == 0 {
		t.Error("no identifiers observed")
	}
}

func TestUnmappedIdentifiersFromJ(t *testing.T) {
	w := testWorld(t)
	cov := NewCoverage(w.System)
	start := time.Date(2023, 8, 1, 0, 0, 0, 0, time.UTC)
	runCampaign(t, w, start, 6*time.Hour, 2, cov)
	unmapped := cov.UnmappedIdentifiers()
	total := 0
	for _, n := range unmapped {
		total += n
	}
	// j.root local sites report opaque identifiers; whether one shows up
	// depends on VP catchments, so only assert no spurious unmapped ids for
	// letters with mappable naming.
	for _, l := range []rss.Letter{"b", "g", "h"} {
		if unmapped[l] != 0 {
			t.Errorf("%s.root has %d unmapped identifiers", l, unmapped[l])
		}
	}
	_ = total
}

func TestStabilityCountsChanges(t *testing.T) {
	w := testWorld(t)
	st := NewStability()
	start := time.Date(2023, 8, 1, 0, 0, 0, 0, time.UTC)
	runCampaign(t, w, start, 30*24*time.Hour, 24, st)

	// g.root must be flappier than b.root, and g.root flappier on v6.
	bMed := st.MedianChanges("b", topology.IPv4, false)
	gMed4 := st.MedianChanges("g", topology.IPv4, false)
	gMed6 := st.MedianChanges("g", topology.IPv6, false)
	if len(st.Changes("b", topology.IPv4, false)) == 0 {
		t.Fatal("no b.root change samples")
	}
	if gMed4 < bMed {
		t.Errorf("g.root v4 median %.0f < b.root %.0f; g must flap more", gMed4, bMed)
	}
	if gMed6 < gMed4 {
		t.Errorf("g.root v6 median %.0f < v4 median %.0f; v6 must flap more", gMed6, gMed4)
	}
	var sb strings.Builder
	st.WriteFigure3(&sb)
	if !strings.Contains(sb.String(), "g.root IPv6") {
		t.Error("Figure 3 rendering incomplete")
	}
}

func TestColocationHeadline(t *testing.T) {
	w := testWorld(t)
	col := NewColocation(w.Population)
	start := time.Date(2023, 8, 1, 0, 0, 0, 0, time.UTC)
	runCampaign(t, w, start, 4*time.Hour, 2, col)

	share := col.ShareWithColocation()
	if share < 0.3 {
		t.Errorf("co-location share = %.2f; expected a majority of VPs (paper: ~0.7)", share)
	}
	maxRR := col.MaxReducedRedundancy()
	if maxRR < 2 || maxRR > 12 {
		t.Errorf("max reduced redundancy = %d, want within [2,12]", maxRR)
	}
	for _, f := range topology.Families() {
		if len(col.ReducedRedundancy(f, nil)) == 0 {
			t.Errorf("no %s reduced-redundancy samples", f)
		}
	}
	var sb strings.Builder
	col.WriteFigure4(&sb)
	if !strings.Contains(sb.String(), "Figure 4") {
		t.Error("Figure 4 rendering incomplete")
	}
}

func TestDistanceInflation(t *testing.T) {
	w := testWorld(t)
	d := NewDistance(w.System, w.Population)
	start := time.Date(2023, 8, 1, 0, 0, 0, 0, time.UTC)
	runCampaign(t, w, start, 4*time.Hour, 2, d)

	for _, f := range topology.Families() {
		share := d.OptimalShare("b", f)
		if share < 0.2 || share > 1.0 {
			t.Errorf("b.root %s optimal share = %.2f", f, share)
		}
		extras := d.ExtraDistancePerVP("b", f)
		if len(extras) == 0 {
			t.Errorf("no %s extra-distance samples", f)
		}
		for _, e := range extras {
			if e < 0 {
				t.Fatalf("negative extra distance %f", e)
			}
		}
	}
	var sb strings.Builder
	d.WriteFigure5(&sb)
	if !strings.Contains(sb.String(), "m.root") {
		t.Error("Figure 5 rendering incomplete")
	}
}

func TestRTTByRegion(t *testing.T) {
	w := testWorld(t)
	r := NewRTT()
	start := time.Date(2023, 8, 1, 0, 0, 0, 0, time.UTC)
	runCampaign(t, w, start, 4*time.Hour, 2, r)

	total := 0
	for _, region := range geo.Regions() {
		for _, l := range rss.Letters() {
			for _, f := range topology.Families() {
				total += r.Summary(region, l, f, false).N
			}
		}
	}
	if total == 0 {
		t.Fatal("no RTT samples")
	}
	// European VPs must see low median RTT to at least one large European
	// deployment (k or l), and African VPs generally higher RTTs.
	euK := r.Summary(geo.Europe, "k", topology.IPv4, false)
	if euK.N > 0 && euK.P50 > 150 {
		t.Errorf("Europe->k.root median RTT %.1f ms; expected regional proximity", euK.P50)
	}
	var sb strings.Builder
	r.WriteFigure6(&sb)
	r.WriteFigure14(&sb)
	r.WriteCarrierEffects(&sb)
	if !strings.Contains(sb.String(), "Figure 6") {
		t.Error("Figure 6 rendering incomplete")
	}
}

func TestIntegrityTaxonomy(t *testing.T) {
	w := testWorld(t)
	in := NewIntegrity()
	// Cover the 2023-10-02 skew window and a bitflip window.
	runCampaign(t, w, time.Date(2023, 10, 2, 21, 30, 0, 0, time.UTC), 2*time.Hour, 1, in)
	runCampaign(t, w, time.Date(2023, 9, 26, 21, 0, 0, 0, time.UTC), time.Hour, 1, in)

	if in.Transfers == 0 {
		t.Fatal("no transfers")
	}
	rows := in.Rows()
	var sawSkew, sawBogus bool
	for _, row := range rows {
		switch row.Reason {
		case "Sig. not incepted":
			sawSkew = true
			if len(row.Servers) < 10 {
				t.Errorf("skew row covers %d servers; skew affects all", len(row.Servers))
			}
		case "Bogus Signature":
			sawBogus = true
		}
		if row.Obs == 0 || len(row.SOAs) == 0 {
			t.Errorf("degenerate row %+v", row)
		}
		if row.LastObs.Before(row.FirstObs) {
			t.Errorf("row time range inverted: %+v", row)
		}
	}
	if !sawSkew {
		t.Error("no clock-skew rows")
	}
	if !sawBogus {
		t.Error("no bogus-signature rows")
	}
	var sb strings.Builder
	in.WriteTable2(&sb)
	in.WriteFigure10(&sb)
	out := sb.String()
	if !strings.Contains(out, "Table 2") {
		t.Error("Table 2 rendering incomplete")
	}
	if flip, ok := in.Bitflip(); ok {
		if flip.Before == flip.After {
			t.Error("bitflip example identical before/after")
		}
		if !strings.Contains(out, "received:") {
			t.Error("Figure 10 rendering incomplete")
		}
	}
}

func TestTrafficFigures(t *testing.T) {
	tr := NewTraffic(800, 5)
	var sb strings.Builder
	tr.WriteFigure7(&sb)
	tr.WriteFigure8(&sb)
	tr.WriteFigure9(&sb)
	tr.WriteFigure12(&sb)
	tr.WriteFigure13(&sb)
	out := sb.String()
	for _, want := range []string{"Figure 7", "Figure 8", "Figure 9", "Figure 12", "Figure 13",
		"V4new", "Europe", "once-a-day"} {
		if !strings.Contains(out, want) {
			t.Errorf("traffic rendering missing %q", want)
		}
	}
	// Fig 8 signal: old b v6 once-a-day fraction above new b v6's.
	day := time.Date(2024, 2, 5, 0, 0, 0, 0, time.UTC)
	f8 := tr.Figure8(topology.IPv6, day)
	var oldFrac, newFrac float64
	for _, st := range f8 {
		switch st.Label {
		case "b.root (old)":
			oldFrac = st.OnceADayFrac
		case "b.root (new)":
			newFrac = st.OnceADayFrac
		}
	}
	if oldFrac <= newFrac {
		t.Errorf("old b v6 once-a-day %.2f <= new %.2f; priming signal missing",
			oldFrac, newFrac)
	}
}

func TestCoverageValidationWriter(t *testing.T) {
	w := testWorld(t)
	cov := NewCoverage(w.System)
	start := time.Date(2023, 8, 1, 0, 0, 0, 0, time.UTC)
	runCampaign(t, w, start, 2*time.Hour, 2, cov)
	var sb strings.Builder
	cov.WriteValidation(&sb)
	out := sb.String()
	if !strings.Contains(out, "observed identifiers") {
		t.Errorf("validation summary incomplete: %q", out)
	}
}

func TestSection6Callouts(t *testing.T) {
	w := testWorld(t)
	r := NewRTT()
	start := time.Date(2023, 8, 1, 0, 0, 0, 0, time.UTC)
	runCampaign(t, w, start, 3*time.Hour, 2, r)
	var sb strings.Builder
	r.WriteSection6Callouts(&sb)
	out := sb.String()
	if !strings.Contains(out, "a.root") || !strings.Contains(out, "South America") {
		t.Errorf("callouts incomplete: %q", out)
	}
}

func TestIXPDetailWriter(t *testing.T) {
	tr := NewTraffic(400, 11)
	var sb strings.Builder
	tr.WriteFigure9(&sb)
	out := sb.String()
	if !strings.Contains(out, "IX-FRA") || !strings.Contains(out, "aggregate") {
		t.Errorf("IXP detail incomplete: %q", out)
	}
}

func TestPctFormatting(t *testing.T) {
	if Pct(0, 0) != "-" {
		t.Error("zero-total Pct")
	}
	if Pct(1, 2) != "50.0" {
		t.Errorf("Pct(1,2) = %s", Pct(1, 2))
	}
	if Pct(13, 13) != "100.0" {
		t.Errorf("Pct(13,13) = %s", Pct(13, 13))
	}
}

func TestStabilityIgnoresLostProbes(t *testing.T) {
	st := NewStability()
	tick := func(i int, site string, lost bool) measure.ProbeEvent {
		return measure.ProbeEvent{
			Tick:   measure.Tick{Index: i},
			VPIdx:  1,
			Target: rss.ServiceAddr{Letter: "b", Family: topology.IPv4},
			SiteID: site,
			Lost:   lost,
		}
	}
	st.HandleProbe(tick(0, "s1", false))
	st.HandleProbe(tick(1, "", true)) // lost: must not count as a change
	st.HandleProbe(tick(2, "s1", false))
	st.HandleProbe(tick(3, "s2", false)) // one change
	st.HandleProbe(tick(4, "s1", false)) // second change
	changes := st.Changes("b", topology.IPv4, false)
	if len(changes) != 1 || changes[0] != 2 {
		t.Errorf("changes = %v, want [2]", changes)
	}
}

func TestDistanceIgnoresOldBTarget(t *testing.T) {
	w := testWorld(t)
	d := NewDistance(w.System, w.Population)
	e := measure.ProbeEvent{
		Tick:     measure.Tick{Index: 0},
		VP:       &w.Population.VPs[0],
		Target:   rss.ServiceAddr{Letter: "b", Family: topology.IPv4, Old: true},
		SiteID:   "b-x",
		SiteCity: w.Population.VPs[0].City,
	}
	d.HandleProbe(e)
	if got := d.ExtraDistancePerVP("b", topology.IPv4); len(got) != 0 {
		t.Errorf("old-b probe counted: %v", got)
	}
}

func TestIntegrityCountsCleanTransfers(t *testing.T) {
	in := NewIntegrity()
	in.HandleTransfer(measure.TransferEvent{
		Tick: measure.Tick{Index: 0, Time: time.Date(2023, 8, 1, 0, 0, 0, 0, time.UTC)},
		VP:   &vantage.VP{ID: "v"}, Serial: 2023080100,
	})
	if in.Transfers != 1 || in.Failures != 0 {
		t.Errorf("counts = %d/%d", in.Transfers, in.Failures)
	}
	if len(in.Rows()) != 0 {
		t.Error("clean transfer produced a row")
	}
	// Lost transfers are not counted at all.
	in.HandleTransfer(measure.TransferEvent{Lost: true, VP: &vantage.VP{ID: "v"}})
	if in.Transfers != 1 {
		t.Error("lost transfer counted")
	}
}
