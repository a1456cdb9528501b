package core

import (
	"strings"
	"testing"
	"time"
)

func TestQuickStudyEndToEnd(t *testing.T) {
	cfg := QuickConfig()
	// Narrow the window further for test speed: cover a fault window and
	// the b.root change.
	cfg.Start = time.Date(2023, 11, 20, 0, 0, 0, 0, time.UTC)
	cfg.End = time.Date(2023, 12, 10, 0, 0, 0, 0, time.UTC)
	cfg.Scale = 96
	s, err := NewStudy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	s.WriteReport(&sb)
	out := sb.String()
	for _, want := range []string{
		"Table 1", "Table 2", "Table 3", "Table 4",
		"Figure 3", "Figure 4", "Figure 5", "Figure 6", "Figure 7",
		"Figure 8", "Figure 9", "Figure 10", "Figure 11", "Figure 12",
		"Figures 14/15",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q", want)
		}
	}
	if s.Integrity.Transfers == 0 {
		t.Error("no transfers executed")
	}
	if s.Coverage.ObservedIdentifiers() == 0 {
		t.Error("no identifiers observed")
	}
}

func TestTable3MatchesPopulation(t *testing.T) {
	s, err := NewStudy(QuickConfig())
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	s.WriteTable3(&sb)
	for _, region := range []string{"Africa", "Asia", "Europe", "North America", "South America", "Oceania"} {
		if !strings.Contains(sb.String(), region) {
			t.Errorf("Table 3 missing %s", region)
		}
	}
}

func TestStudyDeterministicReportSections(t *testing.T) {
	// Two studies with the same config must render identical deterministic
	// sections (Table 3, coverage); signature bytes differ but do not
	// appear in these sections.
	run := func() (string, *Study) {
		cfg := QuickConfig()
		cfg.Start = time.Date(2023, 8, 1, 0, 0, 0, 0, time.UTC)
		cfg.End = time.Date(2023, 8, 3, 0, 0, 0, 0, time.UTC)
		cfg.Scale = 96
		s, err := NewStudy(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Run(); err != nil {
			t.Fatal(err)
		}
		var sb strings.Builder
		s.WriteTable3(&sb)
		s.Coverage.WriteTable1(&sb)
		return sb.String(), s
	}
	a, sa := run()
	b, sb := run()
	if a != b {
		t.Error("deterministic sections differ between identically configured runs")
	}
	if sa.WireQueries == 0 || sb.WireQueries == 0 {
		t.Error("wire self-check did not run")
	}
}

func TestConfigClamping(t *testing.T) {
	cfg := QuickConfig()
	cfg.Scale = 0
	cfg.VPScale = 0
	s, err := NewStudy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if s.Cfg.Scale != 1 || s.Cfg.VPScale != 1 {
		t.Errorf("clamped config = %+v", s.Cfg)
	}
}
