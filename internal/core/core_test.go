package core

import (
	"strings"
	"testing"
	"time"

	"repro/internal/analysis"
)

// render renders the artefact with the given ID from s.
func render(t *testing.T, s *Study, id string) string {
	t.Helper()
	for _, a := range analysis.Artefacts {
		if a.ID == id {
			var sb strings.Builder
			a.Write(s.Suite, &sb)
			return sb.String()
		}
	}
	t.Fatalf("no artefact %q", id)
	return ""
}

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
	report := sb.String()
	for _, a := range analysis.Artefacts {
		if out := render(t, s, a.ID); !strings.Contains(report, "\n\n"+out) {
			t.Errorf("report is missing %s, which renders %q", a.ID, out)
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
	table3 := render(t, s, "T3")
	for _, region := range []string{"Africa", "Asia", "Europe", "North America", "South America", "Oceania"} {
		if !strings.Contains(table3, region) {
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
		return render(t, s, "T3") + render(t, s, "T1"), s
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
