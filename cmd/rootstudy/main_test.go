package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/failpoint"
	"repro/internal/telemetry"
)

// runCLI calls run as main would and returns what it wrote. Runs share the
// process: each starts from zeroed telemetry and leaves no failpoint armed.
func runCLI(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	telemetry.Reset()
	t.Cleanup(func() {
		failpoint.Disable()
		telemetry.SetEnabled(false)
		telemetry.DisableTracing()
	})
	var out, errb bytes.Buffer
	code = run(args, &out, &errb)
	return code, out.String(), errb.String()
}

func TestFrontDoor(t *testing.T) {
	for _, tc := range []struct {
		args   []string
		code   int
		stderr string // must appear on stderr
	}{
		{[]string{"-h"}, 0, "-extensions"},
		{[]string{"-tlds", "20"}, 2, "flag provided but not defined"}, // the preset's to say
		{[]string{"-chaos", "campaign/tick"}, 2, "flag -chaos"},
		{[]string{"-end", "2023-13-01"}, 2, "flag -end"},
		{[]string{"-telemetry-addr", "not an address"}, 1, "telemetry: listen"},
	} {
		code, stdout, stderr := runCLI(t, tc.args...)
		if code != tc.code || !strings.Contains(stderr, tc.stderr) || stdout != "" {
			t.Errorf("rootstudy %q: exit %d, stdout %q, stderr %q; want exit %d and %q on stderr",
				tc.args, code, stdout, stderr, tc.code, tc.stderr)
		}
	}
}

// The whole -quick report, above its stopwatch. Re-record after a declared
// seed-compat break:
//
//	go run ./cmd/rootstudy -quick | head -n -2 >cmd/rootstudy/testdata/quick.golden
func TestQuickReportGolden(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "quick.golden"))
	if err != nil {
		t.Fatal(err)
	}
	code, stdout, stderr := runCLI(t, "-quick")
	report, stopwatch, ok := strings.Cut(stdout, "\ncampaign wall time: ")
	if code != 0 || !ok || strings.Count(stopwatch, "\n") != 1 {
		t.Fatalf("exit %d, stderr %q, stdout ends %q", code, stderr, stopwatch)
	}
	if report != string(want) {
		t.Errorf("rootstudy -quick no longer prints testdata/quick.golden (%d bytes against %d)", len(report), len(want))
	}
}

// As for rootmeasure: the aborted run is the one whose counters are wanted.
func TestBudgetAbortLeavesArtefacts(t *testing.T) {
	dir := t.TempDir()
	metrics, trace, cpu := filepath.Join(dir, "m.json"), filepath.Join(dir, "t.json"), filepath.Join(dir, "c.out")
	code, stdout, stderr := runCLI(t, "-quick", "-chaos", "measure/worker/probe=error", "-errbudget", "0",
		"-metrics", metrics, "-trace", trace, "-cpuprofile", cpu)
	if code != 1 || stdout != "" || !strings.Contains(stderr, "error budget exceeded") {
		t.Fatalf("exit %d, stdout %q, stderr %q; want 1 and the budget message", code, stdout, stderr)
	}
	var snap struct {
		Metrics []struct {
			Name  string
			Value float64
		}
	}
	var spans struct{ TraceEvents []struct{ Name string } }
	for path, into := range map[string]any{metrics: &snap, trace: &spans} {
		data, err := os.ReadFile(path)
		if err == nil {
			err = json.Unmarshal(data, into)
		}
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
	}
	degraded := -1.0
	for _, m := range snap.Metrics {
		if m.Name == "campaign/degraded" {
			degraded = m.Value
		}
	}
	if degraded != 1 || len(spans.TraceEvents) == 0 {
		t.Errorf("campaign/degraded = %v and %d spans, want 1 and some", degraded, len(spans.TraceEvents))
	}
	if info, err := os.Stat(cpu); err != nil || info.Size() == 0 {
		t.Errorf("CPU profile: %v, %v; want a non-empty file", info, err)
	}
}

// No golden pins the Appendix-E extensions, so pin that they print the same
// report, above its stopwatch, on every run.
func TestExtensionsDeterministic(t *testing.T) {
	var first string
	for i := 0; i < 5; i++ {
		code, stdout, stderr := runCLI(t, "-quick", "-extensions")
		report, _, ok := strings.Cut(stdout, "\ncampaign wall time: ")
		if code != 0 || !ok || !strings.Contains(report, "Control group") {
			t.Fatalf("exit %d, stderr %q", code, stderr)
		}
		if i == 0 {
			first = report
		} else if report != first {
			t.Fatalf("run %d printed another -quick -extensions report than run 1", i+1)
		}
	}
}
