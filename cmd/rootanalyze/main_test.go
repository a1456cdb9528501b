package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/measure"
	"repro/internal/qlog"
	"repro/internal/telemetry"
)

// runCLI calls run as main would and returns what it wrote. Runs share the
// process: each starts from zeroed telemetry.
func runCLI(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	telemetry.Reset()
	t.Cleanup(func() { telemetry.SetEnabled(false) })
	var out, errb bytes.Buffer
	code = run(args, &out, &errb)
	return code, out.String(), errb.String()
}

func TestFrontDoor(t *testing.T) {
	missing := filepath.Join(t.TempDir(), "missing")
	for _, tc := range []struct {
		args   []string
		code   int
		stderr string // must appear on stderr
	}{
		{[]string{"-h"}, 0, "-filter"},
		{[]string{"-scale", "96"}, 2, "flag provided but not defined"}, // a replay has no schedule
		{[]string{"-seed", "1"}, 2, "flag provided but not defined"},   // nor a world but the recording's
		{[]string{"-vpscale", "8"}, 2, "flag provided but not defined"},
		{[]string{"-tlds", "20"}, 2, "flag provided but not defined"},
		{[]string{"-filter", "kind"}, 2, "flag -filter"},
		{[]string{"-filter", "colour=red"}, 2, "flag -filter"},
		{[]string{"-filter", "rcode=NXDOMAIN"}, 2, "flag -filter"},
		{[]string{"-in", missing, "stray"}, 2, "unexpected arguments"},
		{[]string{"-resume"}, 2, "-resume requires -checkpoint"},
		{[]string{"-diff", missing}, 2, "two snapshot files"},
		{[]string{"-diff", missing, missing}, 2, "no such file"},
		{[]string{"-qlog"}, 2, "unknown -qlog verb"},
		{[]string{"-qlog", "show"}, 2, "wants 1 flight-log"},
		{[]string{"-qlog", "join", missing, missing}, 2, "no such file"},
	} {
		code, stdout, stderr := runCLI(t, tc.args...)
		if code != tc.code || !strings.Contains(stderr, tc.stderr) || stdout != "" {
			t.Errorf("rootanalyze %q: exit %d, stdout %q, stderr %q; want exit %d and %q on stderr",
				tc.args, code, stdout, stderr, tc.code, tc.stderr)
		}
	}
}

// A replay that cannot start still says what the process counted: the
// telemetry stop used to be skipped by the exit.
func TestMissingInputLeavesMetrics(t *testing.T) {
	dir := t.TempDir()
	metrics := filepath.Join(dir, "m.json")
	code, stdout, stderr := runCLI(t, "-in", filepath.Join(dir, "missing.rgds"), "-metrics", metrics)
	if code != 1 || stdout != "" || !strings.Contains(stderr, "no such file") {
		t.Fatalf("exit %d, stdout %q, stderr %q; want 1 and the open error", code, stdout, stderr)
	}
	data, err := os.ReadFile(metrics)
	var snap struct{ Metrics []struct{ Name string } }
	if err == nil {
		err = json.Unmarshal(data, &snap)
	}
	if err != nil || len(snap.Metrics) == 0 {
		t.Errorf("-metrics after a failed run: %v, %d metrics", err, len(snap.Metrics))
	}
}

// record writes what rootmeasure writes for the run cfg describes, with an
// every-fourth-event flight log next to it.
func record(t *testing.T, dir string, cfg core.Config) (rgds, flight string) {
	t.Helper()
	mCfg, world, err := core.NewWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rgds, flight = filepath.Join(dir, "study.rgds"), filepath.Join(dir, "flight.qlog")
	f, err := os.Create(rgds)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	qf, err := os.Create(flight)
	if err != nil {
		t.Fatal(err)
	}
	defer qf.Close()
	w, err := dataset.NewWriter(f)
	if err == nil {
		err = w.Describe(cfg.Run)
	}
	if err != nil {
		t.Fatal(err)
	}
	rec, err := qlog.New(qf, qlog.Sampler{Every: 4, Seed: 3}, "")
	if err != nil {
		t.Fatal(err)
	}
	if err := measure.NewCampaign(mCfg, world).Run(w, measure.NewFlightLog(rec)); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	return rgds, flight
}

// The round trip check.sh drives with the built binaries: every table and
// figure of the replay, the same bytes at any -workers, of the world the
// recording names. Nothing about the world is a default: a replay that
// printed the golden read it in the file. Re-record after a declared
// seed-compat break:
//
//	rootmeasure -seed 2 -scale 512 -vpscale 8 -tlds 20 -out study.rgds
//	rootanalyze -in study.rgds >cmd/rootanalyze/testdata/replay.golden
func TestReplayGolden(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "replay.golden"))
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultConfig()
	cfg.Seed, cfg.Scale, cfg.VPScale, cfg.TLDCount = 2, 512, 8, 20
	rgds, flight := record(t, t.TempDir(), cfg)
	for _, workers := range []string{"1", "4"} {
		code, stdout, stderr := runCLI(t, "-in", rgds, "-workers", workers)
		if code != 0 || stderr != "" {
			t.Fatalf("-workers %s: exit %d, stderr %q", workers, code, stderr)
		}
		if got := strings.Replace(stdout, rgds, "study.rgds", 1); got != string(want) {
			t.Errorf("-workers %s no longer prints testdata/replay.golden (%d bytes against %d)", workers, len(got), len(want))
		}
	}

	// The flight-log modes over the same recording.
	code, stdout, _ := runCLI(t, "-qlog", "diff", flight, flight)
	if code != 0 || stdout != "flight logs identical: 21091 events\n" {
		t.Errorf("-qlog diff of a log with itself: exit %d, %q", code, stdout)
	}
	code, stdout, _ = runCLI(t, "-filter", "kind=measure/transfer", "-qlog", "show", flight)
	if code != 0 || !strings.HasSuffix(stdout, "\n9713 events\n") || strings.Contains(stdout, "measure/probe") {
		t.Errorf("-qlog show of the transfers: exit %d, ends %q", code, stdout[max(0, len(stdout)-80):])
	}
}

// One run, reported live by rootstudy -quick and replayed from its recording
// by rootanalyze, prints each section both programs print to the byte: a
// probe's RTT reaches the live analyses as the recording stores it. A section
// is a blank-line separated block named by its first line; rootanalyze
// prints none that rootstudy does not (the passive models' are rootstudy's
// alone). check.sh compares the default preset's with the built binaries.
func TestReplayPrintsWhatTheStudyPrints(t *testing.T) {
	quick := repro.QuickConfig()
	study, err := repro.NewStudy(quick)
	if err == nil {
		err = study.Run()
	}
	if err != nil {
		t.Fatal(err)
	}
	var live strings.Builder
	study.WriteReport(&live)

	cfg := core.DefaultConfig() // what rootmeasure runs, given the preset's flags
	cfg.Seed, cfg.Scale, cfg.VPScale, cfg.TLDCount = quick.Seed, quick.Scale, quick.VPScale, quick.TLDCount
	rgds, _ := record(t, t.TempDir(), cfg)
	code, replay, stderr := runCLI(t, "-in", rgds)
	if code != 0 || stderr != "" {
		t.Fatalf("exit %d, stderr %q", code, stderr)
	}
	replayed := sections(replay)[1:] // the first says what was replayed
	named := make(map[string]bool, len(replayed))
	for _, s := range replayed {
		named[heading(s)] = true
	}
	var shared []string
	for _, s := range sections(live.String()) {
		if named[heading(s)] {
			shared = append(shared, s)
		}
	}
	differ := 0
	for i, s := range replayed {
		if i >= len(shared) || shared[i] != s {
			if differ++; differ == 1 {
				t.Errorf("section %q: the replay prints\n%s", heading(s), s)
			}
		}
	}
	if differ > 0 || len(shared) != len(replayed) {
		t.Errorf("%d of the replay's %d sections differ from the live report's, which shares %d", differ, len(replayed), len(shared))
	}
}

// sections splits a report into its blank-line separated blocks.
func sections(report string) []string {
	return strings.Split(strings.TrimRight(report, "\n"), "\n\n")
}

// heading is a section's first line.
func heading(section string) string {
	h, _, _ := strings.Cut(section, "\n")
	return h
}

// A recording that does not say what run made it is not replayed against a
// guess: one a library caller wrote without Describe, and one of version 2,
// which had no description to read.
func TestRefusesUndescribedRecording(t *testing.T) {
	dir := t.TempDir()
	var undescribed bytes.Buffer
	if _, err := dataset.NewWriter(&undescribed); err != nil {
		t.Fatal(err)
	}
	for name, tc := range map[string]struct {
		file   []byte
		stderr string
	}{
		"undescribed.rgds": {undescribed.Bytes(), "does not open with a description of its run"},
		"v2.rgds":          {[]byte("RGDS\x02"), "unsupported version 2"},
	} {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, tc.file, 0o666); err != nil {
			t.Fatal(err)
		}
		code, stdout, stderr := runCLI(t, "-in", path)
		if code != 1 || stdout != "" || !strings.Contains(stderr, tc.stderr) {
			t.Errorf("%s: exit %d, stdout %q, stderr %q; want 1 and %q", name, code, stdout, stderr, tc.stderr)
		}
	}
}
