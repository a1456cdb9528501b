package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
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
		{[]string{"-h"}, 0, "-checkpoint-every"},
		{[]string{"-no-such-flag"}, 2, "flag provided but not defined"},
		{[]string{"-chaos", "campaign/tik=kill@5"}, 2, "flag -chaos"},
		{[]string{"-chaos", "measure/worker/probe=kill"}, 2, "flag -chaos"},
		{[]string{"-qlog-sample", "every=often"}, 2, "flag -qlog-sample"},
		{[]string{"-start", "tomorrow"}, 2, "flag -start"},
		{[]string{"-resume"}, 2, "-resume requires -checkpoint"},
		// The recording says what run to resume; -out is not even opened.
		{[]string{"-resume", "-checkpoint", "no.ckpt", "-out", "no.rgds", "-seed", "2"}, 2, "drop -seed"},
		{[]string{"-resume", "-checkpoint", "no.ckpt", "-out", "no.rgds", "-vpscale", "8"}, 2, "drop -vpscale"},
		{[]string{"-resume", "-checkpoint", "no.ckpt", "-out", "no.rgds", "-tlds", "20"}, 2, "drop -tlds"},
		{[]string{"-resume", "-checkpoint", "no.ckpt", "-out", "no.rgds", "-scale", "512"}, 2, "drop -scale"},
		{[]string{"-resume", "-checkpoint", "no.ckpt", "-out", "no.rgds", "-start", "2023-10-01", "-end", "2023-10-20"}, 2, "drop -end -start"},
		{[]string{"-resume", "-checkpoint", "no.ckpt", "-out", "no.rgds", "-checkpoint-every", "4"}, 2, "drop -checkpoint-every"},
		{[]string{"-resume", "-checkpoint", "no.ckpt", "-out", "no.rgds"}, 1, "no such file"},
		{[]string{"-out", filepath.Join(t.TempDir(), "no", "such", "dir.rgds"), "-vpscale", "40", "-tlds", "20"}, 1, "no such file"},
	} {
		code, stdout, stderr := runCLI(t, tc.args...)
		if code != tc.code || !strings.Contains(stderr, tc.stderr) || stdout != "" {
			t.Errorf("rootmeasure %q: exit %d, stdout %q, stderr %q; want exit %d and %q on stderr",
				tc.args, code, stdout, stderr, tc.code, tc.stderr)
		}
	}
}

// The run one wants the counters of is the one that failed: an error-budget
// abort used to leave through os.Exit past the deferred stops, with no
// -metrics file, no -trace file and an empty -cpuprofile.
func TestBudgetAbortLeavesArtefacts(t *testing.T) {
	dir := t.TempDir()
	metrics, trace, cpu := filepath.Join(dir, "m.json"), filepath.Join(dir, "t.json"), filepath.Join(dir, "c.out")
	code, _, stderr := runCLI(t, "-scale", "512", "-vpscale", "10", "-tlds", "20",
		"-chaos", "measure/worker/probe=error", "-errbudget", "0",
		"-metrics", metrics, "-trace", trace, "-cpuprofile", cpu, "-out", filepath.Join(dir, "o.rgds"))
	if code != 1 || !strings.Contains(stderr, "error budget exceeded") {
		t.Fatalf("exit %d, stderr %q; want 1 and the budget message", code, stderr)
	}
	if got := metricValue(t, metrics, "campaign/degraded"); got != 1 {
		t.Errorf("campaign/degraded = %v in the snapshot, want 1", got)
	}
	if spans := traceSpans(t, trace); spans["tick"] == 0 {
		t.Errorf("trace holds %v, want the aborted tick", spans)
	}
	if info, err := os.Stat(cpu); err != nil || info.Size() == 0 {
		t.Errorf("CPU profile: %v, %v; want a non-empty file", info, err)
	}
}

// metricValue reads one metric's value out of a -metrics snapshot.
func metricValue(t *testing.T, path, name string) float64 {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var snap struct {
		Metrics []struct {
			Name  string
			Value float64
		}
	}
	if err := json.Unmarshal(data, &snap); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	for _, m := range snap.Metrics {
		if m.Name == name {
			return m.Value
		}
	}
	t.Fatalf("%s has no metric %s", path, name)
	return 0
}

// traceSpans counts a -trace file's spans by name.
func traceSpans(t *testing.T, path string) map[string]int {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var trace struct{ TraceEvents []struct{ Name string } }
	if err := json.Unmarshal(data, &trace); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	spans := make(map[string]int)
	for _, e := range trace.TraceEvents {
		spans[e.Name]++
	}
	return spans
}

// Two spans a (tick, VP, target) pair used to fill the 65,536-span ring with
// the last few ticks of this run; a span per (tick, lane) keeps all of it.
func TestTraceKeepsEveryTick(t *testing.T) {
	dir := t.TempDir()
	trace := filepath.Join(dir, "t.json")
	code, _, stderr := runCLI(t, "-scale", "192", "-vpscale", "4", "-workers", "3",
		"-trace", trace, "-out", filepath.Join(dir, "o.rgds"))
	if code != 0 {
		t.Fatalf("exit %d: %s", code, stderr)
	}
	ticks := metricOnStderr(t, stderr, "campaign/ticks")
	spans := traceSpans(t, trace)
	if ticks < 50 || spans["tick"] != ticks || spans["vploop"] != 3*ticks {
		t.Errorf("%d ticks; trace holds %d tick and %d vploop spans, want %d and %d",
			ticks, spans["tick"], spans["vploop"], ticks, 3*ticks)
	}
	if spans["probe"]+spans["transfer"] != 0 {
		t.Errorf("trace still holds per-pair spans: %v", spans)
	}
}

// metricOnStderr reads one counter off the summary table a telemetry stop
// prints.
func metricOnStderr(t *testing.T, stderr, name string) int {
	t.Helper()
	m := regexp.MustCompile(`(?m)^` + regexp.QuoteMeta(name) + `\s+(\d+)$`).FindStringSubmatch(stderr)
	if m == nil {
		t.Fatalf("no %s in the telemetry summary:\n%s", name, stderr)
	}
	v, _ := strconv.Atoi(m[1])
	return v
}

// The check.sh shape: the serial engine and the pipelined one record the
// same bytes and say the same thing about them — stdout's golden, but for
// the stopwatch and the path.
func TestRecordingIdenticalAcrossWorkers(t *testing.T) {
	dir := t.TempDir()
	said := regexp.MustCompile(`^recorded 45920 probes and 39032 transfers from 82 VPs in \d+s \(506586 bytes, 6\.0 B/event\)\nflight log: 21091 events in .*\.qlog\n$`)
	var files [2][2][]byte
	for i, workers := range []string{"1", "4"} {
		out, qlog := filepath.Join(dir, workers+".rgds"), filepath.Join(dir, workers+".qlog")
		code, stdout, stderr := runCLI(t, "-scale", "512", "-vpscale", "8", "-tlds", "20",
			"-workers", workers, "-out", out, "-qlog", qlog, "-qlog-sample", "every=4,seed=3")
		if code != 0 || !said.MatchString(stdout) {
			t.Fatalf("-workers %s: exit %d, stdout %q, stderr %q", workers, code, stdout, stderr)
		}
		for j, path := range []string{out, qlog} {
			var err error
			if files[i][j], err = os.ReadFile(path); err != nil {
				t.Fatal(err)
			}
		}
	}
	if !bytes.Equal(files[0][0], files[1][0]) || !bytes.Equal(files[0][1], files[1][1]) {
		t.Error("-workers 1 and -workers 4 recorded different bytes")
	}
}

// TestKilledChild is rootmeasure being killed when the test binary is run
// with a command line after "--", and nothing otherwise: the simulated kill
// leaves through os.Exit, which a test survives only in a process of its own.
func TestKilledChild(t *testing.T) {
	if args := flag.Args(); len(args) > 0 {
		t.Fatalf("rootmeasure %q was not killed: exit %d", args, run(args, os.Stdout, os.Stderr))
	}
}

// A killed recording is resumed from -out and -checkpoint alone: the seed,
// the world, the schedule and the cadence — none of them a default here — are
// read from the recording, and the file ends up the uninterrupted run's.
func TestResumeReadsItsRunFromTheRecording(t *testing.T) {
	dir := t.TempDir()
	described := []string{"-seed", "2", "-scale", "512", "-vpscale", "8", "-tlds", "20",
		"-start", "2023-10-01", "-end", "2023-12-01", "-checkpoint-every", "4"}
	for _, workers := range []string{"1", "4"} {
		ref, out := filepath.Join(dir, workers+"ref.rgds"), filepath.Join(dir, workers+".rgds")
		if code, _, stderr := runCLI(t, append(described, "-workers", workers, "-out", ref, "-checkpoint", ref+".ckpt")...); code != 0 {
			t.Fatalf("-workers %s uninterrupted: exit %d: %s", workers, code, stderr)
		}
		child := exec.Command(os.Args[0], append([]string{"-test.run=^TestKilledChild$", "--", "-workers", workers,
			"-out", out, "-checkpoint", out + ".ckpt", "-chaos", "campaign/tick=kill@6"}, described...)...)
		if msg, err := child.CombinedOutput(); child.ProcessState.ExitCode() != 3 {
			t.Fatalf("-workers %s killed at tick 6: %v, %s; want exit 3", workers, err, msg)
		}
		if code, _, stderr := runCLI(t, "-resume", "-out", out, "-checkpoint", out+".ckpt", "-workers", workers); code != 0 {
			t.Fatalf("-workers %s resume: exit %d: %s", workers, code, stderr)
		}
		want, _ := os.ReadFile(ref)
		if got, _ := os.ReadFile(out); len(want) == 0 || !bytes.Equal(got, want) {
			t.Errorf("-workers %s: killed and resumed recording is %d bytes, uninterrupted %d, not the same", workers, len(got), len(want))
		}
	}
}
