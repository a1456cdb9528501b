package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/dnsclient"
	"repro/internal/dnswire"
	"repro/internal/telemetry"
)

func TestFrontDoor(t *testing.T) {
	for _, tc := range []struct {
		args   []string
		code   int
		stderr string // must appear on stderr
	}{
		{[]string{"-h"}, 0, "-serve-workers"},
		{[]string{"-no-cache"}, 2, "flag provided but not defined"},
		{[]string{"-netem", "loss=2"}, 2, "flag -netem"},
		{[]string{"-netem", "loss=0.1,"}, 2, "flag -netem"},
		{[]string{"-rrl", "rate=0.5,window=3"}, 2, "flag -rrl"},
		{[]string{"-qlog-sample", "seed"}, 2, "flag -qlog-sample"},
		{[]string{"-tlds", "20", "-addr", "256.0.0.1:53"}, 1, "rootserve: "},
	} {
		var stdout, stderr bytes.Buffer
		code := run(tc.args, &stdout, &stderr)
		if code != tc.code || !strings.Contains(stderr.String(), tc.stderr) || stdout.Len() != 0 {
			t.Errorf("rootserve %q: exit %d, stdout %q, stderr %q; want exit %d and %q on stderr",
				tc.args, code, &stdout, &stderr, tc.code, tc.stderr)
		}
	}
}

// What bench/ and check.sh do to the built binary: start it on port 0, read
// the port off the bind line, query it, interrupt it, read the snapshot.
func TestServeUntilInterrupted(t *testing.T) {
	telemetry.Reset()
	t.Cleanup(func() { telemetry.SetEnabled(false) })
	dir := t.TempDir()
	metrics, flight := filepath.Join(dir, "m.json"), filepath.Join(dir, "flight.qlog")
	stdoutR, stdoutW := io.Pipe()
	var stderr bytes.Buffer
	exit := make(chan int, 1)
	go func() {
		exit <- run([]string{"-addr", "127.0.0.1:0", "-tlds", "20", "-serve-workers", "2",
			"-rrl", "rate=0.5,burst=50,slip=2,seed=7", "-qlog", flight, "-metrics", metrics}, stdoutW, &stderr)
		stdoutW.Close()
	}()
	lines := bufio.NewScanner(stdoutR)
	said := func(pattern string) []string {
		t.Helper()
		if !lines.Scan() {
			t.Fatalf("stdout ended before %q; stderr %q", pattern, &stderr)
		}
		m := regexp.MustCompile(pattern).FindStringSubmatch(lines.Text())
		if m == nil {
			t.Fatalf("stdout says %q, want %q", lines.Text(), pattern)
		}
		return m
	}
	addr := said(`^serving root zone serial \d+ \(\d+ records\) on (127\.0\.0\.1:\d+) \(udp\+tcp\)$`)[1]
	said(`^trust anchor: \.\s+\d+\s+IN\s+DS\s`)
	said(`^rrl: rate=0\.5,burst=50,slip=2,seed=7$`)
	said(`^qlog: recording to .*flight\.qlog$`)

	resp, err := dnsclient.New(addr).Query(dnswire.Root, dnswire.TypeNS)
	if err != nil || len(resp.Answers) != 13 {
		t.Errorf("priming query: %v, %v", resp, err)
	}
	if err := syscall.Kill(syscall.Getpid(), syscall.SIGINT); err != nil {
		t.Fatal(err)
	}
	select {
	case code := <-exit:
		if code != 0 {
			t.Errorf("exit %d after SIGINT; stderr %q", code, &stderr)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("rootserve did not return after SIGINT")
	}
	if lines.Scan() {
		t.Errorf("stdout went on: %q", lines.Text())
	}
	data, err := os.ReadFile(metrics)
	var snap struct {
		Metrics []struct {
			Name  string
			Value float64
		}
	}
	if err == nil {
		err = json.Unmarshal(data, &snap)
	}
	if err != nil {
		t.Fatalf("-metrics snapshot: %v", err)
	}
	queries := 0.0
	for _, m := range snap.Metrics {
		if m.Name == "dns/queries" {
			queries = m.Value
		}
	}
	if queries < 1 {
		t.Errorf("dns/queries = %v in the snapshot, want the priming query", queries)
	}
	if info, err := os.Stat(flight); err != nil || info.Size() == 0 {
		t.Errorf("flight log: %v, %v; want the recorder closed over a sealed block", info, err)
	}
}
