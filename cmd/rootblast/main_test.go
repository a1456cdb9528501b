package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"repro/internal/dnssec"
	"repro/internal/dnsserver"
	"repro/internal/telemetry"
	"repro/internal/zone"
	"repro/internal/zonemd"
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
	for _, tc := range []struct {
		args   []string
		code   int
		stderr string // must appear on stderr
	}{
		{[]string{"-h"}, 0, "-blast-workers"},
		{[]string{"-rate", "1000"}, 2, "flag provided but not defined"},
		{[]string{"-netem", "delay=soon"}, 2, "flag -netem"},
		{[]string{"-qlog-sample", "every=1,every"}, 2, "flag -qlog-sample"},
		{[]string{"-junk", "2", "-tlds", "20"}, 1, "rootblast: "},
	} {
		code, stdout, stderr := runCLI(t, tc.args...)
		if code != tc.code || !strings.Contains(stderr, tc.stderr) || stdout != "" {
			t.Errorf("rootblast %q: exit %d, stdout %q, stderr %q; want exit %d and %q on stderr",
				tc.args, code, stdout, stderr, tc.code, tc.stderr)
		}
	}
}

// A counted blast at a loopback server: every query answered, the report on
// stdout and in -report, the flight log closed over what it recorded.
func TestBlastAgainstServer(t *testing.T) {
	signer := dnssec.NewDeterministicSigner(1)
	zcfg := zone.DefaultRootConfig()
	zcfg.TLDCount = 20
	when := time.Date(2023, 12, 10, 12, 0, 0, 0, time.UTC)
	signed, err := signer.Sign(zone.SynthesizeRoot(zcfg), when)
	if err != nil {
		t.Fatal(err)
	}
	z, err := zonemd.AttachAndSign(signed, signer, zonemd.StateVerifiable, when)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := dnsserver.New(dnsserver.Config{Zone: z})
	if err != nil {
		t.Fatal(err)
	}
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	dir := t.TempDir()
	report, flight := filepath.Join(dir, "report.json"), filepath.Join(dir, "flight.qlog")
	code, stdout, stderr := runCLI(t, "-server", addr.String(), "-count", "200", "-blast-workers", "2",
		"-window", "8", "-tlds", "20", "-report", report, "-qlog", flight)
	said := regexp.MustCompile(`^sent=200 received=200 lost=0 retried=0 timeouts=0 mismatches=0 elapsed=\S+ qps=\d+ p50=\d+us p90=\d+us p99=\d+us\n$`)
	if code != 0 || !said.MatchString(stdout) {
		t.Fatalf("exit %d, stdout %q, stderr %q", code, stdout, stderr)
	}
	data, err := os.ReadFile(report)
	var res struct{ Sent, Received int }
	if err == nil {
		err = json.Unmarshal(data, &res)
	}
	if err != nil || res.Sent != 200 || res.Received != 200 {
		t.Errorf("-report: %v, %+v", err, res)
	}
	if info, err := os.Stat(flight); err != nil || info.Size() == 0 {
		t.Errorf("flight log: %v, %v; want the recorder closed over a sealed block", info, err)
	}
}
