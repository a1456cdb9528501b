package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/dnssec"
	"repro/internal/zone"
	"repro/internal/zonemd"
)

func runCLI(args ...string) (code int, stdout, stderr string) {
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
		{[]string{"-h"}, 0, "-anchor"},
		{[]string{"-zone", "root.zone"}, 2, "flag provided but not defined"},
		{[]string{}, 2, "need -file or -axfr"},
		{[]string{"-at", "noon"}, 2, "flag -at"},
		{[]string{"-anchor", ". 172800 IN NS a.root-servers.net."}, 2, "flag -anchor"},
		{[]string{"-file", filepath.Join(t.TempDir(), "missing.zone")}, 1, "no such file"},
	} {
		code, stdout, stderr := runCLI(tc.args...)
		if code != tc.code || !strings.Contains(stderr, tc.stderr) || stdout != "" {
			t.Errorf("zonemdcheck %q: exit %d, stdout %q, stderr %q; want exit %d and %q on stderr",
				tc.args, code, stdout, stderr, tc.code, tc.stderr)
		}
	}
}

// A zone zone.Print wrote validates against its signer's trust anchor at the
// time it was signed, and no longer once its signatures have expired.
func TestValidatesPrintedZone(t *testing.T) {
	signer := dnssec.NewDeterministicSigner(1)
	zcfg := zone.DefaultRootConfig()
	zcfg.TLDCount = 5
	when := time.Date(2023, 12, 10, 12, 0, 0, 0, time.UTC)
	signed, err := signer.Sign(zone.SynthesizeRoot(zcfg), when)
	if err != nil {
		t.Fatal(err)
	}
	z, err := zonemd.AttachAndSign(signed, signer, zonemd.StateVerifiable, when)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "root.zone")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := z.Print(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	anchor := signer.TrustAnchor().String()

	code, stdout, stderr := runCLI("-file", path, "-anchor", anchor, "-at", "2023-12-10T12:00:00Z")
	if want := "zone: serial 2023070300, 119 records\nZONEMD: ok\nDNSSEC: ok\n"; code != 0 || stdout != want {
		t.Errorf("exit %d, stderr %q, stdout %q, want %q", code, stderr, stdout, want)
	}
	code, stdout, _ = runCLI("-file", path, "-anchor", anchor, "-at", "2033-12-10T12:00:00Z")
	if code != 1 || !strings.HasPrefix(stdout, "zone: serial 2023070300, 119 records\nZONEMD: ok\nDNSSEC: FAIL: ") {
		t.Errorf("ten years on: exit %d, stdout %q; want 1 and a DNSSEC failure", code, stdout)
	}
}
