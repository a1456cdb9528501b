package main

import (
	"bytes"
	"regexp"
	"strings"
	"testing"
	"time"

	"repro/internal/dnssec"
	"repro/internal/dnsserver"
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
		{[]string{"-h"}, 0, "-dnssec"},
		{[]string{"-tcp"}, 2, "flag provided but not defined"},
		{[]string{".", "NOTATYPE"}, 2, "rootdig: "},
		{[]string{strings.Repeat("a", 64) + "."}, 2, "rootdig: "},
		{[]string{"-server", "127.0.0.1:1", "-axfr"}, 1, "rootdig: "},
	} {
		code, stdout, stderr := runCLI(tc.args...)
		if code != tc.code || !strings.Contains(stderr, tc.stderr) || stdout != "" {
			t.Errorf("rootdig %q: exit %d, stdout %q, stderr %q; want exit %d and %q on stderr",
				tc.args, code, stdout, stderr, tc.code, tc.stderr)
		}
	}
}

// The three query shapes against an in-process server over a seeded zone.
func TestDigAgainstServer(t *testing.T) {
	signer := dnssec.NewDeterministicSigner(1)
	zcfg := zone.DefaultRootConfig()
	zcfg.TLDCount = 3
	when := time.Date(2023, 12, 10, 12, 0, 0, 0, time.UTC)
	signed, err := signer.Sign(zone.SynthesizeRoot(zcfg), when)
	if err != nil {
		t.Fatal(err)
	}
	z, err := zonemd.AttachAndSign(signed, signer, zonemd.StateVerifiable, when)
	if err != nil {
		t.Fatal(err)
	}
	// What -axfr should print; sorted before the server shares the zone.
	var transfer bytes.Buffer
	if err := z.Canonicalize().Print(&transfer); err != nil {
		t.Fatal(err)
	}
	srv, err := dnsserver.New(dnsserver.Config{
		Zone: z, AllowAXFR: true, Identity: dnsserver.Identity{Hostname: "dig.test"},
	})
	if err != nil {
		t.Fatal(err)
	}
	bound, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	addr := bound.String()

	code, stdout, stderr := runCLI("-server", addr, "com.", "NS")
	// The message ID is seeded from the server's address, port included.
	stdout = regexp.MustCompile(`id: \d+`).ReplaceAllString(stdout, "id: N")
	if want := referralGolden; code != 0 || stdout != want {
		t.Errorf("rootdig com. NS: exit %d, stderr %q, stdout\n%s\nwant\n%s", code, stderr, stdout, want)
	}
	code, stdout, stderr = runCLI("-server", addr, "-chaos", "hostname.bind")
	if code != 0 || stdout != "hostname.bind. CH TXT \"dig.test\"\n" {
		t.Errorf("rootdig -chaos: exit %d, stdout %q, stderr %q", code, stdout, stderr)
	}
	code, stdout, stderr = runCLI("-server", addr, "-axfr")
	if code != 0 || stdout != transfer.String() {
		t.Errorf("rootdig -axfr: exit %d, stderr %q, %d bytes of zone against %d served", code, stderr, len(stdout), transfer.Len())
	}
}

// referralGolden is the referral for com. out of the seeded three-TLD zone.
const referralGolden = `;; status: NOERROR, id: N, aa: false
;; QUESTION
;com. IN NS
;; AUTHORITY
com.	172800	IN	NS	ns1.com.
com.	172800	IN	NS	ns2.com.
com.	172800	IN	NS	ns3.com.
com.	172800	IN	NS	ns4.com.
;; ADDITIONAL
ns1.com.	172800	IN	A	181.15.199.164
ns1.com.	172800	IN	AAAA	2001:db8:8186:39ac:48a4:c6af:a2f1:581a
ns2.com.	172800	IN	A	111.149.37.193
ns2.com.	172800	IN	AAAA	2001:db8:fda:6892:7f2b:2ff8:36f7:3578
ns3.com.	172800	IN	A	187.15.165.95
ns3.com.	172800	IN	AAAA	2001:db8:29f7:fd92:8d92:ca43:f193:dee4
ns4.com.	172800	IN	A	159.89.21.40
ns4.com.	172800	IN	AAAA	2001:db8:f597:a811:c8fa:67ab:31e:bd9c
`
