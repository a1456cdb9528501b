package dnsserver

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/dnsclient"
	"repro/internal/dnssec"
	"repro/internal/dnswire"
	"repro/internal/faults"
	"repro/internal/zone"
	"repro/internal/zonemd"
)

var studyTime = time.Date(2023, 12, 10, 12, 0, 0, 0, time.UTC)

// startServer returns a running server on loopback and a matching client.
func startServer(t testing.TB, cfg Config) (*Server, *dnsclient.Client) {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	addr, err := s.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	c := dnsclient.New(addr.String())
	c.Timeout = 2 * time.Second
	return s, c
}

func signedRootZone(t testing.TB, tlds int) (*zone.Zone, *dnssec.Signer) {
	t.Helper()
	cfg := zone.DefaultRootConfig()
	cfg.TLDCount = tlds
	signer, err := dnssec.NewSigner(rand.New(rand.NewSource(5)))
	if err != nil {
		t.Fatal(err)
	}
	signed, err := signer.Sign(zone.SynthesizeRoot(cfg), studyTime)
	if err != nil {
		t.Fatal(err)
	}
	z, err := zonemd.AttachAndSign(signed, signer, zonemd.StateVerifiable, studyTime)
	if err != nil {
		t.Fatal(err)
	}
	return z, signer
}

func TestApexSOAQuery(t *testing.T) {
	z, _ := signedRootZone(t, 10)
	_, c := startServer(t, Config{Zone: z, Identity: Identity{Hostname: "test1", Version: "repro-1"}})
	resp, err := c.Query(dnswire.Root, dnswire.TypeSOA)
	if err != nil {
		t.Fatal(err)
	}
	if !resp.Header.Authoritative || resp.Header.Rcode != dnswire.RcodeNoError {
		t.Errorf("header = %+v", resp.Header)
	}
	if len(resp.Answers) != 1 || resp.Answers[0].Type() != dnswire.TypeSOA {
		t.Errorf("answers = %v", resp.Answers)
	}
}

func TestPrimingQuery(t *testing.T) {
	z, _ := signedRootZone(t, 10)
	_, c := startServer(t, Config{Zone: z})
	c.EDNSSize = 4096
	resp, err := c.Query(dnswire.Root, dnswire.TypeNS)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Answers) < 13 {
		t.Fatalf("priming returned %d answers, want >= 13 NS", len(resp.Answers))
	}
	// Glue for root servers must ride in additional.
	var a, aaaa int
	for _, rr := range resp.Additional {
		switch rr.Type() {
		case dnswire.TypeA:
			a++
		case dnswire.TypeAAAA:
			aaaa++
		}
	}
	if a < 13 || aaaa < 13 {
		t.Errorf("glue counts: %d A, %d AAAA; want >= 13 each", a, aaaa)
	}
}

func TestReferral(t *testing.T) {
	z, _ := signedRootZone(t, 10)
	_, c := startServer(t, Config{Zone: z})
	resp, err := c.Query(dnswire.MustName("www.example.com."), dnswire.TypeA)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Header.Rcode != dnswire.RcodeNoError {
		t.Fatalf("rcode = %s", resp.Header.Rcode)
	}
	if resp.Header.Authoritative {
		t.Error("referral must not set AA")
	}
	if len(resp.Answers) != 0 {
		t.Errorf("referral has answers: %v", resp.Answers)
	}
	if len(resp.Authority) == 0 {
		t.Fatal("referral has no authority records")
	}
	for _, rr := range resp.Authority {
		if rr.Name != "com." || rr.Type() != dnswire.TypeNS {
			t.Errorf("authority = %s", rr)
		}
	}
	if len(resp.Additional) == 0 {
		t.Error("referral has no glue")
	}
}

func TestNXDomain(t *testing.T) {
	z, _ := signedRootZone(t, 10)
	_, c := startServer(t, Config{Zone: z})
	resp, err := c.Query(dnswire.MustName("no-such-tld-xyz."), dnswire.TypeA)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Header.Rcode != dnswire.RcodeNXDomain {
		t.Errorf("rcode = %s, want NXDOMAIN", resp.Header.Rcode)
	}
	if len(resp.Authority) == 0 || resp.Authority[0].Type() != dnswire.TypeSOA {
		t.Error("NXDOMAIN lacks SOA in authority")
	}
}

func TestChaosIdentity(t *testing.T) {
	z, _ := signedRootZone(t, 5)
	_, c := startServer(t, Config{Zone: z,
		Identity: Identity{Hostname: "ams1.b.root", Version: "repro-0.1"}})
	for _, q := range []string{"hostname.bind.", "id.server."} {
		got, err := c.QueryChaosTXT(dnswire.MustName(q))
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		if got != "ams1.b.root" {
			t.Errorf("%s = %q", q, got)
		}
	}
	for _, q := range []string{"version.bind.", "version.server."} {
		got, err := c.QueryChaosTXT(dnswire.MustName(q))
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		if got != "repro-0.1" {
			t.Errorf("%s = %q", q, got)
		}
	}
	if _, err := c.QueryChaosTXT(dnswire.MustName("other.bind.")); err == nil {
		t.Error("unknown chaos name answered")
	}
}

func TestChaosIdentitySuppressed(t *testing.T) {
	z, _ := signedRootZone(t, 5)
	_, c := startServer(t, Config{Zone: z}) // empty identity
	if _, err := c.QueryChaosTXT(dnswire.MustName("hostname.bind.")); err == nil {
		t.Error("suppressed identity answered")
	}
}

func TestDNSSECAnswers(t *testing.T) {
	z, _ := signedRootZone(t, 10)
	_, c := startServer(t, Config{Zone: z})
	c.EDNSSize = 4096
	resp, err := c.Query(dnswire.Root, dnswire.TypeSOA)
	if err != nil {
		t.Fatal(err)
	}
	foundSig := false
	for _, rr := range resp.Answers {
		if sig, ok := rr.Data.(dnswire.RRSIGRecord); ok && sig.TypeCovered == dnswire.TypeSOA {
			foundSig = true
		}
	}
	if !foundSig {
		t.Error("DO-bit query returned no RRSIG")
	}
}

func TestTruncationAndTCPFallback(t *testing.T) {
	z, _ := signedRootZone(t, 10)
	_, c := startServer(t, Config{Zone: z}) // UDPSize 512
	// Priming response with DNSSEC is far over 512 bytes; without EDNS the
	// UDP answer must be truncated, and the client must retry over TCP.
	resp, err := c.Query(dnswire.Root, dnswire.TypeNS)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Header.Truncated {
		t.Error("client returned the truncated UDP response instead of TCP fallback")
	}
	if len(resp.Answers) < 13 {
		t.Errorf("answers after TCP fallback = %d", len(resp.Answers))
	}
}

func TestAXFRAllowedAndValidates(t *testing.T) {
	z, signer := signedRootZone(t, 20)
	_, c := startServer(t, Config{Zone: z, AllowAXFR: true})
	got, err := c.TransferZone()
	if err != nil {
		t.Fatal(err)
	}
	if got.Serial() != z.Serial() {
		t.Errorf("serial %d, want %d", got.Serial(), z.Serial())
	}
	if len(got.Records) != len(z.Records) {
		t.Errorf("records %d, want %d", len(got.Records), len(z.Records))
	}
	anchor := signer.TrustAnchor().Data.(dnswire.DSRecord)
	zErr, dErr := zonemd.FullValidation(got, anchor, studyTime.Add(time.Hour))
	if zErr != nil || dErr != nil {
		t.Errorf("transferred zone fails validation: zonemd=%v dnssec=%v", zErr, dErr)
	}
	// One flipped bit in the local copy (faulty RAM, the paper's Fig. 10)
	// must not survive a revalidation before use.
	if _, ok := faults.FlipSignatureBit(got, rand.New(rand.NewSource(1))); !ok {
		t.Fatal("transferred zone has no signature to flip")
	}
	if zErr, dErr := zonemd.FullValidation(got, anchor, studyTime.Add(time.Hour)); zErr == nil && dErr == nil {
		t.Error("a flipped signature bit in the transferred zone passed validation")
	}
}

func TestAXFRRefused(t *testing.T) {
	z, _ := signedRootZone(t, 5)
	_, c := startServer(t, Config{Zone: z, AllowAXFR: false})
	if _, err := c.TransferZone(); err == nil {
		t.Error("AXFR succeeded on a server with transfers disabled")
	}
}

func TestSetZoneSwapsServial(t *testing.T) {
	z, _ := signedRootZone(t, 5)
	s, c := startServer(t, Config{Zone: z, AllowAXFR: true})
	bumped := z.BumpSerial(z.Serial() + 42)
	s.SetZone(bumped)
	got, err := c.TransferZone()
	if err != nil {
		t.Fatal(err)
	}
	if got.Serial() != z.Serial()+42 {
		t.Errorf("serial after SetZone = %d", got.Serial())
	}
}

func TestHandleRejectsNonQueries(t *testing.T) {
	z, _ := signedRootZone(t, 5)
	s, err := New(Config{Zone: z})
	if err != nil {
		t.Fatal(err)
	}
	resp := &dnswire.Message{Header: dnswire.Header{Response: true}}
	if got := s.Handle(resp, false); got != nil {
		t.Error("response message answered")
	}
	multi := dnswire.NewQuery(1, dnswire.Root, dnswire.TypeSOA)
	multi.Questions = append(multi.Questions, multi.Questions[0])
	if got := s.Handle(multi, false); got != nil {
		t.Error("multi-question query answered")
	}
	notify := dnswire.NewQuery(1, dnswire.Root, dnswire.TypeSOA)
	notify.Header.Opcode = dnswire.OpcodeNotify
	if got := s.Handle(notify, false); got == nil || got.Header.Rcode != dnswire.RcodeNotImp {
		t.Error("NOTIFY not answered with NOTIMP")
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("nil zone accepted")
	}
	if _, err := New(Config{Zone: zone.New(dnswire.Root)}); err == nil {
		t.Error("zone without SOA accepted")
	}
}

func TestMultiZoneRootServersNet(t *testing.T) {
	z, _ := signedRootZone(t, 10)
	companion := zone.SynthesizeRootServersNet(z.Serial(), false)
	s, err := New(Config{
		Zone: z, ExtraZones: []*zone.Zone{companion},
		Identity: Identity{Hostname: "multi", Version: "v"},
	})
	if err != nil {
		t.Fatal(err)
	}
	addr, err := s.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	c := dnsclient.New(addr.String())
	c.Timeout = 2 * time.Second

	// NS root-servers.net answered authoritatively from the companion.
	resp, err := c.Query(dnswire.MustName("root-servers.net."), dnswire.TypeNS)
	if err != nil {
		t.Fatal(err)
	}
	if !resp.Header.Authoritative || len(resp.Answers) != 13 {
		t.Errorf("root-servers.net NS: aa=%v answers=%d",
			resp.Header.Authoritative, len(resp.Answers))
	}
	// A for a root host answered authoritatively (not a referral to net.).
	resp, err = c.Query(dnswire.MustName("b.root-servers.net."), dnswire.TypeA)
	if err != nil {
		t.Fatal(err)
	}
	if !resp.Header.Authoritative || len(resp.Answers) != 1 {
		t.Fatalf("b A: aa=%v answers=%v", resp.Header.Authoritative, resp.Answers)
	}
	if a := resp.Answers[0].Data.(dnswire.ARecord); a.Addr.String() != "170.247.170.2" {
		t.Errorf("b A = %s", a.Addr)
	}
	// Root zone lookups still work.
	resp, err = c.Query(dnswire.MustName("www.example.com."), dnswire.TypeA)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Authority) == 0 {
		t.Error("root referral broken with extra zones")
	}
}

func TestMultiZoneOldB(t *testing.T) {
	companion := zone.SynthesizeRootServersNet(2023100100, true)
	glue := companion.Glue(dnswire.MustName("b.root-servers.net."))
	foundOld := false
	for _, rr := range glue {
		if rr.Data.String() == "199.9.14.201" {
			foundOld = true
		}
	}
	if !foundOld {
		t.Errorf("old-b companion glue = %v", glue)
	}
}

func TestNXDomainNSECProof(t *testing.T) {
	z, _ := signedRootZone(t, 10)
	_, c := startServer(t, Config{Zone: z})
	c.EDNSSize = 4096
	resp, err := c.Query(dnswire.MustName("no-such-tld-xyz."), dnswire.TypeA)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Header.Rcode != dnswire.RcodeNXDomain {
		t.Fatalf("rcode = %s", resp.Header.Rcode)
	}
	var nsecs []dnswire.RR
	var nsecSigs int
	for _, rr := range resp.Authority {
		switch d := rr.Data.(type) {
		case dnswire.NSECRecord:
			nsecs = append(nsecs, rr)
		case dnswire.RRSIGRecord:
			if d.TypeCovered == dnswire.TypeNSEC {
				nsecSigs++
			}
		}
	}
	if len(nsecs) == 0 {
		t.Fatal("NXDOMAIN carries no NSEC proof with DO set")
	}
	if nsecSigs == 0 {
		t.Error("NSEC proof unsigned")
	}
	// The covering NSEC must actually cover the queried name, by the
	// denial oracle's span check.
	if kind, err := checkDenial(nsecs, dnswire.MustName("no-such-tld-xyz."), dnswire.TypeA); err != nil || kind != denialNXDomain {
		t.Errorf("returned NSECs do not prove NXDOMAIN: kind=%v err=%v", kind, err)
	}
}

func TestNODataNSECProof(t *testing.T) {
	z, _ := signedRootZone(t, 10)
	_, c := startServer(t, Config{Zone: z})
	c.EDNSSize = 4096
	// The apex has no TXT record: NODATA with the apex NSEC as proof.
	resp, err := c.Query(dnswire.Root, dnswire.TypeTXT)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Header.Rcode != dnswire.RcodeNoError || len(resp.Answers) != 0 {
		t.Fatalf("rcode=%s answers=%d", resp.Header.Rcode, len(resp.Answers))
	}
	var nsecs []dnswire.RR
	for _, rr := range resp.Authority {
		if _, ok := rr.Data.(dnswire.NSECRecord); ok {
			nsecs = append(nsecs, rr)
		}
	}
	if kind, err := checkDenial(nsecs, dnswire.Root, dnswire.TypeTXT); err != nil || kind != denialNoData {
		t.Errorf("returned NSECs do not prove NODATA: kind=%v err=%v", kind, err)
	}
}

// TestNSECCovers pins which NSEC the oracle picks to deny a name: the one
// whose span covers it, through the chain's wrap-around at the apex.
func TestNSECCovers(t *testing.T) {
	z := zone.New(dnswire.Root)
	chain := []string{".", "com.", "de.", "ws."}
	for i, owner := range chain {
		z.Add(dnswire.RR{Name: dnswire.MustName(owner), Class: dnswire.ClassINET, TTL: 60,
			Data: dnswire.NSECRecord{NextName: dnswire.MustName(chain[(i+1)%len(chain)])}})
	}
	for name, want := range map[string]string{
		"cz.": "com.",
		"fr.": "de.",
		"zz.": "ws.", // wrap-around
		"aa.": ".",   // before the first TLD: the apex span
	} {
		rr, ok := z.CoveringNSEC(dnswire.MustName(name))
		if !ok || string(rr.Name) != want {
			t.Errorf("CoveringNSEC(%s) = %q, %v; want the NSEC at %s", name, rr.Name, ok, want)
		}
	}
	if _, ok := zone.New(dnswire.Root).CoveringNSEC("cz."); ok {
		t.Error("a zone without NSEC records produced a covering NSEC")
	}
}
