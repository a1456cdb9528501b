package resolver

import (
	"fmt"
	"math/rand"
	"net/netip"
	"testing"
	"time"

	"repro/internal/dnssec"
	"repro/internal/dnsserver"
	"repro/internal/dnswire"
	"repro/internal/hints"
	"repro/internal/zone"
)

var studyTime = time.Date(2023, 12, 10, 0, 0, 0, 0, time.UTC)

// testRoot builds a signed root zone, serves it on loopback, and returns an
// exchanger that maps every root hint address to the loopback server.
func testRoot(t *testing.T) (*hints.File, *NetExchanger) {
	t.Helper()
	signer, err := dnssec.NewSigner(rand.New(rand.NewSource(6)))
	if err != nil {
		t.Fatal(err)
	}
	cfg := zone.DefaultRootConfig()
	cfg.TLDCount = 20
	z, err := signer.Sign(zone.SynthesizeRoot(cfg), studyTime)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := dnsserver.New(dnsserver.Config{Zone: z, Identity: dnsserver.Identity{Hostname: "root1"}})
	if err != nil {
		t.Fatal(err)
	}
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })

	h := hints.Default()
	ex := &NetExchanger{AddrMap: map[netip.Addr]string{}, Timeout: 2 * time.Second}
	for _, hint := range h.Hints {
		ex.AddrMap[hint.V4] = addr.String()
		ex.AddrMap[hint.V6] = addr.String()
	}
	return h, ex
}

// mappedOnly refuses every address that has no AddrMap entry and hands the
// rest to the NetExchanger, so a test never dials a real address on port 53
// (the synthetic root zone's glue lies in publicly routed space).
type mappedOnly struct{ *NetExchanger }

func (m mappedOnly) Exchange(addr netip.Addr, q *dnswire.Message) (*dnswire.Message, error) {
	if _, ok := m.AddrMap[addr]; !ok {
		return nil, fmt.Errorf("test: no server mapped for %s", addr)
	}
	return m.NetExchanger.Exchange(addr, q)
}

// servfailUnmapped answers SERVFAIL for every address that has no AddrMap
// entry and hands the rest to the NetExchanger.
type servfailUnmapped struct{ *NetExchanger }

func (s servfailUnmapped) Exchange(addr netip.Addr, q *dnswire.Message) (*dnswire.Message, error) {
	if _, ok := s.AddrMap[addr]; !ok {
		return &dnswire.Message{
			Header:    dnswire.Header{ID: q.Header.ID, Response: true, Rcode: dnswire.RcodeServFail},
			Questions: q.Questions,
		}, nil
	}
	return s.NetExchanger.Exchange(addr, q)
}

func TestPrimeRefreshesHints(t *testing.T) {
	h, ex := testRoot(t)
	stale := h.WithOldB(netip.MustParseAddr("199.9.14.201"), netip.MustParseAddr("2001:500:200::b"))
	// Map the old address too: the stale resolver may prime against it.
	for _, hint := range h.Hints {
		if v, ok := ex.AddrMap[hint.V4]; ok {
			ex.AddrMap[netip.MustParseAddr("199.9.14.201")] = v
			ex.AddrMap[netip.MustParseAddr("2001:500:200::b")] = v
			break
		}
	}
	r := New(stale, ex)
	if err := r.Prime(); err != nil {
		t.Fatal(err)
	}
	b, ok := r.Hints.Lookup(dnswire.MustName("b.root-servers.net."))
	if !ok || b.V4.String() != "170.247.170.2" {
		t.Errorf("post-priming b hint = %+v (ok=%v)", b, ok)
	}
}

func TestResolveApexNS(t *testing.T) {
	h, ex := testRoot(t)
	r := New(h, ex)
	res, err := r.Resolve(dnswire.Root, dnswire.TypeNS)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rcode != dnswire.RcodeNoError || len(res.Answers) != 13 {
		t.Errorf("apex NS: rcode=%s answers=%d", res.Rcode, len(res.Answers))
	}
}

func TestResolveNXDomain(t *testing.T) {
	h, ex := testRoot(t)
	r := New(h, ex)
	res, err := r.Resolve(dnswire.MustName("nosuchtld-qqq."), dnswire.TypeA)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rcode != dnswire.RcodeNXDomain {
		t.Errorf("rcode = %s, want NXDOMAIN", res.Rcode)
	}
}

func TestResolveStopsAtGluelessReferral(t *testing.T) {
	h, ex := testRoot(t)
	r := New(h, mappedOnly{ex})
	// com.'s delegation glue points at synthetic addresses with no mapped
	// server; the resolver must return the deepest referral, not an error.
	res, err := r.Resolve(dnswire.MustName("www.example.com."), dnswire.TypeA)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Answers) != 0 {
		t.Errorf("unexpected answers: %v", res.Answers)
	}
	if len(res.Delegation) == 0 {
		t.Fatal("no delegation recorded")
	}
	if res.Delegation[0].Name != "com." {
		t.Errorf("delegation owner = %s", res.Delegation[0].Name)
	}
	if len(res.Chain) < 2 || res.Chain[1] != "com." {
		t.Errorf("chain = %v", res.Chain)
	}
}

func TestResolveStopsAtServfailReferral(t *testing.T) {
	// Every com. server answers SERVFAIL: like unreachable glue, that ends
	// the resolution at the com. referral.
	h, ex := testRoot(t)
	r := New(h, servfailUnmapped{ex})
	res, err := r.Resolve(dnswire.MustName("www.example.com."), dnswire.TypeA)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Answers) != 0 || len(res.Delegation) == 0 || res.Delegation[0].Name != "com." {
		t.Errorf("answers = %v, delegation = %v", res.Answers, res.Delegation)
	}
	if len(res.Chain) != 2 || res.Chain[1] != "com." {
		t.Errorf("chain = %v", res.Chain)
	}
}

func TestResolveUnreachableRootFails(t *testing.T) {
	// No hint address is mapped: the root itself cannot be reached, so
	// there is no referral to return and the error must surface.
	ex := mappedOnly{&NetExchanger{AddrMap: map[netip.Addr]string{}, Timeout: 2 * time.Second}}
	r := New(hints.Default(), ex)
	res, err := r.Resolve(dnswire.MustName("www.example.com."), dnswire.TypeA)
	if err == nil || res != nil {
		t.Errorf("unreachable root: res = %+v, err = %v; want nil result and an error", res, err)
	}
}

func TestFullIterativeResolution(t *testing.T) {
	// Two-level hierarchy over real sockets: a root server delegating com.
	// to a second loopback server authoritative for com.
	h, ex := testRoot(t)

	comZone := zone.New(dnswire.MustName("com."))
	comZone.Add(
		dnswire.RR{Name: dnswire.MustName("com."), Class: dnswire.ClassINET, TTL: 3600,
			Data: dnswire.SOARecord{
				MName: dnswire.MustName("ns1.com."), RName: dnswire.MustName("hostmaster.com."),
				Serial: 1, Refresh: 1800, Retry: 900, Expire: 604800, Minimum: 3600,
			}},
		dnswire.RR{Name: dnswire.MustName("com."), Class: dnswire.ClassINET, TTL: 3600,
			Data: dnswire.NSRecord{Host: dnswire.MustName("ns1.com.")}},
		dnswire.RR{Name: dnswire.MustName("www.example.com."), Class: dnswire.ClassINET, TTL: 300,
			Data: dnswire.ARecord{Addr: netip.MustParseAddr("203.0.113.80")}},
	)
	comSrv, err := dnsserver.New(dnsserver.Config{Zone: comZone})
	if err != nil {
		t.Fatal(err)
	}
	comAddr, err := comSrv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { comSrv.Close() })

	// Map every glue address the root zone hands out for com.'s name
	// servers to the real com server.
	rootCfg := zone.DefaultRootConfig()
	rootCfg.TLDCount = 20
	rootZone := zone.SynthesizeRoot(rootCfg)
	for _, rr := range rootZone.Records {
		if rr.Name.SubdomainOf(dnswire.MustName("com.")) && rr.Name != "com." {
			switch d := rr.Data.(type) {
			case dnswire.ARecord:
				ex.AddrMap[d.Addr] = comAddr.String()
			case dnswire.AAAARecord:
				ex.AddrMap[d.Addr] = comAddr.String()
			}
		}
	}

	r := New(h, ex)
	r.PrimeOnStart = true
	res, err := r.Resolve(dnswire.MustName("www.example.com."), dnswire.TypeA)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Answers) != 1 {
		t.Fatalf("answers = %v (chain %v)", res.Answers, res.Chain)
	}
	a, ok := res.Answers[0].Data.(dnswire.ARecord)
	if !ok || a.Addr.String() != "203.0.113.80" {
		t.Errorf("answer = %v", res.Answers[0])
	}
	if len(res.Chain) < 2 {
		t.Errorf("chain = %v", res.Chain)
	}
}

func TestPrimeNoServers(t *testing.T) {
	r := New(&hints.File{}, &NetExchanger{Timeout: 100 * time.Millisecond})
	if err := r.Prime(); err == nil {
		t.Error("priming with no hints succeeded")
	}
}

func TestResolveValidatesNXDomainProof(t *testing.T) {
	// Build a signed root zone; the resolver carries its DNSKEYs and
	// demands NSEC proofs on NXDOMAIN.
	signer, err := dnssec.NewSigner(rand.New(rand.NewSource(23)))
	if err != nil {
		t.Fatal(err)
	}
	cfg := zone.DefaultRootConfig()
	cfg.TLDCount = 12
	z, err := signer.Sign(zone.SynthesizeRoot(cfg), studyTime)
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
	t.Cleanup(func() { srv.Close() })
	h := hints.Default()
	ex := &NetExchanger{AddrMap: map[netip.Addr]string{}, Timeout: 2 * time.Second}
	for _, hint := range h.Hints {
		ex.AddrMap[hint.V4] = addr.String()
	}

	var keys []dnswire.DNSKEYRecord
	for _, rr := range z.Lookup(dnswire.Root, dnswire.TypeDNSKEY) {
		keys = append(keys, rr.Data.(dnswire.DNSKEYRecord))
	}
	r := New(h, ex)
	r.TrustedKeys = keys
	r.Now = func() time.Time { return studyTime.Add(time.Hour) }

	res, err := r.Resolve(dnswire.MustName("no-such-tld-xyz."), dnswire.TypeA)
	if err != nil {
		t.Fatalf("validated NXDOMAIN rejected: %v", err)
	}
	if res.Rcode != dnswire.RcodeNXDomain {
		t.Errorf("rcode = %s", res.Rcode)
	}

	// With the wrong trust keys, the proof must be rejected.
	otherSigner, err := dnssec.NewSigner(rand.New(rand.NewSource(24)))
	if err != nil {
		t.Fatal(err)
	}
	wrong := []dnswire.DNSKEYRecord{
		otherSigner.ZSK.DNSKEY(dnswire.Root, 172800).Data.(dnswire.DNSKEYRecord),
	}
	r2 := New(h, ex)
	r2.TrustedKeys = wrong
	r2.Now = r.Now
	if _, err := r2.Resolve(dnswire.MustName("no-such-tld-xyz."), dnswire.TypeA); err == nil {
		t.Error("NXDOMAIN accepted with wrong trust keys")
	}
}
