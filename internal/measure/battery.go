package measure

import (
	"bytes"
	"fmt"

	"repro/internal/axfr"
	"repro/internal/dnsserver"
	"repro/internal/dnswire"
	"repro/internal/rss"
	"repro/internal/topology"
	"repro/internal/zone"
)

// Battery is the wire-true query set of the paper's measurement script
// (Appendix F): per root server IP, 47 queries — AXFR, ZONEMD, NS for "."
// and root-servers.net, the four CHAOS identity probes, and A/AAAA/TXT for
// each of the 13 root server names. RunBattery builds every query as a real
// DNS message, runs its bytes through an in-process authoritative server's
// wire entry point, and verifies the responses, so the codec, server, and
// zone contents are exercised end-to-end inside the campaign.
type Battery struct {
	srv *dnsserver.Server
}

// NewBattery wraps the root zone (and the root-servers.net companion zone
// the real root servers also serve) in an in-process server. The companion
// is derived from the root zone's era: pre-renumbering serials carry
// b.root's old addresses.
func NewBattery(z *zone.Zone, identity dnsserver.Identity) (*Battery, error) {
	oldB := zone.SerialCompare(z.Serial(), 2023112700) < 0
	companion := zone.SynthesizeRootServersNet(z.Serial(), oldB)
	srv, err := dnsserver.New(dnsserver.Config{
		Zone: z, ExtraZones: []*zone.Zone{companion},
		Identity: identity, AllowAXFR: true, UDPSize: 4096,
	})
	if err != nil {
		return nil, err
	}
	return &Battery{srv: srv}, nil
}

// BatteryResult summarizes a battery run.
type BatteryResult struct {
	Queries  int
	Failures []string
}

// ok records a check.
func (r *BatteryResult) check(cond bool, format string, args ...any) {
	if !cond {
		r.Failures = append(r.Failures, fmt.Sprintf(format, args...))
	}
}

// Run executes the full battery against the server as seen through target
// (the identity answers and the b.root glue expectation depend on it).
func (b *Battery) Run(target rss.ServiceAddr, expectIdentity string) BatteryResult {
	var res BatteryResult
	var id uint16
	// Two scratch buffers serve all 47 round-trips: Unpack copies everything
	// it keeps, so each exchange may overwrite the previous one's bytes.
	var scratch, answer []byte

	query := func(name dnswire.Name, typ dnswire.Type, class dnswire.Class) *dnswire.Message {
		id++
		q := &dnswire.Message{
			Header:    dnswire.Header{ID: id, Opcode: dnswire.OpcodeQuery},
			Questions: []dnswire.Question{{Name: name, Type: typ, Class: class}},
		}
		q.WithEDNS(4096, true)
		res.Queries++
		// Through the wire codec and the server's byte path, as a socket
		// would; over "TCP", so no answer is cut to a UDP size.
		wire, err := q.AppendPack(scratch[:0])
		if err != nil {
			res.check(false, "pack %s/%s: %v", name, typ, err)
			return nil
		}
		scratch = wire[:0]
		answer = b.srv.ServeWire(answer[:0], wire, true)
		if len(answer) == 0 {
			res.check(false, "no response for %s/%s", name, typ)
			return nil
		}
		back, err := dnswire.Unpack(answer)
		if err != nil {
			res.check(false, "unpack response %s/%s: %v", name, typ, err)
			return nil
		}
		res.check(back.Header.ID == id, "%s/%s: response ID mismatch", name, typ)
		return back
	}

	// 1. NS for the root: the priming response.
	if m := query(dnswire.Root, dnswire.TypeNS, dnswire.ClassINET); m != nil {
		ns := 0
		for _, rr := range m.Answers {
			if rr.Type() == dnswire.TypeNS {
				ns++
			}
		}
		res.check(ns == 13, "priming returned %d NS records", ns)
	}
	// 2. NS for root-servers.net: the companion zone's authoritative set.
	if m := query(dnswire.MustName("root-servers.net."), dnswire.TypeNS, dnswire.ClassINET); m != nil {
		ns := 0
		for _, rr := range m.Answers {
			if rr.Type() == dnswire.TypeNS {
				ns++
			}
		}
		res.check(m.Header.Authoritative && ns == 13,
			"root-servers.net NS: aa=%v count=%d", m.Header.Authoritative, ns)
	}
	// 3. ZONEMD at the apex.
	if m := query(dnswire.Root, dnswire.TypeZONEMD, dnswire.ClassINET); m != nil {
		res.check(m.Header.Rcode == dnswire.RcodeNoError, "ZONEMD rcode %s", m.Header.Rcode)
	}
	// 4. The CHAOS identity battery.
	for _, name := range []string{"hostname.bind.", "id.server."} {
		if m := query(dnswire.MustName(name), dnswire.TypeTXT, dnswire.ClassCHAOS); m != nil && expectIdentity != "" {
			got := ""
			for _, rr := range m.Answers {
				if txt, ok := rr.Data.(dnswire.TXTRecord); ok && len(txt.Strings) > 0 {
					got = txt.Strings[0]
				}
			}
			res.check(got == expectIdentity, "%s = %q, want %q", name, got, expectIdentity)
		}
	}
	for _, name := range []string{"version.bind.", "version.server."} {
		query(dnswire.MustName(name), dnswire.TypeTXT, dnswire.ClassCHAOS)
	}
	// 5. A/AAAA/TXT for every root server name.
	for i, host := range zone.RootServerHosts() {
		wantV4, wantV6 := zone.WellKnownRootAddr(i)
		if i == 1 { // b.root: expectation depends on the zone's era
			soa, _ := b.srv.Zone().SOA()
			if zone.SerialCompare(soa.Data.(dnswire.SOARecord).Serial, 2023112700) < 0 {
				wantV4 = rss.Addr("b", topology.IPv4, true)
				wantV6 = rss.Addr("b", topology.IPv6, true)
			}
		}
		if m := query(host, dnswire.TypeA, dnswire.ClassINET); m != nil {
			found := false
			for _, rr := range m.Answers {
				if a, ok := rr.Data.(dnswire.ARecord); ok && a.Addr == wantV4 {
					found = true
				}
			}
			res.check(found, "%s A: expected %s", host, wantV4)
		}
		if m := query(host, dnswire.TypeAAAA, dnswire.ClassINET); m != nil {
			found := false
			for _, rr := range m.Answers {
				if a, ok := rr.Data.(dnswire.AAAARecord); ok && a.Addr == wantV6 {
					found = true
				}
			}
			res.check(found, "%s AAAA: expected %s", host, wantV6)
		}
		if m := query(host, dnswire.TypeTXT, dnswire.ClassINET); m != nil {
			// No TXT records exist for the hosts: NOERROR/NODATA with SOA.
			res.check(m.Header.Rcode == dnswire.RcodeNoError && len(m.Answers) == 0,
				"%s TXT: rcode %s answers %d", host, m.Header.Rcode, len(m.Answers))
		}
	}
	// 6. AXFR: serve and reassemble in-process.
	res.Queries++
	axq := dnswire.Question{Name: dnswire.Root, Type: dnswire.TypeAXFR, Class: dnswire.ClassINET}
	msgs, err := axfr.ResponseMessages(b.srv.Zone(), 9999, axq)
	if err != nil {
		res.check(false, "AXFR serve: %v", err)
		return res
	}
	var stream bytes.Buffer
	for _, m := range msgs {
		if err := axfr.WriteMessage(&stream, m); err != nil {
			res.check(false, "AXFR write: %v", err)
			return res
		}
	}
	// The lazy compare consumer both counts and byte-verifies the transfer
	// against the served zone's canonical sidecar without decoding records.
	got, err := axfr.ReceiveCompare(&stream, 9999, b.srv.Zone())
	if err != nil {
		res.check(false, "AXFR receive: %v", err)
		return res
	}
	res.check(got == len(b.srv.Zone().Records),
		"AXFR returned %d records, zone has %d", got, len(b.srv.Zone().Records))
	return res
}
