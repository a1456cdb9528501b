package dnsserver

import (
	"bytes"
	"testing"

	"repro/internal/dnswire"
	"repro/internal/zone"
)

// fuzzSeeds are query wires that between them reach every answer kind, the
// shapes the fast parser refuses, and both compression traps: a question
// whose tail is spelled unlike the zone's ("www.CoM."), and one that
// coincides with an in-bailiwick name of the referral it gets ("ns1.com.").
func fuzzSeeds(f *testing.F) [][]byte {
	f.Helper()
	var seeds [][]byte
	add := func(m *dnswire.Message, edit func([]byte) []byte) {
		wire, err := m.Pack()
		if err != nil {
			f.Fatal(err)
		}
		if edit != nil {
			wire = edit(wire)
		}
		seeds = append(seeds, wire)
	}
	add(dnswire.NewQuery(1, "www.com.", dnswire.TypeA), nil)
	add(dnswire.NewQuery(2, "www.CoM.", dnswire.TypeA), nil)
	add(dnswire.NewQuery(3, "ns1.com.", dnswire.TypeA).WithEDNS(1232, false), nil)
	add(dnswire.NewQuery(4, "NS1.com.", dnswire.TypeAAAA), nil)
	add(dnswire.NewQuery(5, "junk.nosuchtld.", dnswire.TypeA).WithEDNS(4096, true), nil)
	add(dnswire.NewQuery(6, "x.net.", dnswire.TypeA), nil)
	add(dnswire.NewQuery(7, dnswire.Root, dnswire.TypeNS).WithEDNS(512, true), nil)
	add(dnswire.NewQuery(8, dnswire.Root, dnswire.TypeDNSKEY).WithEDNS(4096, true), nil)
	add(dnswire.NewQuery(9, "a.ROOT-SERVERS.net.", dnswire.TypeMX), nil)
	add(dnswire.NewQuery(10, "com.", dnswire.TypeDS).WithEDNS(1232, true), nil)
	add(dnswire.NewChaosQuery(11, "HostName.bind."), nil)
	add(dnswire.NewChaosQuery(12, "version.server.").WithEDNS(4096, false), nil)
	add(dnswire.NewQuery(13, dnswire.Root, dnswire.TypeAXFR), nil)
	// Refused shapes: a trailing octet, a NOTIFY, a compressed question.
	add(dnswire.NewQuery(14, dnswire.Root, dnswire.TypeSOA), func(w []byte) []byte { return append(w, 0) })
	notify := dnswire.NewQuery(15, "com.", dnswire.TypeSOA)
	notify.Header.Opcode = dnswire.OpcodeNotify
	add(notify, nil)
	add(dnswire.NewQuery(16, "com.", dnswire.TypeA), func(w []byte) []byte {
		// "com." → a pointer to itself would loop; point a second label at
		// the first instead: "\x03com\xC0\x0C" is malformed for both parsers.
		return append(w[:16:16], 0xC0, 0x0C, 0, 1, 0, 1)
	})
	return seeds
}

// FuzzShapeAgreement holds the fast parser to the full decoder: whatever
// parseQueryShape accepts, dnswire.Unpack accepts, and the two agree on
// where the question ends and what it asks, on whether there is an OPT
// record, and on its DO bit and advertised size.
func FuzzShapeAgreement(f *testing.F) {
	for _, seed := range fuzzSeeds(f) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		sh := parseQueryShape(data)
		if !sh.ok {
			return
		}
		m, err := dnswire.Unpack(data)
		if err != nil {
			t.Fatalf("the fast parser accepted what Unpack rejects: %v", err)
		}
		if len(m.Questions) != 1 || m.Header.Response || m.Header.Opcode != dnswire.OpcodeQuery {
			t.Fatalf("accepted a message that is not one plain query: %+v", m.Header)
		}
		question, err := (&dnswire.Message{Questions: m.Questions}).Pack()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(question[udpHeaderLen:], data[udpHeaderLen:sh.qEnd]) {
			t.Fatalf("question section: fast parser ends it at %d (% x), Unpack read % x",
				sh.qEnd, data[udpHeaderLen:sh.qEnd], question[udpHeaderLen:])
		}
		if q := m.Questions[0]; q.Type != sh.qtype || q.Class != sh.qclass {
			t.Fatalf("question: fast parser read %s/%s, Unpack %s/%s", sh.qclass, sh.qtype, q.Class, q.Type)
		}
		opt, ok := m.EDNS()
		if ok != sh.hasEDNS || opt.Do != sh.do || opt.UDPSize != sh.adv {
			t.Fatalf("OPT: fast parser read (%v do=%v size=%d), Unpack (%v do=%v size=%d)",
				sh.hasEDNS, sh.do, sh.adv, ok, opt.Do, opt.UDPSize)
		}
	})
}

// FuzzCompiledAgreement holds the wire entry to the oracle on mutated
// queries: whatever the fast parser accepts is answered byte for byte as
// decode + Handle + pack + truncate answers it, under the UDP limit and
// under TCP's, the first time and again; whatever it refuses is answered
// that way too, except over UDP beyond the 512-byte cap on oracle work, where
// nothing is. One server lives across inputs, so variants compiled for one
// input serve the next.
func FuzzCompiledAgreement(f *testing.F) {
	for _, seed := range fuzzSeeds(f) {
		f.Add(seed)
	}
	z, _ := signedRootZone(f, 10)
	s, err := New(Config{
		Zone:       z,
		ExtraZones: []*zone.Zone{zone.SynthesizeRootServersNet(z.Serial(), false)},
		Identity:   Identity{Hostname: "fuzz.example", Version: "v"},
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		sh := parseQueryShape(data)
		m, err := dnswire.Unpack(data)
		for _, tcp := range []bool{false, true} {
			var want []byte
			if err == nil && (sh.ok || tcp || len(data) <= dnswire.MaxUDPPayload) {
				limit := maxTCPMessage
				if !tcp {
					opt, ok := m.EDNS()
					limit = s.bucketLimit(ok, opt.UDPSize)
				}
				want = oracleBytes(t, s, data, limit)
			}
			for touch := 1; touch <= 2; touch++ {
				if got := s.ServeWire(nil, data, tcp); !bytes.Equal(got, want) {
					t.Fatalf("tcp=%v touch %d: answer differs from the oracle\n query % x\n got   % x\n want  % x",
						tcp, touch, data, got, want)
				}
			}
		}
	})
}
