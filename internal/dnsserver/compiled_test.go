package dnsserver

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"strings"
	"testing"
	"time"

	"repro/internal/dnswire"
	"repro/internal/zone"
)

// oracleBytes is the reference every compiled answer is held to: decode,
// Handle, pack, and truncate to limit the way the oracle path does. It
// returns nil where the oracle does not answer.
func oracleBytes(tb testing.TB, s *Server, wire []byte, limit int) []byte {
	tb.Helper()
	query, err := dnswire.Unpack(wire)
	if err != nil {
		return nil
	}
	resp := s.Handle(query, false)
	if resp == nil {
		return nil
	}
	out, err := resp.Pack()
	if err != nil {
		tb.Fatal(err)
	}
	if len(out) > limit {
		tc := &dnswire.Message{Header: resp.Header, Questions: resp.Questions}
		tc.Header.Truncated = true
		if out, err = tc.Pack(); err != nil {
			tb.Fatal(err)
		}
	}
	return out
}

// mixCase upper-cases every other letter of name, starting with the first or
// the second.
func mixCase(name dnswire.Name, phase int) dnswire.Name {
	b := []byte(name)
	for i, c := range b {
		if 'a' <= c && c <= 'z' && i%2 == phase {
			b[i] = c - 'a' + 'A'
		}
	}
	return dnswire.Name(b)
}

// neighbours returns the single-label names canonically just before and just
// after the single-label owner: inside the NSEC spans on either side of it.
func neighbours(owner dnswire.Name) []dnswire.Name {
	label := owner.Labels()[0]
	after := dnswire.Name(label + "\x00.")
	last := label[len(label)-1]
	if last == 0 || len(label) == dnswire.MaxLabelLen {
		return []dnswire.Name{after}
	}
	return []dnswire.Name{dnswire.Name(label[:len(label)-1] + string([]byte{last - 1, 0xff}) + "."), after}
}

// diffCase is one query of the differential matrix.
type diffCase struct {
	name  dnswire.Name
	typ   dnswire.Type
	class dnswire.Class
}

// diffCases spans the answer space of the zones s serves: every owner under
// several spellings and with extra labels in front, asked for each type it
// has, one it lacks, ANY, and the types a cut is special for; the gaps
// around every NSEC owner; the CHAOS names; and the classes nobody serves.
func diffCases(zones ...*zone.Zone) []diffCase {
	var cases []diffCase
	add := func(name dnswire.Name, class dnswire.Class, types ...dnswire.Type) {
		for _, t := range types {
			cases = append(cases, diffCase{name, t, class})
		}
	}
	for _, z := range zones {
		ix := z.Index()
		for i, owner := range z.Names() {
			types := append([]dnswire.Type{dnswire.TypeMX, dnswire.TypeANY, dnswire.TypeNS, dnswire.TypeDS}, ix.Types(i)...)
			spellings := []dnswire.Name{owner, mixCase(owner, 0), mixCase(owner, 1)}
			// One label upper-cased at a time: the question then matches the
			// body's names up to that label and no further.
			if labels := owner.Labels(); len(labels) > 1 {
				for k := range labels {
					up := append([]string(nil), labels...)
					up[k] = strings.ToUpper(up[k])
					spellings = append(spellings, dnswire.Name(strings.Join(up, ".")+"."))
				}
			}
			for _, prefix := range []string{"x.", "X.y.", "x.y.z."} {
				if !owner.IsRoot() {
					spellings = append(spellings, dnswire.Name(prefix)+owner, dnswire.Name(prefix)+mixCase(owner, 0))
				}
			}
			for _, name := range spellings {
				add(name, dnswire.ClassINET, types...)
			}
			if len(owner.Labels()) == 1 {
				for _, name := range neighbours(owner) {
					add(name, dnswire.ClassINET, dnswire.TypeA, dnswire.TypeNS)
					add("x."+name, dnswire.ClassINET, dnswire.TypeA)
				}
			}
		}
		// Both ends of the wrap-around span, and a name that is NXDOMAIN in
		// a small zone while "net." appears in every SOA's MNAME.
		add("\x00.", dnswire.ClassINET, dnswire.TypeA)
		add("\xff\xff.", dnswire.ClassINET, dnswire.TypeA, dnswire.TypeDS)
		add("x.net.", dnswire.ClassINET, dnswire.TypeA)
		add("x.NET.", dnswire.ClassINET, dnswire.TypeA)
	}
	for _, name := range []dnswire.Name{"hostname.bind.", "ID.Server.", "version.bind.", "VERSION.SERVER.", "other.bind.", "bind."} {
		add(name, dnswire.ClassCHAOS, dnswire.TypeTXT, dnswire.TypeA)
	}
	add("com.", dnswire.ClassANY, dnswire.TypeA)
	add(".", dnswire.Class(4), dnswire.TypeSOA)
	add(".", dnswire.ClassINET, dnswire.TypeAXFR)
	return cases
}

// ednsForms are the OPT records a query of the matrix carries.
var ednsForms = []struct {
	size uint16 // 0: no OPT
	do   bool
}{{0, false}, {512, false}, {512, true}, {1232, false}, {1232, true}, {4096, false}, {4096, true}}

// tcpExchange sends one framed query on conn and returns the framed answer.
func tcpExchange(tb testing.TB, conn net.Conn, wire []byte) []byte {
	tb.Helper()
	conn.SetDeadline(time.Now().Add(5 * time.Second))
	frame := binary.BigEndian.AppendUint16(nil, uint16(len(wire)))
	if _, err := conn.Write(append(frame, wire...)); err != nil {
		tb.Fatal(err)
	}
	var prefix [2]byte
	if _, err := io.ReadFull(conn, prefix[:]); err != nil {
		tb.Fatal(err)
	}
	out := make([]byte, binary.BigEndian.Uint16(prefix[:]))
	if _, err := io.ReadFull(conn, out); err != nil {
		tb.Fatal(err)
	}
	return out
}

// TestCompiledAnswersMatchOracle is the differential table test: over the
// whole answer space of signed 10- and 120-TLD root zones served beside
// root-servers.net (and of root-servers.net served alone, where everything
// else is out of zone and the identity answers are suppressed), the bytes from the wire entry point — under the UDP
// limit and under TCP's — equal the oracle's, the first time a query
// touches its cell and the second; one case in socketEvery also goes through
// the real UDP and TCP sockets. Four shards run in parallel against one
// server, so under -race first-touch compilation is contended too.
func TestCompiledAnswersMatchOracle(t *testing.T) {
	const shards, socketEvery = 4, 61
	companion := zone.SynthesizeRootServersNet(2023121000, false)
	small, _ := signedRootZone(t, 10)
	large, _ := signedRootZone(t, 120)
	for _, setup := range []struct {
		name string
		cfg  Config
	}{
		{"root-10", Config{Zone: small, ExtraZones: []*zone.Zone{companion}, Identity: Identity{Hostname: "h.example", Version: "v1"}}},
		{"root-120", Config{Zone: large, ExtraZones: []*zone.Zone{companion}, Identity: Identity{Hostname: "h.example"}}},
		{"root-servers-only", Config{Zone: companion}},
	} {
		cfg := setup.cfg
		cfg.ServeWorkers = 2
		cases := diffCases(append([]*zone.Zone{cfg.Zone}, cfg.ExtraZones...)...)
		t.Run(setup.name, func(t *testing.T) {
			s, c := startServer(t, cfg)
			for shard := 0; shard < shards; shard++ {
				shard := shard
				t.Run(fmt.Sprintf("shard-%d", shard), func(t *testing.T) {
					t.Parallel()
					udp := dialUDP(t, s.udps[0].LocalAddr())
					tcp, err := net.DialTimeout("tcp", c.Addr, 2*time.Second)
					if err != nil {
						t.Fatal(err)
					}
					defer tcp.Close()
					var got []byte
					for i := shard; i < len(cases); i += shards {
						dc := cases[i]
						for j, e := range ednsForms {
							q := &dnswire.Message{
								Header:    dnswire.Header{ID: uint16(i*7 + j), RecursionDesired: i%2 == 0},
								Questions: []dnswire.Question{{Name: dc.name, Type: dc.typ, Class: dc.class}},
							}
							if e.size > 0 {
								q.WithEDNS(e.size, e.do)
							}
							wire, err := q.Pack()
							if err != nil {
								t.Fatal(err)
							}
							limit := s.bucketLimit(e.size > 0, e.size)
							want := map[bool][]byte{false: oracleBytes(t, s, wire, limit), true: oracleBytes(t, s, wire, maxTCPMessage)}
							if want[true] == nil {
								t.Fatalf("%v: the oracle gave no answer", q.Questions[0])
							}
							for touch := 1; touch <= 2; touch++ {
								for _, overTCP := range []bool{false, true} {
									if got = s.ServeWire(got[:0], wire, overTCP); !bytes.Equal(got, want[overTCP]) {
										t.Fatalf("%v edns=%v tcp=%v touch %d: wire entry differs from the oracle\n got  %x\n want %x",
											q.Questions[0], e, overTCP, touch, got, want[overTCP])
									}
								}
								if (i*len(ednsForms)+j)%socketEvery != 0 {
									continue
								}
								if raw, ok := sendMaybe(t, udp, wire, 5*time.Second); !ok || !bytes.Equal(raw, want[false]) {
									t.Fatalf("%v edns=%v touch %d: UDP answer differs from the oracle\n got  %x\n want %x",
										q.Questions[0], e, touch, raw, want[false])
								}
								if dc.typ == dnswire.TypeAXFR {
									continue // a transfer request, on TCP
								}
								if raw := tcpExchange(t, tcp, wire); !bytes.Equal(raw, want[true]) {
									t.Fatalf("%v edns=%v touch %d: TCP answer differs from the oracle\n got  %x\n want %x",
										q.Questions[0], e, touch, raw, want[true])
								}
							}
						}
					}
				})
			}
		})
	}
}

// TestCompiledPathAllocs pins the steady state of the byte path in tier-1:
// once an answer is compiled, classifying and stitching a query onto it
// allocates nothing — for a referral, an NXDOMAIN with its NSEC proof, and
// an answer cut down to a TC stub.
func TestCompiledPathAllocs(t *testing.T) {
	z, _ := signedRootZone(t, 120)
	s, err := New(Config{Zone: z})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name   string
		query  *dnswire.Message
		wantTC bool
	}{
		{"referral", dnswire.NewQuery(1, "www.example.com.", dnswire.TypeA), false},
		{"nxdomain-do", dnswire.NewQuery(2, "junk.nosuchtld.", dnswire.TypeA).WithEDNS(1232, true), false},
		{"tc-stub", dnswire.NewQuery(3, dnswire.Root, dnswire.TypeNS), true},
	} {
		wire, err := tc.query.Pack()
		if err != nil {
			t.Fatal(err)
		}
		bufs := new(shardBufs)
		sh := parseQueryShape(wire)
		serve := func() {
			bufs.resp = s.answerCompiled(s.state.Load(), 0, &bufs.name, bufs.resp[:0], wire, sh, s.bucketLimit(sh.hasEDNS, sh.adv))
		}
		serve() // first touch: the oracle compiles the answer
		if len(bufs.resp) == 0 || respTC(bufs.resp) == 1 != tc.wantTC {
			t.Fatalf("%s: answer %d bytes, TC=%d, want TC=%v", tc.name, len(bufs.resp), respTC(bufs.resp), tc.wantTC)
		}
		if allocs := testing.AllocsPerRun(200, serve); allocs != 0 {
			t.Errorf("%s: %.1f allocs per compiled answer, want 0", tc.name, allocs)
		}
	}
}

// TestSetZoneDropsCompiledAnswers verifies the atomic swap: after SetZone no
// answer compiled from the old zone is served, and the new zone's answers
// equal the oracle's byte for byte.
func TestSetZoneDropsCompiledAnswers(t *testing.T) {
	z, _ := signedRootZone(t, 5)
	s, err := New(Config{Zone: z})
	if err != nil {
		t.Fatal(err)
	}
	wire, _ := dnswire.NewQuery(3, dnswire.Root, dnswire.TypeSOA).Pack()
	before := s.ServeWire(nil, wire, false)
	s.ServeWire(nil, wire, false) // the compiled answer is in use
	s.SetZone(z.BumpSerial(z.Serial() + 7))
	after := s.ServeWire(nil, wire, false)
	if bytes.Equal(before, after) {
		t.Fatal("response unchanged after SetZone: an answer compiled from the old zone was served")
	}
	if want := oracleBytes(t, s, wire, 512); !bytes.Equal(after, want) {
		t.Error("post-swap answer differs from the oracle")
	}
	resp, err := dnswire.Unpack(after)
	if err != nil {
		t.Fatal(err)
	}
	if got := resp.Answers[0].Data.(dnswire.SOARecord).Serial; got != z.Serial()+7 {
		t.Errorf("serial after SetZone = %d, want %d", got, z.Serial()+7)
	}
}
