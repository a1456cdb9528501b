package dnsserver

import (
	"bytes"
	"encoding/binary"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/dnswire"
)

// rawUDP sends wire to the server and returns the raw response datagram,
// bypassing the client library so tests can pin exact bytes and TC bits.
func rawUDP(tb testing.TB, addr net.Addr, wire []byte) []byte {
	tb.Helper()
	raddr, err := net.ResolveUDPAddr("udp", addr.String())
	if err != nil {
		tb.Fatal(err)
	}
	conn, err := net.DialUDP("udp", nil, raddr)
	if err != nil {
		tb.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write(wire); err != nil {
		tb.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	buf := make([]byte, 64*1024)
	n, err := conn.Read(buf)
	if err != nil {
		tb.Fatal(err)
	}
	return buf[:n]
}

// TestTCFallbackAcrossEDNSSizes exercises truncation at every EDNS size
// bucket: the UDP response must fit the bucketed limit, set TC exactly when
// the full answer does not fit, and the TCP path must always return the
// complete answer.
func TestTCFallbackAcrossEDNSSizes(t *testing.T) {
	z, _ := signedRootZone(t, 30)
	s, c := startServer(t, Config{Zone: z})
	addr, _ := net.ResolveUDPAddr("udp", c.Addr)

	cases := []struct {
		name  string
		edns  uint16 // 0 = no EDNS
		do    bool
		limit int
	}{
		{"no-edns", 0, false, 512},
		{"edns-512", 512, false, 512},
		{"edns-1232-do", 1232, true, 1232},
		{"edns-4096-do", 4096, true, 4096},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			query := dnswire.NewQuery(99, dnswire.Root, dnswire.TypeNS)
			if tc.edns > 0 {
				query.WithEDNS(tc.edns, tc.do)
			}
			wire, err := query.Pack()
			if err != nil {
				t.Fatal(err)
			}
			// The full (untruncated) answer, as the TCP path would send it.
			full := s.Handle(query, true)
			fullWire, err := full.Pack()
			if err != nil {
				t.Fatal(err)
			}

			raw := rawUDP(t, addr, wire)
			resp, err := dnswire.Unpack(raw)
			if err != nil {
				t.Fatalf("UDP response unparseable: %v", err)
			}
			if len(raw) > tc.limit {
				t.Errorf("UDP response is %d bytes, over the %d limit", len(raw), tc.limit)
			}
			wantTC := len(fullWire) > tc.limit
			if resp.Header.Truncated != wantTC {
				t.Errorf("TC = %v, want %v (full answer %d bytes, limit %d)",
					resp.Header.Truncated, wantTC, len(fullWire), tc.limit)
			}
			if !wantTC && !bytes.Equal(raw, fullWire) {
				t.Error("untruncated UDP response differs from the full answer")
			}

			// The client must recover the complete answer (TCP fallback on TC).
			c.EDNSSize = tc.edns
			got, err := c.Query(dnswire.Root, dnswire.TypeNS)
			if err != nil {
				t.Fatal(err)
			}
			if got.Header.Truncated || len(got.Answers) < 13 {
				t.Errorf("fallback answer: TC=%v answers=%d", got.Header.Truncated, len(got.Answers))
			}
		})
	}
}

// TestSetZoneUnderLoad hammers the server from several goroutines while the
// zone is concurrently replaced. Every response must parse and carry a
// serial the server has actually served — never a torn response or an
// answer compiled from a zone that has been replaced.
// Run under -race this doubles as the swap-safety regression test for the
// old RWMutex zone field.
func TestSetZoneUnderLoad(t *testing.T) {
	z, _ := signedRootZone(t, 5)
	s, c := startServer(t, Config{Zone: z})
	addr, _ := net.ResolveUDPAddr("udp", c.Addr)

	base := z.Serial()
	const swaps = 40
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			query := dnswire.NewQuery(uint16(w), dnswire.Root, dnswire.TypeSOA)
			wire, _ := query.Pack()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				raw := rawUDP(t, addr, wire)
				resp, err := dnswire.Unpack(raw)
				if err != nil {
					t.Errorf("worker %d: torn response: %v", w, err)
					return
				}
				soa := resp.Answers[0].Data.(dnswire.SOARecord)
				if soa.Serial < base || soa.Serial > base+swaps {
					t.Errorf("worker %d: serial %d outside [%d, %d]", w, soa.Serial, base, base+swaps)
					return
				}
			}
		}(w)
	}
	for i := 1; i <= swaps; i++ {
		s.SetZone(z.BumpSerial(base + uint32(i)))
	}
	close(stop)
	wg.Wait()

	resp, err := c.Query(dnswire.Root, dnswire.TypeSOA)
	if err != nil {
		t.Fatal(err)
	}
	if got := resp.Answers[0].Data.(dnswire.SOARecord).Serial; got != base+swaps {
		t.Errorf("final serial = %d, want %d", got, base+swaps)
	}
}

// TestServeWorkersSharded runs a multi-shard server and checks queries land
// correctly regardless of which socket the kernel picks.
func TestServeWorkersSharded(t *testing.T) {
	z, _ := signedRootZone(t, 10)
	_, c := startServer(t, Config{Zone: z, ServeWorkers: 4})
	for i := 0; i < 32; i++ {
		resp, err := c.Query(dnswire.Root, dnswire.TypeSOA)
		if err != nil {
			t.Fatal(err)
		}
		if len(resp.Answers) != 1 || resp.Answers[0].Type() != dnswire.TypeSOA {
			t.Fatalf("query %d: answers = %v", i, resp.Answers)
		}
	}
}

// TestOracleCapOverUDP pins the one bound on oracle work per datagram: over
// UDP a shape the fast parser refuses is decoded only up to the classic
// 512-byte message size, and dropped undecoded (and counted) beyond it.
// Length alone never costs a query its answer: a parser-accepted query is
// stitched at any size, and TCP decodes any shape. ServeWire applies the
// socket's rule.
func TestOracleCapOverUDP(t *testing.T) {
	z, _ := signedRootZone(t, 10)
	s, c := startServer(t, Config{Zone: z})
	udpAddr, _ := net.ResolveUDPAddr("udp", c.Addr)
	udp := dialUDP(t, udpAddr)
	tcp, err := net.Dial("tcp", c.Addr)
	if err != nil {
		t.Fatal(err)
	}
	defer tcp.Close()

	plain, err := dnswire.NewQuery(7, dnswire.Root, dnswire.TypeSOA).Pack()
	if err != nil {
		t.Fatal(err)
	}
	// Trailing octets are a refused shape the oracle answers like the query
	// they trail.
	trailing := func(size int) []byte {
		return append(bytes.Clone(plain), make([]byte, size-len(plain))...)
	}
	// An EDNS padding option (RFC 7830) makes a long query the parser accepts.
	padded, err := dnswire.NewQuery(7, dnswire.Root, dnswire.TypeSOA).WithEDNS(1232, false).Pack()
	if err != nil {
		t.Fatal(err)
	}
	const pad = 600
	binary.BigEndian.PutUint16(padded[len(padded)-2:], 4+pad)
	padded = append(padded, 0, 12, pad>>8, pad&0xFF)
	padded = append(padded, make([]byte, pad)...)

	cases := []struct {
		name     string
		wire     []byte
		overTCP  bool
		accepted bool  // by the fast parser
		drops    int64 // serve/oversize_drops moves by this, and no reply comes
		oracle   int64 // dns/cache/misses moves by this
	}{
		{"refused shape at the cap", trailing(dnswire.MaxUDPPayload), false, false, 0, 1},
		{"refused shape one over the cap", trailing(dnswire.MaxUDPPayload + 1), false, false, 1, 0},
		{"accepted shape over the cap", padded, false, true, 0, 0},
		{"refused shape over the cap, over TCP", trailing(dnswire.MaxUDPPayload + 1), true, false, 0, 1},
	}
	for _, tc := range cases {
		if got := parseQueryShape(tc.wire).ok; got != tc.accepted {
			t.Fatalf("%s: fast parser accepted = %v, want %v", tc.name, got, tc.accepted)
		}
		drops, oracle := mOversize.Value(), mCacheMisses.Value()
		var reply []byte
		if tc.overTCP {
			reply = tcpExchange(t, tcp, tc.wire)
		} else {
			reply, _ = sendMaybe(t, udp, tc.wire, 300*time.Millisecond)
		}
		drops, oracle = mOversize.Value()-drops, mCacheMisses.Value()-oracle
		if drops != tc.drops || oracle != tc.oracle {
			t.Errorf("%s: %d oversize drops and %d oracle answers, want %d and %d", tc.name, drops, oracle, tc.drops, tc.oracle)
		}
		if tc.drops == 0 {
			limit := maxTCPMessage
			if !tc.overTCP {
				limit = s.bucketLimit(tc.accepted, 1232)
			}
			if want := oracleBytes(t, s, tc.wire, limit); !bytes.Equal(reply, want) {
				t.Errorf("%s: answered\n % x\nwant the oracle's\n % x", tc.name, reply, want)
			}
		} else if reply != nil {
			t.Errorf("%s: answered % x, want no reply", tc.name, reply)
		}
		if !bytes.Equal(reply, s.ServeWire(nil, tc.wire, tc.overTCP)) {
			t.Errorf("%s: the socket and ServeWire disagree", tc.name)
		}
	}
}
