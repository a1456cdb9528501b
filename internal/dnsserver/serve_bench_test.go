package dnsserver

import (
	"io"
	"net"
	"testing"

	"repro/internal/dnswire"
	"repro/internal/qlog"
)

// benchServe drives one query wire through a running server over a connected
// UDP socket. The first exchange happens before the timer starts and compiles
// the answer, so the measured loop is pure classify + stitch — which must
// report 0 allocs/op (ReportAllocs counts every goroutine, server loops
// included).
func benchServe(b *testing.B, cfg Config, query *dnswire.Message) {
	s, err := New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	addr, err := s.Start("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	raddr, err := net.ResolveUDPAddr("udp", addr.String())
	if err != nil {
		b.Fatal(err)
	}
	conn, err := net.DialUDP("udp", nil, raddr)
	if err != nil {
		b.Fatal(err)
	}
	defer conn.Close()
	wire, err := query.Pack()
	if err != nil {
		b.Fatal(err)
	}
	buf := make([]byte, 64*1024)
	exchange := func() {
		if _, err := conn.Write(wire); err != nil {
			b.Fatal(err)
		}
		if _, err := conn.Read(buf); err != nil {
			b.Fatal(err)
		}
	}
	exchange() // warm: compiles the answer
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		exchange()
	}
}

func BenchmarkServeUDP(b *testing.B) {
	z, _ := signedRootZone(b, 120)
	base := Config{Zone: z, Identity: Identity{Hostname: "bench", Version: "v"}}
	referral := dnswire.NewQuery(7, dnswire.MustName("www.com."), dnswire.TypeA)

	b.Run("compiled-referral", func(b *testing.B) {
		benchServe(b, base, referral)
	})
	b.Run("compiled-apex-SOA", func(b *testing.B) {
		benchServe(b, base, dnswire.NewQuery(7, dnswire.Root, dnswire.TypeSOA))
	})
	b.Run("compiled-nxdomain", func(b *testing.B) {
		benchServe(b, base, dnswire.NewQuery(7, dnswire.MustName("junk.nosuchtld."), dnswire.TypeA).WithEDNS(1232, true))
	})
	// A NOTIFY is a shape the fast parser refuses: full decode, handleState,
	// pack on the read loop — the oracle path, allocations and all.
	notify := dnswire.NewQuery(7, dnswire.Root, dnswire.TypeSOA)
	notify.Header.Opcode = dnswire.OpcodeNotify
	b.Run("oracle-shape", func(b *testing.B) {
		benchServe(b, base, notify)
	})

	// Flight recorder compiled in and attached, but sampling nothing: the
	// compiled path pays the key hash and one sampler branch and must still
	// report 0 allocs/op — the recorder-off contract from the qlog PR.
	qlogOff := base
	qlogOff.QLog = benchRecorder(b, qlog.Sampler{Every: 0})
	b.Run("compiled-referral-qlog-off", func(b *testing.B) {
		benchServe(b, qlogOff, referral)
	})
	// Every query sampled: the worst-case recording overhead (encode, block
	// append, black-box copy) for sizing the -qlog-sample budget.
	qlogAll := base
	qlogAll.QLog = benchRecorder(b, qlog.Sampler{Every: 1})
	b.Run("compiled-referral-qlog-all", func(b *testing.B) {
		benchServe(b, qlogAll, referral)
	})
}

// benchRecorder builds a recorder that discards its segment stream.
func benchRecorder(b *testing.B, s qlog.Sampler) *qlog.Recorder {
	b.Helper()
	rec, err := qlog.New(io.Discard, s, "")
	if err != nil {
		b.Fatal(err)
	}
	return rec
}
