package dnsserver

import (
	"bytes"
	"net"
	"testing"
	"time"

	"repro/internal/dnswire"
	"repro/internal/netem"
	"repro/internal/qlog"
	"repro/internal/telemetry"
	"repro/internal/zone"
)

// adversityWires packs the fixed 24-query serial sequence the adversity
// tests drive: an apex SOA, a delegation, an NXDOMAIN, and an EDNS-sized
// priming query, interleaved with four shapes the fast parser refuses — a
// NOTIFY (answered NOTIMP) and a trailing octet (answered normally) by the
// oracle, a two-question message and a response (never answered) — cycled
// with distinct message IDs.
func adversityWires(t *testing.T) [][]byte {
	t.Helper()
	type qt struct {
		name dnswire.Name
		typ  dnswire.Type
		edns uint16
		odd  string
	}
	seq := []qt{
		{dnswire.Root, dnswire.TypeSOA, 0, ""},
		{dnswire.MustName("com."), dnswire.TypeSOA, 0, "notify"},
		{dnswire.MustName("www.com."), dnswire.TypeA, 0, ""},
		{dnswire.Root, dnswire.TypeSOA, 0, "trailing octet"},
		{dnswire.MustName("nope.nosuchtld."), dnswire.TypeA, 0, ""},
		{dnswire.MustName("www.com."), dnswire.TypeA, 0, "two questions"},
		{dnswire.Root, dnswire.TypeNS, 1232, ""},
		{dnswire.Root, dnswire.TypeSOA, 0, "response"},
	}
	out := make([][]byte, 0, 24)
	for i := 0; i < 24; i++ {
		q := seq[i%len(seq)]
		msg := dnswire.NewQuery(uint16(i+1), q.name, q.typ)
		if q.edns > 0 {
			msg.WithEDNS(q.edns, true)
		}
		switch q.odd {
		case "notify":
			msg.Header.Opcode = dnswire.OpcodeNotify
		case "two questions":
			msg.Questions = append(msg.Questions, msg.Questions[0])
		case "response":
			msg.Header.Response = true
		}
		wire, err := msg.Pack()
		if err != nil {
			t.Fatal(err)
		}
		if q.odd == "trailing octet" {
			wire = append(wire, 0)
		}
		if refused := !parseQueryShape(wire).ok; refused != (q.odd != "") {
			t.Fatalf("wire %d (%q): fast parser refused = %v", i, q.odd, refused)
		}
		out = append(out, wire)
	}
	return out
}

// driveAdversity sends the adversity sequence over conn. The client is
// deliberately serial (send, wait, send) so the per-flow packet order the
// link sees is the client's own order. Every shape is answered on the read
// loop that received it, so whatever comes back while the client waits
// answers the query it just sent.
func driveAdversity(t *testing.T, conn *net.UDPConn) {
	t.Helper()
	for i, wire := range adversityWires(t) {
		reply, ok := sendMaybe(t, conn, wire, 120*time.Millisecond)
		if ok && !bytes.Equal(reply[:2], wire[:2]) {
			t.Errorf("query %d (ID % x) was answered out of order, by the reply to ID % x", i, wire[:2], reply[:2])
		}
	}
}

// qlogAdversityRun drives the fixed serial adversity sequence (netem loss +
// corruption, RRL with slip) against a server recording a full-rate flight
// log, and returns the decoded events in canonical order.
func qlogAdversityRun(t *testing.T, z *zone.Zone, workers int) []qlog.Event {
	t.Helper()
	telemetry.Reset()
	var buf bytes.Buffer
	rec, err := qlog.New(&buf, qlog.Sampler{Every: 1, Seed: 7}, "")
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{
		Zone:         z,
		ServeWorkers: workers,
		RRL:          RRLConfig{Rate: 0.25, Burst: 2, Slip: 2, Seed: 7},
		Netem:        netem.Profile{Loss: 0.1, Corrupt: 0.05, Seed: 42},
		QLog:         rec,
	})
	if err != nil {
		t.Fatal(err)
	}
	addr, err := s.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	conn := dialUDP(t, addr)

	driveAdversity(t, conn)
	s.Close()
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := qlog.NewReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	evs, err := r.Events()
	if err != nil {
		t.Fatal(err)
	}
	if r.Torn() {
		t.Fatalf("flight log torn after clean close: %v", r.TornReason())
	}
	qlog.SortCanonical(evs)
	return evs
}

// TestFlightLogIdenticalAcrossWorkers pins the PR's headline invariant for
// the flight recorder: the canonically ordered event stream a serve run
// records is identical at any -serve-workers count — sampling and every
// recorded field are pure functions of wire bytes, seeds, and per-flow
// counters, never of shard scheduling.
func TestFlightLogIdenticalAcrossWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("drives ~60 timed exchanges")
	}
	z, _ := signedRootZone(t, 10)
	base := qlogAdversityRun(t, z, 1)
	if len(base) == 0 {
		t.Fatal("adversity run recorded no flight-log events")
	}
	// The cache field is "answered on the compiled path", a function of the
	// query's shape alone: every recorded query was fast-parsed, so it is set
	// exactly when the link let the query in.
	for _, e := range base {
		if admitted := e.Val("fate") == qFateOK; (e.Val("cache") == 1) != admitted {
			t.Errorf("cache=%d on an event with fate=%d: %s", e.Val("cache"), e.Val("fate"), e)
		}
	}
	for name, workers := range map[string]int{"again-1": 1, "workers-4": 4} {
		got := qlogAdversityRun(t, z, workers)
		if len(got) != len(base) {
			t.Errorf("%s: %d events, first single-worker run had %d", name, len(got), len(base))
			continue
		}
		for i := range base {
			if qlog.Compare(base[i], got[i]) != 0 {
				t.Errorf("%s: event %d differs\n first: %s\n   got: %s", name, i, base[i], got[i])
				break
			}
		}
	}
}

// TestFlightLogSampledSubset pins the sampling contract at the serve layer:
// a 1/N sampler records exactly the full-rate run's events whose keys the
// sampler selects — a subset by key, not a different stream.
func TestFlightLogSampledSubset(t *testing.T) {
	if testing.Short() {
		t.Skip("drives ~40 timed exchanges")
	}
	z, _ := signedRootZone(t, 10)
	full := qlogAdversityRun(t, z, 1)

	telemetry.Reset()
	var buf bytes.Buffer
	sampler := qlog.Sampler{Every: 2, Seed: 9}
	rec, err := qlog.New(&buf, sampler, "")
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{
		Zone:  z,
		RRL:   RRLConfig{Rate: 0.25, Burst: 2, Slip: 2, Seed: 7},
		Netem: netem.Profile{Loss: 0.1, Corrupt: 0.05, Seed: 42},
		QLog:  rec,
	})
	if err != nil {
		t.Fatal(err)
	}
	addr, err := s.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	conn := dialUDP(t, addr)
	driveAdversity(t, conn)
	s.Close()
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := qlog.NewReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	got, err := r.Events()
	if err != nil {
		t.Fatal(err)
	}
	qlog.SortCanonical(got)

	var want []qlog.Event
	for _, e := range full {
		if sampler.Sampled(e.Key) {
			want = append(want, e)
		}
	}
	if len(want) == 0 || len(want) == len(full) {
		t.Fatalf("degenerate sample: %d of %d events selected; pick a different seed", len(want), len(full))
	}
	if len(got) != len(want) {
		t.Fatalf("sampled run recorded %d events, full run's sampled subset has %d", len(got), len(want))
	}
	for i := range want {
		if qlog.Compare(got[i], want[i]) != 0 {
			t.Fatalf("event %d differs\n  want: %s\n   got: %s", i, want[i], got[i])
		}
	}
}
