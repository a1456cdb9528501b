package dnsserver

import (
	"bytes"
	"net"
	"net/netip"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/axfr"
	"repro/internal/dnsclient"
	"repro/internal/dnswire"
	"repro/internal/failpoint"
	"repro/internal/netem"
	"repro/internal/telemetry"
	"repro/internal/zone"
)

// sendMaybe sends wire on conn and waits up to d for one datagram. ok is
// false on a read timeout — the expected outcome for a dropped or
// rate-limited response.
func sendMaybe(tb testing.TB, conn *net.UDPConn, wire []byte, d time.Duration) ([]byte, bool) {
	tb.Helper()
	if _, err := conn.Write(wire); err != nil {
		tb.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(d))
	buf := make([]byte, 64*1024)
	n, err := conn.Read(buf)
	if err != nil {
		if ne, ok := err.(net.Error); ok && ne.Timeout() {
			return nil, false
		}
		tb.Fatal(err)
	}
	return buf[:n], true
}

// dialUDP returns a connected UDP socket to the server.
func dialUDP(tb testing.TB, addr net.Addr) *net.UDPConn {
	tb.Helper()
	raddr, err := net.ResolveUDPAddr("udp", addr.String())
	if err != nil {
		tb.Fatal(err)
	}
	conn, err := net.DialUDP("udp", nil, raddr)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { conn.Close() })
	return conn
}

// adversityRun drives the fixed serial adversity sequence against a server
// with RRL and a lossy netem profile, then returns the logical telemetry
// bytes.
func adversityRun(t *testing.T, z *zone.Zone, workers int) []byte {
	t.Helper()
	telemetry.Reset()
	s, err := New(Config{
		Zone:         z,
		ServeWorkers: workers,
		RRL:          RRLConfig{Rate: 0.25, Burst: 2, Slip: 2, Seed: 7},
		Netem:        netem.Profile{Loss: 0.1, Corrupt: 0.05, Seed: 42},
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
	return telemetry.MarshalLogical()
}

// TestRRLDeterministicAcrossWorkers pins the PR's headline invariant: with a
// fixed netem seed and RRL enabled, the logical telemetry namespace (stream
// + process classes — queries handled, packets dropped/corrupted, RRL
// drop/slip/eviction counts) is byte-identical across runs and across
// serve-worker counts. Volatile counters (compiled-path hits) are excluded
// by scope, exactly as `rootanalyze -diff` excludes them.
func TestRRLDeterministicAcrossWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("drives ~80 timed exchanges")
	}
	z, _ := signedRootZone(t, 10)
	base := adversityRun(t, z, 1)
	for name, workers := range map[string]int{"again-1": 1, "workers-4": 4} {
		got := adversityRun(t, z, workers)
		if !bytes.Equal(base, got) {
			t.Errorf("%s: logical telemetry differs from first single-worker run\n first: %s\n   got: %s",
				name, base, got)
		}
	}
}

// TestRRLSlipAnswersTruncated checks the slip path end to end: once a
// bucket's credit is exhausted, a slip=1 limiter answers every suppressed
// response with a minimal TC stub (same ID, question echoed, no answer
// records), and a real client recovers the full answer over TCP, where RRL
// does not apply.
func TestRRLSlipAnswersTruncated(t *testing.T) {
	z, _ := signedRootZone(t, 10)
	_, c := startServer(t, Config{
		Zone: z,
		RRL:  RRLConfig{Rate: 0.01, Burst: 1, Slip: 1, Seed: 1},
	})
	addr, _ := net.ResolveUDPAddr("udp", c.Addr)
	conn := dialUDP(t, addr)

	msg := dnswire.NewQuery(0x4242, dnswire.Root, dnswire.TypeSOA)
	wire, err := msg.Pack()
	if err != nil {
		t.Fatal(err)
	}
	first, ok := sendMaybe(t, conn, wire, time.Second)
	if !ok {
		t.Fatal("first response (burst credit) was suppressed")
	}
	resp, err := dnswire.Unpack(first)
	if err != nil || resp.Header.Truncated || len(resp.Answers) == 0 {
		t.Fatalf("first response: err=%v resp=%+v", err, resp)
	}

	stub, ok := sendMaybe(t, conn, wire, time.Second)
	if !ok {
		t.Fatal("suppressed response did not slip a TC stub")
	}
	if stub[0] != wire[0] || stub[1] != wire[1] {
		t.Errorf("stub ID = %x %x, want the query's", stub[0], stub[1])
	}
	if stub[2]&0x80 == 0 || stub[2]&0x02 == 0 {
		t.Errorf("stub flags byte %#x: want QR and TC set", stub[2])
	}
	if an := int(stub[6])<<8 | int(stub[7]); an != 0 {
		t.Errorf("stub ancount = %d, want 0", an)
	}
	// The question section must be echoed byte for byte.
	if !bytes.Equal(stub[4:6], wire[4:6]) || !bytes.Equal(stub[12:], wire[12:len(stub)]) {
		t.Error("stub question section differs from the query's")
	}

	// A real client sees the stub as truncation and falls back to TCP.
	full, err := c.Query(dnswire.Root, dnswire.TypeSOA)
	if err != nil {
		t.Fatal(err)
	}
	if full.Header.Truncated || len(full.Answers) == 0 {
		t.Errorf("TCP fallback answer: TC=%v answers=%d", full.Header.Truncated, len(full.Answers))
	}
}

// TestRRLDecideDeterministic drives two independently built limiters (and a
// third with a different seed) through the same offered sequence and checks
// verdict-for-verdict agreement, including under table-budget eviction.
func TestRRLDecideDeterministic(t *testing.T) {
	// Phase 1: a handful of persistent buckets accrue denies, so the
	// seed-derived slip phase actually decides slips vs drops.
	cfg := RRLConfig{Rate: 0.3, Burst: 2, Slip: 2, Seed: 9}
	a, b := newRRL(cfg), newRRL(cfg)
	other := cfg
	other.Seed = 10
	c := newRRL(other)

	var keyA, keyB, keyC [32]byte
	var differs bool
	for i := 0; i < 400; i++ {
		ip := netip.AddrFrom4([4]byte{192, 0, byte(i % 2), byte(i)})
		class := byte(i % 3)
		va := a.decide(keyA[:0], ip, class)
		vb := b.decide(keyB[:0], ip, class)
		vc := c.decide(keyC[:0], ip, class)
		if va != vb {
			t.Fatalf("offer %d: same config diverged: %d vs %d", i, va, vb)
		}
		if va != vc {
			differs = true
		}
	}
	if !differs {
		t.Error("different seeds never produced a different slip phase")
	}

	// Phase 2: a byte budget of ~6 buckets under a 21-key offered cycle
	// forces constant eviction; two limiters must evict identically and
	// stay within budget.
	small := RRLConfig{Rate: 0.3, Burst: 2, Slip: 2, TableBytes: 600, Seed: 9}
	a, b = newRRL(small), newRRL(small)
	for i := 0; i < 400; i++ {
		ip := netip.AddrFrom4([4]byte{192, 0, byte(i % 7), byte(i)})
		class := byte(i % 3)
		if va, vb := a.decide(keyA[:0], ip, class), b.decide(keyB[:0], ip, class); va != vb {
			t.Fatalf("offer %d under eviction: verdicts diverged: %d vs %d", i, va, vb)
		}
	}
	if a.Len() != b.Len() {
		t.Errorf("table sizes diverged: %d vs %d", a.Len(), b.Len())
	}
	if a.Len() > 6 {
		t.Errorf("table holds %d buckets, budget allows ~6", a.Len())
	}
}

// TestRRLParseErrors pins the -rrl flag grammar's failure modes.
func TestRRLParseErrors(t *testing.T) {
	var c, back RRLConfig
	for _, spec := range []string{"rate", "rate=2", "rate=x", "bogus=1", "burst=x", "rate=0.5,"} {
		if err := c.Set(spec); err == nil {
			t.Errorf("Set(%q) accepted", spec)
		}
	}
	const spec = "rate=0.5,burst=50,slip=2,prefix4=28,tablebytes=4096,seed=3"
	if err := c.Set(spec); err != nil {
		t.Fatal(err)
	}
	if err := back.Set(c.String()); err != nil || back != c || c.String() != spec {
		t.Errorf("round trip of %q: %q, %+v (%v)", spec, c.String(), back, err)
	}
	if c.Rate != 0.5 || c.Burst != 50 || c.Slip != 2 || c.Prefix4 != 28 || c.TableBytes != 4096 || c.Seed != 3 {
		t.Errorf("parsed config = %+v", c)
	}
}

// TestRRLStateExcludedFromCheckpoints is the proof behind the serve/rrl
// failpoint registration note: the RRL table is volatile serving state, not
// stream state. Exercising the limiter moves process-class telemetry (so
// `rootanalyze -diff` sees it) while the checkpointed stream snapshot stays
// byte-identical — a resumed campaign neither saves nor restores limiter
// state, by construction.
func TestRRLStateExcludedFromCheckpoints(t *testing.T) {
	for i := range telemetry.Registry {
		def := &telemetry.Registry[i]
		if strings.HasPrefix(def.Name, "rrl/") || strings.HasPrefix(def.Name, "netem/") {
			if def.Class != telemetry.ClassProcess {
				t.Errorf("%s registered as %v, want ClassProcess", def.Name, def.Class)
			}
		}
	}

	telemetry.Reset()
	checkpointBefore := streamState(t)
	logicalBefore := telemetry.MarshalLogical()

	r := newRRL(RRLConfig{Rate: 0.1, Burst: 1, Slip: 2, Seed: 3})
	var key [32]byte
	client := netip.MustParseAddr("192.0.2.1")
	for i := 0; i < 40; i++ {
		r.decide(key[:0], client, rrlClassAnswer)
	}

	if bytes.Equal(logicalBefore, telemetry.MarshalLogical()) {
		t.Error("40 rate-limited responses moved no logical telemetry")
	}
	if !bytes.Equal(checkpointBefore, streamState(t)) {
		t.Error("RRL activity leaked into the checkpointed stream state")
	}
}

// streamState seals the stream-class telemetry, the blob a checkpoint carries.
func streamState(t *testing.T) []byte {
	t.Helper()
	blob, err := telemetry.StreamState{}.CheckpointSeal()
	if err != nil {
		t.Fatal(err)
	}
	return blob
}

// TestChaosForcedRRLDrop arms the limiter's failpoint: the first verdict is
// forced to drop regardless of credit, the next query sails through. The
// spec literal here is what registers serve/rrl/decide as chaos-exercised.
func TestChaosForcedRRLDrop(t *testing.T) {
	z, _ := signedRootZone(t, 10)
	s, c := startServer(t, Config{Zone: z, RRL: RRLConfig{Rate: 1, Burst: 8}})
	_ = s
	addr, _ := net.ResolveUDPAddr("udp", c.Addr)
	conn := dialUDP(t, addr)

	if err := failpoint.Enable("serve/rrl/decide=error@1"); err != nil {
		t.Fatal(err)
	}
	defer failpoint.Disable()

	wire, err := dnswire.NewQuery(1, dnswire.Root, dnswire.TypeSOA).Pack()
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := sendMaybe(t, conn, wire, 200*time.Millisecond); ok {
		t.Fatal("forced-drop verdict still produced a response")
	}
	wire2, _ := dnswire.NewQuery(2, dnswire.Root, dnswire.TypeSOA).Pack()
	if _, ok := sendMaybe(t, conn, wire2, 2*time.Second); !ok {
		t.Fatal("second query got no response after the failpoint fired")
	}
}

// TestTCFallbackUnderNetem re-runs the EDNS truncation ladder through an
// adverse link: lossy and corrupting on UDP, with a fraction of TCP
// fallback connections cut mid-frame. A retrying client must still recover
// the complete answer at every EDNS size — cut fallbacks burn an attempt
// and redial. All fates are seed-pinned, so this test is deterministic.
func TestTCFallbackUnderNetem(t *testing.T) {
	if testing.Short() {
		t.Skip("rides out seeded loss with real timeouts")
	}
	z, _ := signedRootZone(t, 30)
	_, c := startServer(t, Config{
		Zone:  z,
		Netem: netem.Profile{Loss: 0.12, Corrupt: 0.06, Cut: 0.4, CutBytes: 700, Seed: 11},
	})
	c.Timeout = 150 * time.Millisecond
	c.Retries = 8
	c.Backoff = backoffForTest()

	for _, edns := range []uint16{0, 512, 1232, 4096} {
		c.EDNSSize = edns
		resp, err := c.Query(dnswire.Root, dnswire.TypeNS)
		if err != nil {
			t.Fatalf("edns=%d: %v", edns, err)
		}
		if resp.Header.Truncated || len(resp.Answers) < 13 {
			t.Errorf("edns=%d: TC=%v answers=%d, want full priming answer",
				edns, resp.Header.Truncated, len(resp.Answers))
		}
	}
}

// counterValue reads one named counter from the logical snapshot.
func counterValue(tb testing.TB, name string) int64 {
	tb.Helper()
	for _, mv := range telemetry.Snapshot(telemetry.ScopeLogical) {
		if mv.Name == name {
			return mv.Value
		}
	}
	tb.Fatalf("metric %q not in logical snapshot", name)
	return 0
}

// TestAXFRRetryAfterNetemCut severs zone-transfer connections mid-frame at
// a seed-pinned rate: a retrying client must land on an uncut connection
// and deliver the complete, serial-matching zone.
func TestAXFRRetryAfterNetemCut(t *testing.T) {
	z, _ := signedRootZone(t, 20)
	telemetry.Reset()
	_, c := startServer(t, Config{
		Zone:      z,
		AllowAXFR: true,
		Netem:     netem.Profile{Cut: 0.5, CutBytes: 500, Seed: 3},
	})
	c.Retries = 6
	c.Backoff = backoffForTest()
	got, err := c.TransferZone()
	if err != nil {
		t.Fatal(err)
	}
	if got.Serial() != z.Serial() || len(got.Records) != len(z.Records) {
		t.Errorf("transferred serial=%d records=%d, want serial=%d records=%d",
			got.Serial(), len(got.Records), z.Serial(), len(z.Records))
	}
	if counterValue(t, "netem/cuts") == 0 {
		t.Error("no connection was cut — the retry path went unexercised; pick a different seed")
	}
}

// TestTCPIdleDeadlineDropsStalledPeer: a connected peer that never sends a
// byte must be disconnected once the idle deadline lapses, freeing the
// serving goroutine (and its connection-cap slot).
func TestTCPIdleDeadlineDropsStalledPeer(t *testing.T) {
	z, _ := signedRootZone(t, 10)
	_, c := startServer(t, Config{Zone: z, TCPTimeout: 150 * time.Millisecond})
	conn, err := net.DialTimeout("tcp", c.Addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	start := time.Now()
	if _, err := conn.Read(make([]byte, 1)); err == nil {
		t.Fatal("stalled connection was answered instead of dropped")
	}
	if elapsed := time.Since(start); elapsed > 3*time.Second {
		t.Errorf("stalled connection held for %v, deadline is 150ms", elapsed)
	}
}

// backoffForTest is a fast, seeded retry pacing for adversity tests.
func backoffForTest() dnsclient.Backoff {
	return dnsclient.Backoff{Base: time.Millisecond, Cap: 4 * time.Millisecond, Seed: 5}
}

// exchangeOverTCP runs one query/response exchange on an already open TCP
// connection (startServer's client would dial fresh; these tests care about
// the specific connection).
func exchangeOverTCP(tb testing.TB, conn net.Conn, q *dnswire.Message) (*dnswire.Message, error) {
	tb.Helper()
	conn.SetDeadline(time.Now().Add(2 * time.Second))
	if err := axfr.WriteMessage(conn, q); err != nil {
		return nil, err
	}
	return axfr.ReadMessage(conn)
}

// TestTCPConnCapRejectsOverflow: with a one-connection cap, a second
// connection is closed at accept while the first keeps being served.
func TestTCPConnCapRejectsOverflow(t *testing.T) {
	z, _ := signedRootZone(t, 10)
	s, c := startServer(t, Config{Zone: z, MaxTCPConns: 1})
	_ = s

	first, err := net.DialTimeout("tcp", c.Addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer first.Close()
	// Prove the first connection is live (accepted and inside serveConn).
	resp, err := exchangeOverTCP(t, first, dnswire.NewQuery(1, dnswire.Root, dnswire.TypeSOA))
	if err != nil || len(resp.Answers) == 0 {
		t.Fatalf("first connection: err=%v answers=%v", err, resp)
	}

	second, err := net.DialTimeout("tcp", c.Addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer second.Close()
	second.SetReadDeadline(time.Now().Add(3 * time.Second))
	if _, err := second.Read(make([]byte, 1)); err == nil {
		t.Fatal("over-cap connection was served, want close at accept")
	}

	// The capped connection's rejection must not have hurt the first.
	resp, err = exchangeOverTCP(t, first, dnswire.NewQuery(2, dnswire.Root, dnswire.TypeNS))
	if err != nil || len(resp.Answers) == 0 {
		t.Fatalf("first connection after reject: err=%v answers=%v", err, resp)
	}
}

// failingListener fails its first `fails` accepts the way a process out of
// descriptors does, announces the accept after those, and then blocks until
// closed.
type failingListener struct {
	fails   int
	accepts int
	through chan struct{} // closed by accept number fails+1
	closed  chan struct{}
}

func (l *failingListener) Accept() (net.Conn, error) {
	l.accepts++
	if l.accepts <= l.fails {
		return nil, &net.OpError{Op: "accept", Net: "tcp", Err: syscall.EMFILE}
	}
	if l.accepts == l.fails+1 {
		close(l.through)
	}
	<-l.closed
	return nil, net.ErrClosed
}

func (l *failingListener) Close() error   { close(l.closed); return nil }
func (l *failingListener) Addr() net.Addr { return &net.TCPAddr{} }

// TestSocketErrorBackoff: a listener that keeps failing must be retried on
// the doubling schedule, not in a spin, and every failure counted.
func TestSocketErrorBackoff(t *testing.T) {
	z, _ := signedRootZone(t, 5)
	s, err := New(Config{Zone: z})
	if err != nil {
		t.Fatal(err)
	}
	const fails = 5 // 1 + 2 + 4 + 8 + 16 ms of backoff
	l := &failingListener{fails: fails, through: make(chan struct{}), closed: make(chan struct{})}
	s.tcp = l
	before := mSocketErrors.Value()
	start := time.Now()
	s.wg.Add(1)
	go s.serveTCP()
	select {
	case <-l.through:
	case <-time.After(10 * time.Second):
		t.Fatal("accept loop never got past the failing accepts")
	}
	if elapsed := time.Since(start); elapsed < 31*time.Millisecond {
		t.Errorf("%d failed accepts retried within %v; the schedule sleeps 31ms", fails, elapsed)
	}
	if got := mSocketErrors.Value() - before; got != fails {
		t.Errorf("serve/socket_errors rose by %d, want %d", got, fails)
	}
	close(s.closed)
	l.Close()
	s.wg.Wait()
}
