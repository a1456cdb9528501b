// Package dnsserver implements an authoritative DNS server for the root
// zone over real UDP and TCP sockets: apex answers, TLD referrals with glue,
// priming responses (RFC 8109), NXDOMAIN, CHAOS-class server identity
// (hostname.bind, id.server, version.bind, version.server), truncation with
// TCP fallback, and AXFR. Each simulated root server instance in the study
// can be backed by one of these; rootserve and the tests run them on loopback.
//
// The root zone's answer space is small and closed — one referral per TLD,
// one NXDOMAIN proof per NSEC span, a handful of apex and CHAOS answers — so
// UDP, TCP and the in-process wire entry (ServeWire) all answer the same
// way, from raw bytes: fold the question name, binary-search the zone's
// owner index, pick the compiled answer, and stitch it behind the client's
// own question (compiled.go). Answers are compiled on first touch by the
// oracle, handleState, which is also what answers the few query shapes the
// fast parser refuses. N read loops on SO_REUSEPORT-sharded sockets (or N
// loops sharing one socket where unsupported) and an atomically swapped
// serve state mean a query never takes a lock or changes goroutine: the
// kernel receive buffer is the only queue. See serve_udp.go.
package dnsserver

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/axfr"
	"repro/internal/dnswire"
	"repro/internal/netem"
	"repro/internal/qlog"
	"repro/internal/telemetry"
	"repro/internal/zone"
)

// Identity is what the server reports to CHAOS-class identity queries.
type Identity struct {
	// Hostname answers hostname.bind and id.server, e.g. the instance name
	// "fra3.l.root-servers.org" a root instance would report.
	Hostname string
	// Version answers version.bind and version.server.
	Version string
}

// Config configures a Server.
type Config struct {
	// Zone is the primary zone to serve. It must have a SOA at its apex.
	Zone *zone.Zone
	// ExtraZones are additional authoritative zones (the real root servers
	// also serve root-servers.net). Lookups pick the zone with the
	// longest-matching apex.
	ExtraZones []*zone.Zone
	// Identity is reported on CHAOS TXT queries. Empty fields yield REFUSED,
	// like roots that suppress identity.
	Identity Identity
	// AllowAXFR enables zone transfers on the TCP listener.
	AllowAXFR bool
	// UDPSize caps UDP responses; larger answers set TC. Defaults to 512
	// without EDNS, or the client's advertised size. Effective limits are
	// floored to the bucket set {512, 1232, 4096} (see bucketLimit).
	UDPSize int
	// ServeWorkers is the number of UDP read loops. On Linux each loop owns
	// its own SO_REUSEPORT socket and the kernel shards datagrams between
	// them; elsewhere the loops share one socket. 0 means GOMAXPROCS.
	ServeWorkers int
	// RRL enables BIND-style response-rate-limiting on the UDP path when
	// Rate > 0 (see RRLConfig). The zero value leaves it off with no cost
	// on the hot path beyond one nil check.
	RRL RRLConfig
	// Netem applies a deterministic adverse-network profile at the socket
	// boundary: UDP datagrams pass the emulated link on ingress and
	// egress, and accepted TCP connections may be cut mid-stream. The
	// zero profile is off.
	Netem netem.Profile
	// QLog attaches a per-query flight recorder to the UDP serve path:
	// every sampled query emits one serve/query event at its terminal
	// point (ingress drop or the egress funnel). Nil leaves recording off;
	// the fast path then pays one nil check.
	QLog *qlog.Recorder
	// TCPTimeout is the per-connection idle deadline: every read or write
	// on an accepted TCP connection must make progress within it, so one
	// stalled or half-open peer cannot pin a server goroutine. 0 means 2
	// minutes; negative disables deadlines.
	TCPTimeout time.Duration
	// MaxTCPConns caps concurrently served TCP connections; connections
	// over the cap are closed at accept. 0 means 64; negative is
	// unlimited.
	MaxTCPConns int
}

// serveState is everything a query touches that SetZone replaces: the zone
// and the answers compiled from it. Swapping the whole struct through one
// atomic pointer makes zone replacement and invalidation a single
// indivisible step — a query that loaded the old state answers (and
// compiles) consistently from the old zone, and no query ever sees a new
// zone with a stale answer.
type serveState struct {
	//rootlint:immutable-after-start
	zone *zone.Zone
	// answers is built by the first query (see compiled.go), not here:
	// New and SetZone stay O(1).
	answers atomic.Pointer[answerTable]
}

// Server is an authoritative DNS server bound to UDP and TCP sockets. Apart
// from the swappable serve state, every field is fixed by New or Start before
// any serving goroutine exists.
type Server struct {
	//rootlint:immutable-after-start
	cfg Config

	state atomic.Pointer[serveState]
	//rootlint:immutable-after-start
	udps []*net.UDPConn
	//rootlint:immutable-after-start
	tcp net.Listener
	//rootlint:immutable-after-start
	rrl *rrlState // nil when RRL is off
	//rootlint:immutable-after-start
	link *netem.Link // nil when netem is off
	//rootlint:immutable-after-start
	tcpSem chan struct{} // nil when the connection cap is unlimited
	wg     sync.WaitGroup
	closed chan struct{}
	//rootlint:immutable-after-start
	started bool
}

// New creates an unstarted server.
func New(cfg Config) (*Server, error) {
	if cfg.Zone == nil {
		return nil, errors.New("dnsserver: nil zone")
	}
	if _, ok := cfg.Zone.SOA(); !ok {
		return nil, errors.New("dnsserver: zone has no SOA")
	}
	if cfg.UDPSize == 0 {
		cfg.UDPSize = dnswire.MaxUDPPayload
	}
	if cfg.TCPTimeout == 0 {
		cfg.TCPTimeout = 2 * time.Minute
	}
	if cfg.MaxTCPConns == 0 {
		cfg.MaxTCPConns = 64
	}
	s := &Server{cfg: cfg, closed: make(chan struct{})}
	s.rrl = newRRL(cfg.RRL)
	s.link = netem.NewLink(cfg.Netem)
	if cfg.MaxTCPConns > 0 {
		s.tcpSem = make(chan struct{}, cfg.MaxTCPConns)
	}
	s.state.Store(&serveState{zone: cfg.Zone})
	return s, nil
}

// SetZone atomically replaces the served zone (zone updates mid-study). The
// swap starts from an empty answer table, so no answer compiled from the old
// zone can be served afterwards.
//
//rootlint:allow deadcode: bench/layers.go times the swap as dnsserver.setzone_us
func (s *Server) SetZone(z *zone.Zone) {
	s.state.Store(&serveState{zone: z})
}

// Zone returns the currently served primary zone.
func (s *Server) Zone() *zone.Zone {
	return s.state.Load().zone
}

// zoneFor returns the authoritative zone for name: the zone (primary or
// extra) with the longest apex that name falls under, or nil.
func (s *Server) zoneFor(primary *zone.Zone, name dnswire.Name) *zone.Zone {
	best := (*zone.Zone)(nil)
	bestLabels := -1
	consider := func(z *zone.Zone) {
		if z == nil || !name.SubdomainOf(z.Apex) {
			return
		}
		if n := len(z.Apex.Labels()); n > bestLabels {
			best, bestLabels = z, n
		}
	}
	consider(primary)
	for _, z := range s.cfg.ExtraZones {
		consider(z)
	}
	return best
}

// Start binds addr (e.g. "127.0.0.1:0") on UDP and TCP and serves until
// Close. It returns the bound address.
func (s *Server) Start(addr string) (net.Addr, error) {
	if s.started {
		return nil, errors.New("dnsserver: already started")
	}
	workers := s.cfg.ServeWorkers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	// With port 0 the kernel picks a free UDP port, which some TCP socket
	// may happen to hold: pick again rather than fail on a coincidence.
	var udps []*net.UDPConn
	var tcp net.Listener
	for attempt := 0; ; attempt++ {
		var err error
		if udps, err = s.listenShards(addr, workers); err != nil {
			return nil, err
		}
		if tcp, err = net.Listen("tcp", udps[0].LocalAddr().String()); err == nil {
			break
		}
		for _, c := range udps {
			c.Close()
		}
		if _, port, _ := net.SplitHostPort(addr); port != "0" || !errors.Is(err, syscall.EADDRINUSE) || attempt == 8 {
			return nil, fmt.Errorf("dnsserver: listen tcp: %w", err)
		}
	}
	s.udps, s.tcp = udps, tcp
	s.started = true
	s.wg.Add(workers + 1)
	for i := 0; i < workers; i++ {
		go s.serveUDPLoop(s.udps[i%len(s.udps)], i)
	}
	go s.serveTCP()
	return udps[0].LocalAddr(), nil
}

// listenShards opens the UDP sockets for `workers` read loops: one
// SO_REUSEPORT socket per loop where the platform supports it, otherwise a
// single socket all loops share.
func (s *Server) listenShards(addr string, workers int) ([]*net.UDPConn, error) {
	if workers > 1 {
		if first, err := listenUDPReusePort(addr); err == nil {
			udps := []*net.UDPConn{first}
			// Re-bind the concrete address so every shard lands on the port
			// the first socket picked (addr may have been ":0").
			bound := first.LocalAddr().String()
			for i := 1; i < workers; i++ {
				conn, err := listenUDPReusePort(bound)
				if err != nil {
					for _, c := range udps {
						c.Close()
					}
					return nil, fmt.Errorf("dnsserver: listen udp shard %d: %w", i, err)
				}
				udps = append(udps, conn)
			}
			return udps, nil
		}
		// SO_REUSEPORT unavailable: fall through to one shared socket.
	}
	udpAddr, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return nil, fmt.Errorf("dnsserver: resolve %q: %w", addr, err)
	}
	udp, err := net.ListenUDP("udp", udpAddr)
	if err != nil {
		return nil, fmt.Errorf("dnsserver: listen udp: %w", err)
	}
	return []*net.UDPConn{udp}, nil
}

// Close stops the listeners and waits for in-flight handlers. It is
// idempotent: later calls wait for the same shutdown and return nil.
func (s *Server) Close() error {
	if !s.started {
		return nil
	}
	select {
	case <-s.closed:
		s.wg.Wait()
		return nil
	default:
	}
	close(s.closed)
	for _, c := range s.udps {
		c.Close()
	}
	s.tcp.Close()
	s.wg.Wait()
	return nil
}

func (s *Server) serveTCP() {
	defer s.wg.Done()
	var pace errorPace
	for {
		conn, err := s.tcp.Accept()
		if err != nil {
			if !pace.wait(s.closed) {
				return
			}
			continue
		}
		pace.reset()
		if s.tcpSem != nil {
			select {
			case s.tcpSem <- struct{}{}:
			default:
				// Over the concurrent-connection cap: refuse at accept so a
				// connection flood can't spawn unbounded goroutines.
				mTCPRejects.Inc()
				conn.Close()
				continue
			}
		}
		// The emulated link may cut this connection mid-stream; the idle
		// deadline guarantees a stalled or half-open peer releases the
		// goroutine (and its semaphore slot) in bounded time.
		wrapped := s.link.WrapConn(conn)
		if s.cfg.TCPTimeout > 0 {
			wrapped = &axfr.DeadlineConn{Conn: wrapped, Timeout: s.cfg.TCPTimeout}
		}
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			defer conn.Close()
			if s.tcpSem != nil {
				defer func() { <-s.tcpSem }()
			}
			s.serveConn(wrapped)
		}()
	}
}

// serveConn handles sequential queries on one TCP connection. A query rides
// the same byte path as UDP, behind the 2-byte length prefix; only what may
// be a transfer request is decoded here, to be answered with a stream.
func (s *Server) serveConn(conn net.Conn) {
	var frame, out []byte
	var name foldedName
	for {
		pkt, err := axfr.ReadFrame(conn, &frame)
		if err != nil {
			return
		}
		sh := parseQueryShape(pkt)
		if !sh.ok || sh.qtype == dnswire.TypeAXFR {
			query, err := dnswire.Unpack(pkt)
			if err == nil && len(query.Questions) == 1 && query.Questions[0].Type == dnswire.TypeAXFR {
				if s.cfg.AllowAXFR {
					_ = axfr.Serve(conn, s.Zone(), query)
				} else {
					_ = axfr.Refuse(conn, query)
				}
				continue
			}
		}
		out = s.answerWire(0, &name, append(out[:0], 0, 0), pkt, sh, true)
		if len(out) == 2 {
			return // no answer: a malformed message, or not a query
		}
		binary.BigEndian.PutUint16(out, uint16(len(out)-2))
		if _, err := conn.Write(out); err != nil {
			return
		}
	}
}

// ServeWire answers one raw query the way a socket would: it appends the
// response to dst and returns it, or returns dst unchanged for a query that
// gets no answer (a response, a malformed packet, over UDP an odd shape past
// the oracle's size cap). tcp lifts the UDP size limits. It is the entry
// point for in-process simulations (the campaign's wire-check battery); the
// UDP read loops and the TCP listener call the same answerWire underneath.
func (s *Server) ServeWire(dst, query []byte, tcp bool) []byte {
	var name foldedName
	return s.answerWire(0, &name, dst, query, parseQueryShape(query), tcp)
}

// answerWire is the one "parse, else decode" step under UDP, TCP and
// ServeWire. It appends the answer to pkt, whose fast parse is sh, to dst,
// or returns dst unchanged when there is none: stitched from the compiled
// table for a shape the parser accepted, decoded and computed by the oracle
// on the caller's goroutine for any other. Decoding costs in proportion to
// the datagram and over UDP anyone can send 64 KB of anything, so there a
// refused shape longer than the classic 512-byte message is dropped
// undecoded and counted: what makes real queries long, EDNS options, the
// parser accepts, and up to 512 bytes the oracle is cheaper than the socket
// round trip (DESIGN.md, "Serve: overload").
//
//rootlint:hotpath
func (s *Server) answerWire(shard int, fn *foldedName, dst, pkt []byte, sh queryShape, tcp bool) []byte {
	st := s.state.Load()
	if sh.ok {
		limit := maxTCPMessage
		if !tcp {
			limit = s.bucketLimit(sh.hasEDNS, sh.adv)
		}
		return s.answerCompiled(st, shard, fn, dst, pkt, sh, limit)
	}
	if !tcp && len(pkt) > dnswire.MaxUDPPayload {
		mOversize.ShardInc(shard)
		return dst
	}
	query, err := dnswire.Unpack(pkt)
	if err != nil {
		return dst // unparseable datagrams are dropped, like real servers
	}
	mCacheMisses.ShardInc(shard)
	resp := s.handleState(st, query)
	if resp == nil {
		return dst
	}
	limit := maxTCPMessage
	if !tcp {
		opt, ok := query.EDNS()
		limit = s.bucketLimit(ok, opt.UDPSize)
	}
	out, err := resp.AppendPack(dst)
	if err == nil && len(out)-len(dst) > limit {
		tc := &dnswire.Message{Header: resp.Header, Questions: resp.Questions}
		tc.Header.Truncated = true
		out, err = tc.AppendPack(dst)
	}
	if err != nil {
		return dst
	}
	return out
}

// Handle computes the response for query, decoded: the oracle every compiled
// answer is made by and checked against. tcp is accepted for the callers
// that have it; no answer depends on the transport (AXFR is served by the
// TCP listener itself, and refused here). A nil return means "drop".
//
//rootlint:allow deadcode: bench/layers.go times the oracle as dnsserver.handle_{hot,junk}_ns
func (s *Server) Handle(query *dnswire.Message, tcp bool) *dnswire.Message {
	return s.handleState(s.state.Load(), query)
}

// handleState is Handle pinned to one serveState, so an answer is compiled
// from the same zone whose table it lands in.
func (s *Server) handleState(st *serveState, query *dnswire.Message) *dnswire.Message {
	if query.Header.Response || len(query.Questions) != 1 {
		return nil
	}
	mQueries.Inc()
	timer := telemetry.StartTimer()
	defer timer.ObserveInto(mQueryDur)
	span := telemetry.StartSpan("serve", "dns", -1, 0)
	defer span.End()
	q := query.Questions[0]
	resp := &dnswire.Message{
		Header: dnswire.Header{
			ID:       query.Header.ID,
			Response: true,
			Opcode:   query.Header.Opcode,
		},
		Questions: []dnswire.Question{q},
	}
	if query.Header.Opcode != dnswire.OpcodeQuery {
		resp.Header.Rcode = dnswire.RcodeNotImp
		return resp
	}
	if opt, ok := query.EDNS(); ok {
		resp.WithEDNS(uint16(max(s.cfg.UDPSize, dnswire.MaxUDPPayload)), opt.Do)
	}

	switch q.Class {
	case dnswire.ClassCHAOS:
		s.answerChaos(resp, q)
	case dnswire.ClassINET:
		if q.Type == dnswire.TypeAXFR {
			resp.Header.Rcode = dnswire.RcodeRefused
			return resp
		}
		s.answerINET(st, resp, q, query)
	default:
		resp.Header.Rcode = dnswire.RcodeRefused
	}
	return resp
}

// answerChaos answers the identity battery.
func (s *Server) answerChaos(resp *dnswire.Message, q dnswire.Question) {
	// ASCII folding, as everywhere else in the DNS (RFC 4343): Unicode
	// lowercasing would also accept spellings such as "version.b\u0130nd.".
	var txt string
	switch q.Name.Canonical() {
	case "hostname.bind.", "id.server.":
		txt = s.cfg.Identity.Hostname
	case "version.bind.", "version.server.":
		txt = s.cfg.Identity.Version
	default:
		resp.Header.Rcode = dnswire.RcodeRefused
		return
	}
	if txt == "" {
		resp.Header.Rcode = dnswire.RcodeRefused
		return
	}
	if q.Type != dnswire.TypeTXT {
		resp.Header.Rcode = dnswire.RcodeRefused
		return
	}
	resp.Header.Authoritative = true
	resp.Answers = append(resp.Answers, dnswire.RR{
		Name: q.Name, Class: dnswire.ClassCHAOS, TTL: 0,
		Data: dnswire.TXTRecord{Strings: []string{txt}},
	})
}

// answerINET answers class-IN queries from the best-matching authoritative
// zone: authoritative data at or above the apex cut, referrals for
// delegated names, NXDOMAIN otherwise.
func (s *Server) answerINET(st *serveState, resp *dnswire.Message, q dnswire.Question, query *dnswire.Message) {
	z := s.zoneFor(st.zone, q.Name)
	if z == nil {
		resp.Header.Rcode = dnswire.RcodeRefused
		return
	}
	dnssecOK := false
	if opt, ok := query.EDNS(); ok {
		dnssecOK = opt.Do
	}

	// Exact data at the name?
	answers := z.Lookup(q.Name, q.Type)
	isDelegated := len(z.Delegation(q.Name)) > 0

	if len(answers) > 0 && (!isDelegated || q.Name.Canonical() == z.Apex.Canonical()) {
		resp.Header.Authoritative = true
		resp.Answers = answers
		if dnssecOK {
			resp.Answers = append(resp.Answers, coveringSigs(z, q.Name, q.Type)...)
		}
		if q.Name.Canonical() == z.Apex.Canonical() && q.Type == dnswire.TypeNS {
			s.addGlue(resp, z, answers, dnssecOK)
		}
		return
	}

	// Referral?
	if deleg := z.Delegation(q.Name); len(deleg) > 0 {
		resp.Authority = deleg
		s.addGlue(resp, z, deleg, false)
		return
	}

	// Name exists with other types (NODATA) or not at all (NXDOMAIN)?
	if len(z.Lookup(q.Name, dnswire.TypeANY)) > 0 {
		resp.Header.Authoritative = true
		s.addSOA(resp, z, dnssecOK)
		if dnssecOK {
			// NODATA proof: the NSEC at the queried name shows the type is
			// absent from its bitmap (RFC 4035 §3.1.3.1).
			s.addNSEC(resp, z, q.Name)
		}
		return
	}
	resp.Header.Authoritative = true
	resp.Header.Rcode = dnswire.RcodeNXDomain
	s.addSOA(resp, z, dnssecOK)
	if dnssecOK {
		// NXDOMAIN proof: the NSEC covering the queried name, plus the one
		// proving no wildcard could have matched (RFC 4035 §3.1.3.2). In
		// the root zone, the apex NSEC proves wildcard absence.
		s.addCoveringNSEC(resp, z, q.Name)
		s.addNSEC(resp, z, z.Apex)
	}
}

// addNSEC appends the NSEC RRset at name (with its RRSIG) to authority.
func (s *Server) addNSEC(resp *dnswire.Message, z *zone.Zone, name dnswire.Name) {
	for _, rr := range z.Lookup(name, dnswire.TypeNSEC) {
		resp.Authority = append(resp.Authority, rr)
	}
	resp.Authority = append(resp.Authority, coveringSigs(z, name, dnswire.TypeNSEC)...)
}

// addCoveringNSEC appends the NSEC record whose span covers the
// (nonexistent) queried name, with its RRSIG.
func (s *Server) addCoveringNSEC(resp *dnswire.Message, z *zone.Zone, name dnswire.Name) {
	if rr, ok := z.CoveringNSEC(name); ok {
		resp.Authority = append(resp.Authority, rr)
		resp.Authority = append(resp.Authority, coveringSigs(z, rr.Name, dnswire.TypeNSEC)...)
	}
}

// addGlue appends A/AAAA (and with dnssecOK their RRSIGs) for NS targets.
func (s *Server) addGlue(resp *dnswire.Message, z *zone.Zone, nsset []dnswire.RR, dnssecOK bool) {
	for _, rr := range nsset {
		ns, ok := rr.Data.(dnswire.NSRecord)
		if !ok {
			continue
		}
		resp.Additional = append(resp.Additional, z.Glue(ns.Host)...)
		if dnssecOK {
			resp.Additional = append(resp.Additional, coveringSigs(z, ns.Host, dnswire.TypeA)...)
			resp.Additional = append(resp.Additional, coveringSigs(z, ns.Host, dnswire.TypeAAAA)...)
		}
	}
}

// addSOA puts the SOA (and optionally its RRSIG) in the authority section.
func (s *Server) addSOA(resp *dnswire.Message, z *zone.Zone, dnssecOK bool) {
	if soa, ok := z.SOA(); ok {
		resp.Authority = append(resp.Authority, soa)
		if dnssecOK {
			resp.Authority = append(resp.Authority, coveringSigs(z, z.Apex, dnswire.TypeSOA)...)
		}
	}
}

// coveringSigs returns RRSIGs at name covering typ.
func coveringSigs(z *zone.Zone, name dnswire.Name, typ dnswire.Type) []dnswire.RR {
	var out []dnswire.RR
	for _, rr := range z.Lookup(name, dnswire.TypeRRSIG) {
		if sig, ok := rr.Data.(dnswire.RRSIGRecord); ok && sig.TypeCovered == typ {
			out = append(out, rr)
		}
	}
	return out
}

// errorPace spaces out a serve loop's retries after a failed accept or read.
// A persistent failure (EMFILE, ENOBUFS) fails again at once, so an
// unpaced loop spins at 100 % CPU; this one sleeps 1 ms, doubling up to
// 100 ms, until a success resets it.
type errorPace struct{ delay time.Duration }

// wait counts one socket error and sleeps out the current delay. It returns
// false, without sleeping, once the server is closed.
func (p *errorPace) wait(closed <-chan struct{}) bool {
	select {
	case <-closed:
		return false
	default:
	}
	mSocketErrors.Inc()
	p.delay = min(max(2*p.delay, time.Millisecond), 100*time.Millisecond)
	timer := time.NewTimer(p.delay)
	defer timer.Stop()
	select {
	case <-closed:
		return false
	case <-timer.C:
		return true
	}
}

func (p *errorPace) reset() { p.delay = 0 }
