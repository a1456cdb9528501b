// Package blast is the rootblast load engine: a seeded query-composition
// generator reproducing the B-Root traffic mix ("Understanding DNS Query
// Composition at B-Root": A/AAAA ratios, junk queries for nonexistent TLDs,
// heavy-hitter skew, DNSSEC DO-bit ratio), driven through pipelined
// connected UDP sockets in the style of ZDNS: N independent socket workers,
// each keeping a window of outstanding queries in flight and matching
// responses by message ID, with latency observations riding the telemetry
// layer's power-of-two histograms.
//
// The generator is deterministic: the same (Mix, seed, tlds, size) always
// yields the same query corpus, so two benchmark runs offer the server an
// identical workload. Only the timing side (RTT observations, counts at a
// wall-clock deadline) is nondeterministic, and every metric it touches is
// volatile-class.
package blast

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"net"
	"time"

	"repro/internal/dnsclient"
	"repro/internal/dnswire"
	"repro/internal/netem"
	"repro/internal/qlog"
	"repro/internal/seeded"
	"repro/internal/zone"
)

// Mix describes the query composition offered to the server. Type fractions
// (AAAA, NS, DS, DNSKEY, SOA) are of all queries; the remainder are type A.
// Junk is the fraction of A/AAAA qnames that name a nonexistent TLD. DO is
// the fraction of queries sent with EDNS0 and the DO bit; of those,
// EDNS4096 advertise 4096 bytes and the rest 1232. Skew is the Zipf-like
// exponent of the heavy-hitter distribution over existing TLDs (0 =
// uniform; 1 ~ the B-Root study's skew, where a handful of TLDs dominate).
type Mix struct {
	AAAA     float64
	NS       float64
	DS       float64
	DNSKEY   float64
	SOA      float64
	Junk     float64
	DO       float64
	EDNS4096 float64
	Skew     float64
}

// DefaultMix approximates the composition measured at B-Root: mostly A with
// a substantial AAAA share, a long tail of junk queries for TLDs that do
// not exist (NXDOMAIN is a root server's single most common answer), a
// heavy-hitter skew where a few TLDs absorb most existing-name traffic, and
// a large majority of queries arriving with EDNS0 and the DO bit set.
func DefaultMix() Mix {
	return Mix{
		AAAA:     0.18,
		NS:       0.03,
		DS:       0.04,
		DNSKEY:   0.01,
		SOA:      0.01,
		Junk:     0.45,
		DO:       0.72,
		EDNS4096: 0.35,
		Skew:     1.0,
	}
}

// Corpus is a pregenerated set of packed query wires (message ID zero; the
// runner patches a fresh ID into each send). Pregeneration keeps the send
// loop allocation-free and makes the offered workload a pure function of
// the generator inputs. qEnds caches each wire's question-section end so the
// flight recorder can build join subjects without re-walking names.
type Corpus struct {
	wires [][]byte
	qEnds []int32
}

// Len returns the number of distinct queries in the corpus.
func (c *Corpus) Len() int { return len(c.wires) }

// Wire returns the i-th packed query. The slice is shared; callers must
// copy before patching the ID.
//
//rootlint:allow deadcode: bench/corpus.go builds its hot set from the blast corpus
func (c *Corpus) Wire(i int) []byte { return c.wires[i] }

// rng is a tiny seeded stream over seeded.Mix.
type rng struct{ state uint64 }

func (r *rng) next() uint64 {
	r.state = seeded.Mix(r.state)
	return r.state
}

// frac returns a uniform float64 in [0, 1).
func (r *rng) frac() float64 {
	return seeded.Unit(r.next())
}

// BuildCorpus generates size packed queries sampled from mix over a
// synthesized root zone with tlds delegations (zone.TLDNames gives the
// exact delegation set rootserve serves). The corpus is deterministic in
// (mix, tlds, size, seed).
func BuildCorpus(mix Mix, tlds, size int, seed uint64) (*Corpus, error) {
	if size <= 0 {
		return nil, errors.New("blast: corpus size must be positive")
	}
	names := zone.TLDNames(tlds)
	if len(names) == 0 {
		return nil, errors.New("blast: no TLDs to query")
	}
	// Heavy-hitter skew: cumulative 1/(rank+1)^skew weights over the TLD
	// list, sampled by linear scan of the cumulative table (the table is
	// small and this is generation time, not send time).
	cum := make([]float64, len(names))
	total := 0.0
	for i := range names {
		w := 1.0
		if mix.Skew > 0 {
			w = 1.0 / math.Pow(float64(i+1), mix.Skew)
		}
		total += w
		cum[i] = total
	}
	pickTLD := func(r *rng) dnswire.Name {
		x := r.frac() * total
		for i, c := range cum {
			if x <= c {
				return names[i]
			}
		}
		return names[len(names)-1]
	}

	r := &rng{state: seed ^ 0xb1a57}
	wires := make([][]byte, 0, size)
	qEnds := make([]int32, 0, size)
	for i := 0; i < size; i++ {
		var qname dnswire.Name
		var qtype dnswire.Type
		switch t := r.frac(); {
		case t < mix.AAAA:
			qtype = dnswire.TypeAAAA
		case t < mix.AAAA+mix.NS:
			qtype = dnswire.TypeNS
		case t < mix.AAAA+mix.NS+mix.DS:
			qtype = dnswire.TypeDS
		case t < mix.AAAA+mix.NS+mix.DS+mix.DNSKEY:
			qtype = dnswire.TypeDNSKEY
		case t < mix.AAAA+mix.NS+mix.DS+mix.DNSKEY+mix.SOA:
			qtype = dnswire.TypeSOA
		default:
			qtype = dnswire.TypeA
		}
		switch qtype {
		case dnswire.TypeA, dnswire.TypeAAAA:
			if r.frac() < mix.Junk {
				// Nonexistent TLD: a junk label that cannot collide with
				// the synthesized delegations.
				qname = dnswire.Name(fmt.Sprintf("junk-%012x.", r.next()&0xffffffffffff))
			} else {
				// Resolution traffic: a name under a delegated TLD, drawing
				// the TLD from the heavy-hitter distribution.
				qname = dnswire.Name(fmt.Sprintf("www%d.%s", r.next()&0x3f, pickTLD(r)))
			}
		case dnswire.TypeNS, dnswire.TypeDS:
			qname = pickTLD(r)
		default: // DNSKEY, SOA: apex maintenance traffic
			qname = dnswire.Root
		}
		q := dnswire.NewQuery(0, qname, qtype)
		if r.frac() < mix.DO {
			udpSize := uint16(1232)
			if r.frac() < mix.EDNS4096 {
				udpSize = 4096
			}
			q.WithEDNS(udpSize, true)
		}
		wire, err := q.Pack()
		if err != nil {
			return nil, fmt.Errorf("blast: packing corpus query %d: %w", i, err)
		}
		wires = append(wires, wire)
		qEnds = append(qEnds, int32(qlog.QuestionEnd(wire)))
	}
	return &Corpus{wires: wires, qEnds: qEnds}, nil
}

// Config configures one load run.
type Config struct {
	// Addr is the target server's host:port (UDP).
	Addr string
	// Workers is the number of independent sockets, each with its own send
	// loop and outstanding window. 0 means 1.
	Workers int
	// Window is the number of outstanding (pipelined) queries per socket.
	// 0 means 64.
	Window int
	// Duration bounds the run in wall time. 0 means Count must be set.
	Duration time.Duration
	// Count, when non-zero, caps the total queries sent across workers.
	Count int64
	// Timeout is how long an outstanding query may go unanswered before it
	// is reaped (and how long a drain read blocks). 0 means 250ms.
	Timeout time.Duration
	// Retries is how many times an expired query is re-sent (same wire,
	// same message ID, so a seeded netem link rolls a fresh fate for the
	// re-send rather than re-branching the corpus) before it is declared
	// lost. 0 keeps the historical reap-once semantics.
	Retries int
	// Backoff stretches the per-attempt deadline: re-send attempt k waits
	// Timeout + Backoff.Delay(k-1) before expiring, i.e. the capped
	// exponential pause is folded into the wait for an answer. The zero
	// value re-sends on a flat Timeout cadence.
	Backoff dnsclient.Backoff
	// Netem applies a deterministic adverse-network profile to each
	// worker's socket (flow = worker index): queries pass the link on
	// egress, responses on ingress. The zero profile is off.
	Netem netem.Profile
	// QLog attaches a per-query flight recorder: every sampled query emits
	// one blast/query event at its terminal outcome (matched or declared
	// lost). Give it the same sampler seed and rate as the server's so
	// `rootanalyze -qlog join` can pair both sides' records. Nil is off.
	QLog *qlog.Recorder
	// Corpus is the offered workload; required.
	Corpus *Corpus
}

// Result is one run's report. Quantiles are read from the telemetry RTT
// histogram's bucket distribution. Every query is accounted for at exit:
// Sent counts distinct queries (first sends), and Sent == Received + Lost
// always holds after the drain — nothing is left implicit in the pending
// ring. Timeouts counts per-attempt expiries (so Timeouts >= Lost when
// retries are on) and Retried counts re-sends, which are not in Sent.
type Result struct {
	Sent       int64         `json:"sent"`
	Received   int64         `json:"received"`
	Lost       int64         `json:"lost"`
	Retried    int64         `json:"retried"`
	Timeouts   int64         `json:"timeouts"`
	Mismatches int64         `json:"mismatches"`
	Elapsed    time.Duration `json:"elapsed_ns"`
	QPS        float64       `json:"qps"`
	P50us      int64         `json:"p50_us"`
	P90us      int64         `json:"p90_us"`
	P99us      int64         `json:"p99_us"`
}

// String renders the one-line human report.
func (r *Result) String() string {
	return fmt.Sprintf("sent=%d received=%d lost=%d retried=%d timeouts=%d mismatches=%d elapsed=%s qps=%.0f p50=%dus p90=%dus p99=%dus",
		r.Sent, r.Received, r.Lost, r.Retried, r.Timeouts, r.Mismatches,
		r.Elapsed.Round(time.Millisecond), r.QPS, r.P50us, r.P90us, r.P99us)
}

// Run drives the configured load against cfg.Addr and aggregates the
// per-worker tallies. The RTT distribution lands in the telemetry histogram
// wallclock/blast_rtt_us (cumulative across runs in one process; tests
// reset telemetry between runs).
func Run(cfg Config) (*Result, error) {
	if cfg.Corpus == nil || cfg.Corpus.Len() == 0 {
		return nil, errors.New("blast: empty corpus")
	}
	if cfg.Duration <= 0 && cfg.Count <= 0 {
		return nil, errors.New("blast: need a duration or a query count")
	}
	workers := cfg.Workers
	if workers <= 0 {
		workers = 1
	}
	window := cfg.Window
	if window <= 0 {
		window = 64
	}
	timeout := cfg.Timeout
	if timeout <= 0 {
		timeout = 250 * time.Millisecond
	}
	raddr, err := net.ResolveUDPAddr("udp", cfg.Addr)
	if err != nil {
		return nil, fmt.Errorf("blast: resolve %q: %w", cfg.Addr, err)
	}

	perWorkerCount := int64(0)
	if cfg.Count > 0 {
		perWorkerCount = (cfg.Count + int64(workers) - 1) / int64(workers)
	}
	link := netem.NewLink(cfg.Netem)
	// Per-attempt deadline extensions, precomputed off the hot loop:
	// attempt 0 waits Timeout, re-send attempt k waits Timeout+Delay(k-1).
	delays := make([]int64, cfg.Retries+1)
	for k := 1; k <= cfg.Retries; k++ {
		delays[k] = cfg.Backoff.Delay(k - 1).Nanoseconds()
	}
	//rootlint:allow wallclock: load generation is wall-clock by nature; RTTs and deadlines never feed measurement results
	start := time.Now()
	ws := make([]worker, workers)
	errs := make(chan error, workers)
	for i := 0; i < workers; i++ {
		w := &ws[i]
		w.corpus = cfg.Corpus
		w.window = window
		w.duration = cfg.Duration
		w.count = perWorkerCount
		w.timeoutNs = timeout.Nanoseconds()
		w.timeout = timeout
		w.retries = cfg.Retries
		w.delays = delays
		w.link = link
		w.qlog = cfg.QLog
		// The flow key is the worker index: stable run to run, unlike the
		// socket's ephemeral port.
		w.flow = netem.FlowID(uint64(i))
		// Stagger corpus offsets so N workers collectively offer the mix.
		w.ci = (i * cfg.Corpus.Len()) / workers
		w.idCtr = uint32(seeded.Mix(uint64(i)*0x9e37 + 1))
		go func() { errs <- w.run(raddr) }()
	}
	var firstErr error
	for i := 0; i < workers; i++ {
		if err := <-errs; err != nil && firstErr == nil {
			firstErr = err
		}
	}
	if firstErr != nil {
		return nil, firstErr
	}
	//rootlint:allow wallclock: load generation is wall-clock by nature
	elapsed := time.Since(start)

	res := &Result{Elapsed: elapsed}
	for i := range ws {
		res.Sent += ws[i].sent
		res.Received += ws[i].received
		res.Lost += ws[i].lost
		res.Retried += ws[i].retried
		res.Timeouts += ws[i].timeouts
		res.Mismatches += ws[i].mismatches
	}
	if secs := elapsed.Seconds(); secs > 0 {
		res.QPS = float64(res.Received) / secs
	}
	res.P50us = mRTT.Quantile(0.50)
	res.P90us = mRTT.Quantile(0.90)
	res.P99us = mRTT.Quantile(0.99)
	mSent.Add(res.Sent)
	mReceived.Add(res.Received)
	mLost.Add(res.Lost)
	mRetries.Add(res.Retried)
	mTimeouts.Add(res.Timeouts)
	mMismatches.Add(res.Mismatches)
	return res, nil
}

// worker is one pipelined socket loop's state. Tallies are written only by
// the owning goroutine and read by Run after the errs barrier.
type worker struct {
	corpus    *Corpus
	window    int
	duration  time.Duration
	count     int64 // per-worker send budget; 0 = unbounded
	timeout   time.Duration
	timeoutNs int64
	retries   int
	delays    []int64 // per-attempt deadline extension, ns (delays[0] = 0)
	link      *netem.Link
	flow      uint64
	qlog      *qlog.Recorder // nil when flight recording is off

	conn    *net.UDPConn
	sendBuf []byte
	recvBuf []byte
	subjBuf []byte // flight-recorder join-subject scratch
	// pending[id] is the send time (UnixNano) of the outstanding query with
	// that message ID, 0 when none; attempts[id] counts its re-sends and
	// wireIdx[id] remembers its corpus entry so an expiry re-sends the same
	// wire under the same ID. The ring holds outstanding IDs in first-send
	// order; it is larger than the window so out-of-order completions never
	// wedge the head against a still-pending tail. A retried entry keeps
	// its ring slot with a refreshed timestamp — never re-appended, so the
	// ring can't overflow and an ID is never in the ring twice.
	//rootlint:shardconfined Run,worker.run
	pending []int64
	//rootlint:shardconfined Run,worker.run
	attempts []uint8
	//rootlint:shardconfined Run,worker.run
	wireIdx []int32
	//rootlint:shardconfined Run,worker.run
	ring []uint16
	//rootlint:shardconfined Run,worker.run
	head, tail int
	//rootlint:shardconfined Run,worker.run
	outstanding int
	//rootlint:shardconfined Run,worker.run
	ci int // corpus cursor
	//rootlint:shardconfined Run,worker.run
	idCtr uint32

	//rootlint:shardconfined Run,worker.run
	sent, received, lost, retried, timeouts, mismatches int64
}

// evBlastQuery is the client-side flight-recorder event: one record per
// sampled query at its terminal outcome. Claimed once; the qlogfield
// analyzer cross-checks the field list against the qlog registry.
var evBlastQuery = qlog.NewEvent("blast/query",
	"attempts", "outcome", "rcode", "tc", "wait_us")

// blast/query outcome enum values, in registry order.
const (
	qOutcomeOK   = 0
	qOutcomeLost = 1
)

// emitQuery records the terminal blast/query event for the outstanding query
// with this message ID. The join subject is the query prefix as sent — the
// corpus wire with the ID patched in — so the key matches the server's record
// of the same query. rcode and tc are zero for lost queries (no response).
//
//rootlint:hotpath
func (w *worker) emitQuery(id uint16, outcome, rcode, tc uint64) {
	wi := w.wireIdx[id]
	qe := w.corpus.qEnds[wi]
	if qe < 0 {
		return
	}
	w.subjBuf = append(w.subjBuf[:0], w.corpus.wires[wi][:qe]...)
	w.subjBuf[0], w.subjBuf[1] = byte(id>>8), byte(id)
	key := qlog.Key(w.subjBuf)
	if !w.qlog.Sampled(key) {
		return
	}
	var waitUs uint64
	for k := 1; k <= int(w.attempts[id]); k++ {
		waitUs += uint64(w.delays[k] / 1000)
	}
	w.qlog.Emit(evBlastQuery, key, w.subjBuf,
		uint64(w.attempts[id])+1, outcome, rcode, tc, waitUs)
}

// expireNs is the wait before the entry's current attempt is declared
// expired: the base timeout, stretched by the backoff table for re-sends.
//
//rootlint:hotpath
func (w *worker) expireNs(id uint16) int64 {
	return w.timeoutNs + w.delays[w.attempts[id]]
}

// send patches id into the corpus wire and writes it through the emulated
// link (a dropped or corrupted send is still a send: the entry stays
// pending and the expiry path accounts for it).
//
//rootlint:hotpath
func (w *worker) send(id uint16, wireIdx int32) error {
	w.sendBuf = append(w.sendBuf[:0], w.corpus.wires[wireIdx]...)
	w.sendBuf[0], w.sendBuf[1] = byte(id>>8), byte(id)
	first, second := w.link.Admit(netem.Egress, w.flow, w.sendBuf)
	if first != nil {
		if _, err := w.conn.Write(first); err != nil {
			return err
		}
	}
	if second != nil {
		if _, err := w.conn.Write(second); err != nil {
			return err
		}
	}
	return nil
}

// reap advances the ring tail past completed entries and expires entries
// older than their attempt deadline, re-sending those with retry budget
// left (same ID, same wire, refreshed timestamp — the entry keeps its ring
// slot) and declaring the rest lost. It stops at the first young,
// still-pending entry.
//
//rootlint:hotpath
func (w *worker) reap(nowNs int64) error {
	for w.tail != w.head {
		id := w.ring[w.tail]
		t0 := w.pending[id]
		if t0 != 0 {
			if nowNs-t0 < w.expireNs(id) {
				return nil
			}
			w.timeouts++
			if int(w.attempts[id]) < w.retries {
				w.attempts[id]++
				w.retried++
				w.pending[id] = nowNs
				if err := w.send(id, w.wireIdx[id]); err != nil {
					return err
				}
				// The refreshed entry is young again; later ring entries
				// wait behind it exactly like behind any pending tail.
				return nil
			}
			if w.qlog != nil {
				w.emitQuery(id, qOutcomeLost, 0, 0)
			}
			w.pending[id] = 0
			w.outstanding--
			w.lost++
		}
		w.tail = (w.tail + 1) % len(w.ring)
	}
	return nil
}

// fill tops the outstanding window up with fresh sends until the window,
// the deadline, or the send budget stops it.
//
//rootlint:hotpath
func (w *worker) fill(nowNs, deadlineNs int64) error {
	for w.outstanding < w.window && nowNs < deadlineNs &&
		(w.count <= 0 || w.sent < w.count) {
		if (w.head+1)%len(w.ring) == w.tail {
			if err := w.reap(nowNs); err != nil {
				return err
			}
			if (w.head+1)%len(w.ring) == w.tail {
				return nil // ring blocked on a young pending tail; drain first
			}
		}
		wi := int32(w.ci)
		w.ci++
		if w.ci == len(w.corpus.wires) {
			w.ci = 0
		}
		id := uint16(w.idCtr)
		w.idCtr++
		if w.pending[id] != 0 {
			return nil // ID still in flight after a full wrap; drain first
		}
		w.attempts[id] = 0
		w.wireIdx[id] = wi
		if err := w.send(id, wi); err != nil {
			return err
		}
		w.pending[id] = nowNs
		w.ring[w.head] = id
		w.head = (w.head + 1) % len(w.ring)
		w.outstanding++
		w.sent++
	}
	return nil
}

// handleResp matches one admitted response datagram against the pending
// table.
//
//rootlint:hotpath
func (w *worker) handleResp(buf []byte, rxNs int64) {
	if len(buf) < 2 {
		w.mismatches++
		return
	}
	id := binary.BigEndian.Uint16(buf)
	t0 := w.pending[id]
	if t0 == 0 {
		w.mismatches++
		return
	}
	if w.qlog != nil {
		var rcode, tc uint64
		if len(buf) > 3 {
			rcode = uint64(buf[3] & 0x0F)
		}
		if len(buf) > 2 && buf[2]&0x02 != 0 {
			tc = 1
		}
		w.emitQuery(id, qOutcomeOK, rcode, tc)
	}
	w.pending[id] = 0
	w.outstanding--
	w.received++
	mRTT.Observe((rxNs - t0) / 1000)
	// Compact completed entries off the ring tail.
	for w.tail != w.head && w.pending[w.ring[w.tail]] == 0 {
		w.tail = (w.tail + 1) % len(w.ring)
	}
}

// run is the worker loop: fill the window, drain one response, repeat; on a
// read timeout, reap expired outstanding entries. The loop ends only when
// the pending table is fully drained — every query has been answered or
// declared lost after its retry budget — so sent == received + lost holds
// at exit and nothing hangs under loss: the reap path always makes
// progress. The steady state allocates nothing — buffers, the per-ID
// tables, and the ring are reused across packets.
//
//rootlint:hotpath
func (w *worker) run(raddr *net.UDPAddr) error {
	conn, err := net.DialUDP("udp", nil, raddr)
	if err != nil {
		return err
	}
	defer conn.Close()
	w.conn = conn
	w.sendBuf = make([]byte, 0, 512)
	w.recvBuf = make([]byte, 64*1024)
	w.subjBuf = make([]byte, 0, 512)
	w.pending = make([]int64, 1<<16)
	w.attempts = make([]uint8, 1<<16)
	w.wireIdx = make([]int32, 1<<16)
	w.ring = make([]uint16, 4*w.window)

	//rootlint:allow wallclock: load generation deadline
	deadlineNs := time.Now().Add(w.duration).UnixNano()
	if w.duration <= 0 {
		deadlineNs = 1<<63 - 1
	}
	for {
		//rootlint:allow wallclock: pipelined send/receive pacing
		nowNs := time.Now().UnixNano()
		if w.outstanding == 0 && (nowNs >= deadlineNs || (w.count > 0 && w.sent >= w.count)) {
			return nil
		}
		if err := w.fill(nowNs, deadlineNs); err != nil {
			return err
		}
		if w.outstanding == 0 {
			continue
		}
		//rootlint:allow wallclock: socket read deadline
		if err := w.conn.SetReadDeadline(time.Now().Add(w.timeout)); err != nil {
			return err
		}
		n, err := w.conn.Read(w.recvBuf)
		if err != nil {
			if ne, ok := err.(net.Error); ok && ne.Timeout() {
				//rootlint:allow wallclock: reaping stale outstanding queries
				if err := w.reap(time.Now().UnixNano()); err != nil {
					return err
				}
				continue
			}
			return err
		}
		//rootlint:allow wallclock: RTT observation is the tool's output
		rxNs := time.Now().UnixNano()
		first, second := w.link.Admit(netem.Ingress, w.flow, w.recvBuf[:n])
		if first != nil {
			w.handleResp(first, rxNs)
		}
		if second != nil {
			w.handleResp(second, rxNs)
		}
	}
}
