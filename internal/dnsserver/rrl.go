package dnsserver

import (
	"fmt"
	"net/netip"
	"strconv"
	"strings"
	"sync"

	"repro/internal/cli"
	"repro/internal/failpoint"
	"repro/internal/seeded"
)

// RRLConfig configures BIND-style response-rate-limiting on the UDP path
// (TCP is exempt, as in BIND: a connected peer has already proven its
// source address, and the limiter's whole point is blunting reflection off
// spoofed UDP). A zero config disables the limiter.
//
// The classic algorithm refills each bucket at responses-per-second of
// wall clock; that would make every verdict a race against the scheduler.
// This limiter substitutes a logical clock — the bucket's own arrival
// count: each arriving query deposits Rate credits (capped at Burst) and a
// response costs one, so the steady-state send fraction per bucket is
// exactly Rate, the first Burst responses always pass, and verdict N for a
// bucket is a pure function of (config, N). See DESIGN.md §14.
type RRLConfig struct {
	// Rate is the credit deposited per arriving query, i.e. the
	// steady-state fraction of responses allowed per bucket, in (0, 1].
	// Zero disables RRL.
	Rate float64
	// Burst is the bucket's credit cap: how many responses a previously
	// quiet bucket may emit back to back. 0 means 8.
	Burst int
	// Slip answers every Nth suppressed response with a minimal truncated
	// (TC) reply instead of silence, so legitimate clients behind a
	// spoofed prefix can fall back to TCP. 0 never slips; 1 turns every
	// drop into a slip.
	Slip int
	// Prefix4/Prefix6 aggregate clients into address blocks, the unit of
	// limiting (spoofed floods vary the low bits). 0 means /24 and /56.
	Prefix4, Prefix6 int
	// TableBytes bounds the bucket table; oldest buckets are evicted
	// first. 0 means 1 MiB.
	TableBytes int64
	// Seed roots the per-bucket slip phase so drop/slip interleavings are
	// seed-deterministic rather than starting every bucket in lockstep.
	Seed uint64
}

// rrlDefaults fills zero fields.
func (c RRLConfig) withDefaults() RRLConfig {
	if c.Burst == 0 {
		c.Burst = 8
	}
	if c.Prefix4 == 0 {
		c.Prefix4 = 24
	}
	if c.Prefix6 == 0 {
		c.Prefix6 = 56
	}
	if c.TableBytes <= 0 {
		c.TableBytes = 1 << 20
	}
	return c
}

// Set parses the -rrl flag syntax (RRLConfig is a flag.Value): key=value
// terms as internal/cli walks them, e.g.
// "rate=0.5,burst=50,slip=2,prefix4=24,prefix6=56,tablebytes=1048576,seed=7".
// A spec replaces the whole config, so an empty one is the zero (disabled)
// config.
func (c *RRLConfig) Set(s string) error {
	*c = RRLConfig{}
	return cli.Walk(s, func(k, v string) (err error) {
		switch k {
		case "rate":
			c.Rate, err = cli.Prob(v)
		case "burst":
			c.Burst, err = strconv.Atoi(v)
		case "slip":
			c.Slip, err = strconv.Atoi(v)
		case "prefix4":
			c.Prefix4, err = strconv.Atoi(v)
		case "prefix6":
			c.Prefix6, err = strconv.Atoi(v)
		case "tablebytes":
			c.TableBytes, err = strconv.ParseInt(v, 10, 64)
		case "seed":
			c.Seed, err = strconv.ParseUint(v, 10, 64)
		default:
			err = cli.Unknown(k, "rate, burst, slip, prefix4, prefix6, tablebytes, seed")
		}
		return err
	})
}

// String renders the config in the syntax Set parses (only non-zero keys).
func (c RRLConfig) String() string {
	var parts []string
	add := func(k string, v any, set bool) {
		if set {
			parts = append(parts, fmt.Sprintf("%s=%v", k, v))
		}
	}
	add("rate", c.Rate, c.Rate != 0)
	add("burst", c.Burst, c.Burst != 0)
	add("slip", c.Slip, c.Slip != 0)
	add("prefix4", c.Prefix4, c.Prefix4 != 0)
	add("prefix6", c.Prefix6, c.Prefix6 != 0)
	add("tablebytes", c.TableBytes, c.TableBytes != 0)
	add("seed", c.Seed, c.Seed != 0)
	return strings.Join(parts, ",")
}

// rrlVerdict is the limiter's decision for one about-to-be-sent response.
type rrlVerdict uint8

const (
	rrlSend rrlVerdict = iota // under the rate: send the real response
	rrlDrop                   // suppressed entirely
	rrlSlip                   // suppressed, but answer a minimal TC stub
)

// Response classes, the second bucket dimension: an attacker must not be
// able to drain a victim's NXDOMAIN budget with queries that produce
// answers, and vice versa (BIND's error/nxdomain/normal split).
const (
	rrlClassAnswer byte = iota
	rrlClassNXDomain
	rrlClassError
)

// rrlClassify maps a packed response wire to its class from the rcode
// octet alone, so the compiled path never decodes.
func rrlClassify(resp []byte) byte {
	if len(resp) < udpHeaderLen {
		return rrlClassError
	}
	switch resp[3] & 0x0F {
	case 0:
		return rrlClassAnswer
	case 3:
		return rrlClassNXDomain
	default:
		return rrlClassError
	}
}

// rrlCreditUnit is the fixed-point scale for bucket credit.
const rrlCreditUnit = 1 << 16

// rrlBucket is one (client block × response class) account.
type rrlBucket struct {
	credit int64  // fixed-point, rrlCreditUnit per response
	denies uint64 // suppressions so far, phase-shifted by the seed for slip
}

// rrlBucketOverhead approximates per-entry map/struct cost for the byte
// budget, beyond the 17-byte key.
const rrlBucketOverhead = 80

// rrlState is the limiter: a byte-budgeted bucket table with insertion-
// order eviction. One table serves all shards; the
// mutex is uncontended at test scale and a single cache line at line rate
// beats a per-shard split, which would make verdicts depend on kernel
// flow-hashing.
type rrlState struct {
	//rootlint:immutable-after-start
	cfg RRLConfig
	//rootlint:immutable-after-start
	credit int64 // per-query deposit, fixed point

	mu sync.Mutex
	//rootlint:guardedby mu
	buckets map[string]*rrlBucket
	//rootlint:guardedby mu
	keys []string // insertion order; keys[evict:] are live
	//rootlint:guardedby mu
	evict int
	//rootlint:guardedby mu
	bytes int64
}

// newRRL builds the limiter, or nil when cfg.Rate is zero (disabled): the
// nil receiver is the no-op, so the serve path stays a branch, not a call.
func newRRL(cfg RRLConfig) *rrlState {
	if cfg.Rate <= 0 {
		return nil
	}
	cfg = cfg.withDefaults()
	return &rrlState{
		cfg:     cfg,
		credit:  int64(cfg.Rate * rrlCreditUnit),
		buckets: make(map[string]*rrlBucket),
	}
}

// key writes the bucket key for (client, class) into dst: the prefix-
// masked 16-byte address plus the class octet. Alloc-free for the caller's
// reused buffer.
func (r *rrlState) key(dst []byte, client netip.Addr, class byte) []byte {
	ip := client.Unmap()
	b := ip.As16()
	bits := r.cfg.Prefix6
	if ip.Is4() {
		bits = 96 + r.cfg.Prefix4 // mask within the v4-mapped tail
	}
	for i := range b {
		switch {
		case bits >= 8:
			bits -= 8
		case bits <= 0:
			b[i] = 0
		default:
			b[i] &= ^byte(0) << (8 - bits)
			bits = 0
		}
	}
	dst = append(dst[:0], b[:]...)
	return append(dst, class)
}

// decide charges one response against (client, class) and returns the
// verdict. This is the single RRL failpoint site: an injected
// serve/rrl/decide error forces a drop verdict for exactly one response.
// Verdict N for a bucket depends only on (config, N), so any serial
// offered sequence gets byte-identical verdicts across runs and shard
// counts.
func (r *rrlState) decide(keyBuf []byte, client netip.Addr, class byte) rrlVerdict {
	if err := failpoint.Eval("serve/rrl/decide"); err != nil {
		mRRLDrops.Inc()
		return rrlDrop
	}
	key := r.key(keyBuf, client, class)
	r.mu.Lock()
	b := r.buckets[string(key)]
	if b == nil {
		b = r.insert(key)
	}
	b.credit += r.credit
	if lim := int64(r.cfg.Burst) * rrlCreditUnit; b.credit > lim {
		b.credit = lim
	}
	if b.credit >= rrlCreditUnit {
		b.credit -= rrlCreditUnit
		r.mu.Unlock()
		return rrlSend
	}
	deny := b.denies
	b.denies++
	r.mu.Unlock()
	if s := r.cfg.Slip; s > 0 && deny%uint64(s) == 0 {
		mRRLSlips.Inc()
		return rrlSlip
	}
	mRRLDrops.Inc()
	return rrlDrop
}

// insert adds a fresh bucket under the byte budget, evicting oldest-first.
// The new bucket starts at full burst minus nothing — its first deposit
// happens in decide — and its slip phase is seeded per key so bucket drop/
// slip interleavings differ deterministically. Caller holds r.mu.
func (r *rrlState) insert(key []byte) *rrlBucket {
	k := string(key)
	sz := int64(len(k)) + rrlBucketOverhead
	for r.bytes+sz > r.cfg.TableBytes && r.evict < len(r.keys) {
		old := r.keys[r.evict]
		r.evict++
		if _, ok := r.buckets[old]; ok {
			r.bytes -= int64(len(old)) + rrlBucketOverhead
			delete(r.buckets, old)
			mRRLEvictions.Inc()
		}
	}
	b := &rrlBucket{credit: int64(r.cfg.Burst) * rrlCreditUnit}
	if s := r.cfg.Slip; s > 1 {
		b.denies = seeded.Mix(r.cfg.Seed^seeded.FNVString(seeded.FNVBasis, k)) % uint64(s)
	}
	r.buckets[k] = b
	r.keys = append(r.keys, k)
	r.bytes += sz
	if r.evict > len(r.keys)/2 {
		r.keys = append([]string(nil), r.keys[r.evict:]...)
		r.evict = 0
	}
	return b
}

// Len reports live buckets (tests and introspection).
func (r *rrlState) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.buckets)
}

// appendSlipStub writes the minimal truncated reply for the raw query pkt
// (whose question section ends at qEnd) into dst: the query's ID, opcode
// and RD preserved; QR, AA cleared, TC set; NOERROR; the question echoed;
// all other sections empty. A resolver treats it exactly like an
// over-limit answer and falls back to TCP, where RRL does not apply.
func appendSlipStub(dst, pkt []byte, qEnd int) []byte {
	dst = append(dst[:0], pkt[:qEnd]...)
	dst[2] = (dst[2] & 0x79) | 0x82 // QR|TC set, AA cleared, opcode+RD kept
	dst[3] = 0                      // RA clear, NOERROR
	dst[6], dst[7] = 0, 0           // ancount
	dst[8], dst[9] = 0, 0           // nscount
	dst[10], dst[11] = 0, 0         // arcount
	return dst
}
