// Package resolver implements a minimal iterative resolver: it primes
// against the root (RFC 8109), follows referrals using glue, and returns
// either an authoritative answer or the deepest delegation reached. It is
// the client-side counterpart of the dnsserver package and backs the
// priming-behavior model of the paper's adoption analysis: a resolver that
// primes refreshes its root addresses on startup, one that does not keeps
// using its (possibly stale) hints.
package resolver

import (
	"errors"
	"fmt"
	"math/rand"
	"net/netip"
	"time"

	"repro/internal/dnsclient"
	"repro/internal/dnssec"
	"repro/internal/dnswire"
	"repro/internal/hints"
)

// Exchanger sends one DNS query to a server address. The production
// implementation dials addr on port 53; tests map synthetic addresses to
// loopback listeners.
type Exchanger interface {
	Exchange(addr netip.Addr, q *dnswire.Message) (*dnswire.Message, error)
}

// NetExchanger dials real sockets, mapping each address through AddrMap
// when present (for test servers on loopback ports).
type NetExchanger struct {
	// Port is the target port (53 by default).
	Port int
	// AddrMap overrides specific server addresses with dial targets.
	AddrMap map[netip.Addr]string
	// Timeout bounds each exchange.
	Timeout time.Duration
}

// Exchange implements Exchanger.
func (n *NetExchanger) Exchange(addr netip.Addr, q *dnswire.Message) (*dnswire.Message, error) {
	target := ""
	if n.AddrMap != nil {
		target = n.AddrMap[addr]
	}
	if target == "" {
		port := n.Port
		if port == 0 {
			port = 53
		}
		target = netip.AddrPortFrom(addr, uint16(port)).String()
	}
	c := dnsclient.New(target)
	if n.Timeout > 0 {
		c.SetTimeout(n.Timeout)
	}
	return c.Exchange(q)
}

// Result is the outcome of an iterative resolution.
type Result struct {
	// Answers is non-empty for an authoritative answer.
	Answers []dnswire.RR
	// Rcode is the final response code (NXDOMAIN surfaces here).
	Rcode dnswire.Rcode
	// Delegation is the deepest referral reached when no server for the
	// next zone could be contacted (its NS RRset); a server that answers
	// only SERVFAIL or REFUSED counts as not contacted.
	Delegation []dnswire.RR
	// Chain lists the zones traversed (".", "com.", ...).
	Chain []dnswire.Name
}

// Resolver iterates from the root hints.
type Resolver struct {
	// Hints is the resolver's root hints file.
	Hints *hints.File
	// Exchange sends queries.
	Exchange Exchanger
	// PrimeOnStart refreshes Hints via an RFC 8109 priming query before the
	// first resolution.
	PrimeOnStart bool
	// UseIPv6 selects the address family for server selection.
	UseIPv6 bool
	// MaxSteps bounds referral chasing.
	MaxSteps int
	// TrustedKeys, when set, enables DNSSEC denial validation: NXDOMAIN
	// answers from the root must carry NSEC proofs that verify against
	// these DNSKEYs (RFC 4035 §5.4).
	TrustedKeys []dnswire.DNSKEYRecord
	// Now supplies validation time (default time.Now).
	Now func() time.Time

	rng    *rand.Rand
	primed bool
}

// defaultSeed seeds the server-selection shuffle of resolvers built via New.
// It is a fixed constant: a resolver constructed with defaults inside a
// campaign run must never smuggle in wall-clock entropy (the engine's
// reports are pinned byte-identical across runs). Callers that want
// distinct shuffle orders — load-spreading across many resolver instances —
// pass their own seed through NewSeeded.
const defaultSeed = 1

// New returns a resolver over the given hints and exchanger. Server
// selection order is deterministic (see defaultSeed); use NewSeeded to vary
// it explicitly.
func New(h *hints.File, ex Exchanger) *Resolver {
	return NewSeeded(h, ex, defaultSeed)
}

// NewSeeded is New with an explicit seed for the server-selection shuffle:
// two resolvers built with the same seed probe hint addresses in the same
// order, which keeps simulated resolutions reproducible.
func NewSeeded(h *hints.File, ex Exchanger, seed int64) *Resolver {
	return &Resolver{
		Hints:    h,
		Exchange: ex,
		MaxSteps: 8,
		rng:      rand.New(rand.NewSource(seed)),
	}
}

// Errors.
var (
	ErrNoServers = errors.New("resolver: no reachable servers")
	ErrLoop      = errors.New("resolver: referral limit exceeded")
)

// Prime refreshes the root hints via a priming exchange against one of the
// current hint addresses (RFC 8109). On success the refreshed hints replace
// the stale ones — this is exactly how post-renumbering resolvers learn
// b.root's new address.
func (r *Resolver) Prime() error {
	addrs := r.Hints.Addrs(r.UseIPv6)
	if len(addrs) == 0 {
		return ErrNoServers
	}
	var lastErr error = ErrNoServers
	// Try hints in random order, like resolvers spreading priming load.
	for _, i := range r.rng.Perm(len(addrs)) {
		resp, err := r.Exchange.Exchange(addrs[i], hints.PrimingQuery(uint16(r.rng.Uint32())))
		if err != nil {
			lastErr = err
			continue
		}
		fresh, err := hints.CheckPrimingResponse(resp)
		if err != nil {
			lastErr = err
			continue
		}
		r.Hints = fresh
		r.primed = true
		return nil
	}
	return lastErr
}

// Resolve iteratively resolves (name, type) starting from the root.
//
// A delegated zone with no usable server ends the resolution at its
// referral: when the referral carries no glue, or every glue address fails
// to answer or answers only SERVFAIL or REFUSED, Resolve returns the
// deepest referral reached (Result.Delegation and Result.Chain) and a nil
// error. When the root itself cannot be reached there is no referral, and
// Resolve returns the error with a nil Result.
func (r *Resolver) Resolve(name dnswire.Name, typ dnswire.Type) (*Result, error) {
	if r.PrimeOnStart && !r.primed {
		if err := r.Prime(); err != nil {
			return nil, fmt.Errorf("resolver: priming: %w", err)
		}
	}
	servers := r.rootServers()
	res := &Result{Chain: []dnswire.Name{dnswire.Root}}
	maxSteps := r.MaxSteps
	if maxSteps <= 0 {
		maxSteps = 8
	}
	for step := 0; step < maxSteps; step++ {
		resp, err := r.queryAny(servers, name, typ)
		if err != nil {
			if step == 0 {
				return nil, err
			}
			// No server for the delegated zone answered usably: stop at
			// the referral already recorded.
			return res, nil
		}
		res.Rcode = resp.Header.Rcode
		if resp.Header.Rcode == dnswire.RcodeNXDomain {
			if len(r.TrustedKeys) > 0 && step == 0 {
				//rootlint:allow wallclock: signature-validity checks against real servers need real time when no clock is injected; simulated runs always set Now
				now := time.Now()
				if r.Now != nil {
					now = r.Now()
				}
				if _, err := dnssec.VerifyDenialResponse(resp.Authority, name, typ, r.TrustedKeys, now); err != nil {
					return nil, fmt.Errorf("resolver: unproven NXDOMAIN: %w", err)
				}
			}
			return res, nil
		}
		if resp.Header.Authoritative && len(resp.Answers) > 0 {
			res.Answers = filterAnswers(resp.Answers, typ)
			return res, nil
		}
		// Referral: collect the next zone's servers from authority + glue.
		nsset, next := referral(resp)
		if len(nsset) == 0 {
			// NODATA or an empty answer: done.
			res.Answers = nil
			return res, nil
		}
		res.Delegation = nsset
		res.Chain = append(res.Chain, next)
		servers = glueServers(resp, nsset, r.UseIPv6)
		if len(servers) == 0 {
			// Glueless delegation: we stop at the referral, as we do when
			// the glue's servers cannot be reached (the study's synthetic
			// TLD servers are not instantiated).
			return res, nil
		}
	}
	return nil, ErrLoop
}

// rootServers returns the hint addresses in randomized order.
func (r *Resolver) rootServers() []netip.Addr {
	addrs := r.Hints.Addrs(r.UseIPv6)
	out := make([]netip.Addr, len(addrs))
	for i, j := range r.rng.Perm(len(addrs)) {
		out[i] = addrs[j]
	}
	return out
}

// queryAny tries servers in order until one answers with an rcode other
// than SERVFAIL or REFUSED; those answers are treated like an unreachable
// server.
func (r *Resolver) queryAny(servers []netip.Addr, name dnswire.Name, typ dnswire.Type) (*dnswire.Message, error) {
	var lastErr error = ErrNoServers
	// The DO bit requests DNSSEC records; needed when denial proofs are
	// validated.
	do := len(r.TrustedKeys) > 0
	for _, addr := range servers {
		q := dnswire.NewQuery(uint16(r.rng.Uint32()), name, typ).WithEDNS(4096, do)
		resp, err := r.Exchange.Exchange(addr, q)
		if err != nil {
			lastErr = err
			continue
		}
		if resp.Header.Rcode == dnswire.RcodeServFail || resp.Header.Rcode == dnswire.RcodeRefused {
			lastErr = fmt.Errorf("resolver: %s from %s", resp.Header.Rcode, addr)
			continue
		}
		return resp, nil
	}
	return nil, lastErr
}

// referral extracts the NS RRset and delegated zone from a referral.
func referral(m *dnswire.Message) ([]dnswire.RR, dnswire.Name) {
	var nsset []dnswire.RR
	var zoneName dnswire.Name
	for _, rr := range m.Authority {
		if rr.Type() == dnswire.TypeNS {
			nsset = append(nsset, rr)
			zoneName = rr.Name
		}
	}
	return nsset, zoneName
}

// glueServers maps the referral's NS targets to addresses via the
// additional section.
func glueServers(m *dnswire.Message, nsset []dnswire.RR, v6 bool) []netip.Addr {
	want := make(map[dnswire.Name]bool, len(nsset))
	for _, rr := range nsset {
		if ns, ok := rr.Data.(dnswire.NSRecord); ok {
			want[ns.Host.Canonical()] = true
		}
	}
	var out []netip.Addr
	for _, rr := range m.Additional {
		if !want[rr.Name.Canonical()] {
			continue
		}
		switch d := rr.Data.(type) {
		case dnswire.ARecord:
			if !v6 {
				out = append(out, d.Addr)
			}
		case dnswire.AAAARecord:
			if v6 {
				out = append(out, d.Addr)
			}
		}
	}
	return out
}

// filterAnswers keeps records matching the query type (plus RRSIGs covering
// it) in answer order.
func filterAnswers(answers []dnswire.RR, typ dnswire.Type) []dnswire.RR {
	var out []dnswire.RR
	for _, rr := range answers {
		if rr.Type() == typ || typ == dnswire.TypeANY {
			out = append(out, rr)
			continue
		}
		if sig, ok := rr.Data.(dnswire.RRSIGRecord); ok && sig.TypeCovered == typ {
			out = append(out, rr)
		}
	}
	return out
}
