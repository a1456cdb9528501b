// Package netem is a deterministic adverse-network layer: it sits at the
// socket boundary (in front of a UDP read/write loop, or wrapped around a
// TCP net.Conn) and injects loss, duplication, reordering, corruption,
// delay, and blackholing per a seedable Profile. Every fate decision is a
// pure function of (profile seed, flow key, per-flow packet index,
// direction), computed with the repo's seeded.Mix generator — no wall
// clock, no global rand — so two runs with the same seed and the same
// offered per-flow packet sequence make byte-identical decisions, and the
// serve path's logical telemetry stays comparable across worker counts.
//
// The unit of determinism is the flow. A flow key should identify the
// stable party of a conversation (client IP for UDP serving — never the
// ephemeral port, which varies run to run; an accept counter for TCP), and
// packets within one flow must be admitted serially (true for UDP shards,
// where SO_REUSEPORT pins a flow to one socket, and for TCP, where a
// connection is owned by one goroutine). Distinct flows may be admitted
// concurrently.
package netem

import (
	"net/netip"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/cli"
	"repro/internal/failpoint"
	"repro/internal/seeded"
)

// Dir distinguishes the two sides of the emulated link so ingress and
// egress of the same flow draw from independent decision streams.
type Dir uint8

const (
	// Ingress is traffic arriving at the wrapped endpoint (e.g. queries
	// read off a server socket).
	Ingress Dir = iota
	// Egress is traffic leaving the wrapped endpoint (e.g. responses about
	// to be written).
	Egress
)

// Profile describes the adversity applied to a link. Probabilities are in
// [0, 1] and evaluated per packet (Blackhole per flow, Cut per
// connection). The zero Profile injects nothing.
type Profile struct {
	// Loss drops a packet outright.
	Loss float64
	// Dup delivers a packet twice back to back.
	Dup float64
	// Reorder holds a packet back and releases it after the flow's next
	// packet, swapping their order. A held packet with no successor is
	// dropped when the link is discarded — a straggler that never arrived.
	Reorder float64
	// Corrupt flips one deterministic bit of the payload.
	Corrupt float64
	// Blackhole silently drops every packet of an affected flow, decided
	// once per flow — a stale anycast site that routes to nowhere.
	Blackhole float64
	// Cut closes an affected TCP connection after CutBytes written bytes,
	// decided once per wrapped connection.
	Cut float64
	// CutBytes bounds the bytes a cut connection passes before dying.
	// Zero means a deterministic per-connection value in [256, 4352).
	CutBytes int
	// Delay + jitter stall delivery of each packet; the jitter component
	// is a deterministic per-packet fraction of Jitter. Delay is wall
	// clock by necessity and is the only nondeterministic effect; keep it
	// zero in determinism tests.
	Delay  time.Duration
	Jitter time.Duration
	// Seed roots every decision stream.
	Seed uint64
}

// zero reports whether the profile injects nothing.
func (p Profile) zero() bool {
	return p.Loss == 0 && p.Dup == 0 && p.Reorder == 0 && p.Corrupt == 0 &&
		p.Blackhole == 0 && p.Cut == 0 && p.Delay == 0 && p.Jitter == 0
}

// Set parses the -netem flag syntax (Profile is a flag.Value): key=value
// terms as internal/cli walks them, e.g. "loss=0.1,dup=0.01,reorder=0.05,seed=7".
// Keys: loss, dup, reorder, corrupt, blackhole, cut (probabilities), cutbytes
// (int), delay, jitter (durations), seed (uint64). A spec replaces the whole
// profile, so an empty one is the zero profile.
func (p *Profile) Set(s string) error {
	*p = Profile{}
	probs := map[string]*float64{"loss": &p.Loss, "dup": &p.Dup, "reorder": &p.Reorder,
		"corrupt": &p.Corrupt, "blackhole": &p.Blackhole, "cut": &p.Cut}
	return cli.Walk(s, func(k, v string) (err error) {
		switch k {
		case "cutbytes":
			p.CutBytes, err = strconv.Atoi(v)
		case "delay":
			p.Delay, err = time.ParseDuration(v)
		case "jitter":
			p.Jitter, err = time.ParseDuration(v)
		case "seed":
			p.Seed, err = strconv.ParseUint(v, 10, 64)
		default:
			f := probs[k]
			if f == nil {
				return cli.Unknown(k, "loss, dup, reorder, corrupt, blackhole, cut, cutbytes, delay, jitter, seed")
			}
			*f, err = cli.Prob(v)
		}
		return err
	})
}

// String renders the profile in the syntax Set parses (only non-zero keys,
// and always the seed).
func (p Profile) String() string {
	var parts []string
	add := func(k string, f float64) {
		if f != 0 {
			parts = append(parts, k+"="+strconv.FormatFloat(f, 'g', -1, 64))
		}
	}
	add("loss", p.Loss)
	add("dup", p.Dup)
	add("reorder", p.Reorder)
	add("corrupt", p.Corrupt)
	add("blackhole", p.Blackhole)
	add("cut", p.Cut)
	if p.CutBytes != 0 {
		parts = append(parts, "cutbytes="+strconv.Itoa(p.CutBytes))
	}
	if p.Delay != 0 {
		parts = append(parts, "delay="+p.Delay.String())
	}
	if p.Jitter != 0 {
		parts = append(parts, "jitter="+p.Jitter.String())
	}
	parts = append(parts, "seed="+strconv.FormatUint(p.Seed, 10))
	return strings.Join(parts, ",")
}

// flowState is one flow's decision stream position and held packet.
type flowState struct {
	base  [2]uint64 // per-direction decision stream roots
	count [2]uint64 // packets admitted so far, per direction
	dead  bool      // blackholed flow
	held  [2][]byte // reorder hold slot, per direction
}

// Link applies a Profile to packets. A nil *Link admits everything
// unchanged, so callers keep a single unconditional code path.
type Link struct {
	//rootlint:immutable-after-start
	prof Profile

	mu sync.Mutex
	//rootlint:guardedby mu
	flows map[uint64]*flowState
	//rootlint:guardedby mu
	conns uint64 // wrapped-connection counter, for per-conn cut decisions
}

// direction salts: arbitrary odd constants separating decision streams.
const (
	saltIngress   = 0x7f4a7c15ca7b0e15
	saltEgress    = 0x2545f4914f6cdd1d
	saltBlackhole = 0x9e6d1ce4e5b97f4a
	saltCut       = 0x452821e638d01377
)

// NewLink builds a link for the profile. A zero profile returns nil: the
// nil link is the documented no-op, and callers can test `l == nil` to
// skip the layer entirely on hot paths.
func NewLink(p Profile) *Link {
	if p.zero() {
		return nil
	}
	return &Link{prof: p, flows: make(map[uint64]*flowState)}
}

// FlowAddr derives a flow key from the stable address of the peer. Only
// the IP participates: ephemeral source ports differ run to run and would
// break decision determinism.
func FlowAddr(addr netip.AddrPort) uint64 {
	ip := addr.Addr().Unmap()
	b := ip.As16()
	return seeded.FNV(seeded.FNVBasis, b[:])
}

// FlowID derives a flow key from a stable small-integer identity (a blast
// worker index, a TCP accept counter) — the client-side counterpart of
// FlowAddr for flows the caller already numbers deterministically.
func FlowID(n uint64) uint64 { return seeded.Mix(n ^ 0xda3e39cb94b95bdb) }

// state returns (creating if needed) the flow's state, deciding blackhole
// membership at creation. Caller holds l.mu.
func (l *Link) state(flow uint64) *flowState {
	st := l.flows[flow]
	if st == nil {
		st = &flowState{base: [2]uint64{
			seeded.Mix(l.prof.Seed ^ flow ^ saltIngress),
			seeded.Mix(l.prof.Seed ^ flow ^ saltEgress),
		}}
		if l.prof.Blackhole > 0 &&
			seeded.Unit(seeded.Mix(l.prof.Seed^flow^saltBlackhole)) < l.prof.Blackhole {
			st.dead = true
		}
		l.flows[flow] = st
	}
	return st
}

// Admit decides one packet's fate and returns the packets to deliver, in
// order. first may alias pkt (corrupted in place when the corrupt fate
// fires); second is non-nil only for a duplication (aliasing first) or a
// reorder release (a link-owned copy of the earlier held packet, valid
// until the flow's next Admit). A (nil, nil) return means the packet was
// dropped, blackholed, or held for reordering. Packets within one flow
// and direction must be admitted serially.
func (l *Link) Admit(dir Dir, flow uint64, pkt []byte) (first, second []byte) {
	if l == nil {
		return pkt, nil
	}
	if err := failpoint.Eval("netem/inject"); err != nil {
		// An injected chaos error is a forced drop: the chaos harness can
		// make any single packet vanish without probability arithmetic.
		mDrops.Inc()
		return nil, nil
	}
	l.mu.Lock()
	st := l.state(flow)
	if st.dead {
		st.count[dir]++
		l.mu.Unlock()
		mDrops.Inc()
		return nil, nil
	}
	idx := st.count[dir]
	st.count[dir]++
	// One hash per fate, all derived from the flow's stream root and the
	// packet's per-flow index, so fates are independent and replayable.
	h := seeded.Mix(st.base[dir] + idx*0x9e3779b97f4a7c15)
	hLoss, hDup, hReord, hCorr := h, seeded.Mix(h+1), seeded.Mix(h+2), seeded.Mix(h+3)
	// Copy the profile by value: taking &l.prof would leak an interior
	// pointer to immutable-after-start state past the critical section.
	p := l.prof
	if p.Loss > 0 && seeded.Unit(hLoss) < p.Loss {
		l.mu.Unlock()
		mDrops.Inc()
		return nil, nil
	}
	if p.Corrupt > 0 && seeded.Unit(hCorr) < p.Corrupt && len(pkt) > 0 {
		bit := seeded.Mix(hCorr) % uint64(len(pkt)*8)
		pkt[bit/8] ^= 1 << (bit % 8)
		mCorrupts.Inc()
	}
	if p.Reorder > 0 && seeded.Unit(hReord) < p.Reorder && st.held[dir] == nil {
		// Hold this packet; it rides out after the flow's next packet.
		st.held[dir] = append([]byte(nil), pkt...)
		l.mu.Unlock()
		return nil, nil
	}
	first = pkt
	if held := st.held[dir]; held != nil {
		st.held[dir] = nil
		second = held
		mReorders.Inc()
	} else if p.Dup > 0 && seeded.Unit(hDup) < p.Dup {
		second = pkt
		mDups.Inc()
	}
	l.mu.Unlock()
	if p.Delay > 0 || p.Jitter > 0 {
		d := p.Delay
		if p.Jitter > 0 {
			d += time.Duration(seeded.Unit(seeded.Mix(h+4)) * float64(p.Jitter))
		}
		time.Sleep(d)
	}
	return first, second
}
