// Package zone models DNS zones: ordered collections of resource records
// with RRset grouping, master-file parsing and printing, canonical ordering,
// and synthesis of a realistic root zone (TLD delegations with glue) for the
// study's authoritative servers.
package zone

import (
	"fmt"
	"strings"
	"sync/atomic"

	"repro/internal/dnswire"
)

// Zone is a collection of resource records for one apex. Records are kept in
// insertion order; Canonicalize sorts them into RFC 4034 §6 canonical order.
//
// Zones carry a lazily built canonical-form sidecar (see canon.go) caching
// each record's canonical wire form, the canonical ordering, and signature
// verdicts. Mutate Records only through Add, MutateRecord, or the copy
// constructors, so the sidecar stays coherent.
type Zone struct {
	//rootlint:immutable-after-start
	Apex dnswire.Name
	// Records is frozen before a zone is shared: the campaign builds or
	// clones a zone single-goroutine, then publishes it. The mutation API
	// (Add, Canonicalize, MutateRecord) carries per-site allows below.
	//rootlint:immutable-after-start
	Records []dnswire.RR

	canon atomic.Pointer[canonState]
}

// New returns an empty zone rooted at apex.
func New(apex dnswire.Name) *Zone {
	return &Zone{Apex: apex}
}

// Add appends records to the zone. A built sidecar is kept: it goes on
// covering the records it covered, and its next reader encodes, sorts and
// merges in the appended ones (canon.go) — lazily, not here, because builders
// add one record at a time and a merge per call would be quadratic. What the
// new records can falsify is forgotten now: the owner index, and the cached
// verdicts of the signatures over the RRsets they join.
func (z *Zone) Add(rrs ...dnswire.RR) {
	//rootlint:allow lockcheck: documented mutation API; zones are built single-goroutine and frozen before they are shared
	z.Records = append(z.Records, rrs...)
	cs := z.canon.Load()
	if cs == nil {
		return
	}
	cs.wiresDone.Store(false)
	cs.orderDone.Store(false)
	cs.index.Store(nil)
	for _, rr := range rrs {
		cs.forgetVerdicts(z, rr.Name.Canonical(), rr.Type())
	}
}

// SOA returns the zone's SOA record. The second return is false when the
// zone has none (an invalid zone; AXFR consumers treat it as an error). It
// scans rather than consult the index: the apex SOA sits among the first
// records in insertion and in canonical order alike, and callers such as
// dnsserver.New must not pay for an index they may never query.
func (z *Zone) SOA() (dnswire.RR, bool) {
	for _, rr := range z.Records {
		if rr.Type() == dnswire.TypeSOA && rr.Name.Canonical() == z.Apex.Canonical() {
			return rr, true
		}
	}
	return dnswire.RR{}, false
}

// Serial returns the zone's SOA serial, or 0 when the zone has no SOA.
func (z *Zone) Serial() uint32 {
	soa, ok := z.SOA()
	if !ok {
		return 0
	}
	return soa.Data.(dnswire.SOARecord).Serial
}

// Glue returns the A and AAAA records for host if present in the zone.
func (z *Zone) Glue(host dnswire.Name) []dnswire.RR {
	glue := z.Lookup(host, dnswire.TypeA)
	return append(glue, z.Lookup(host, dnswire.TypeAAAA)...)
}

// Canonicalize sorts the records into canonical order (owner name, class,
// type, RDATA) and returns z for chaining. The cached canonical wire forms
// survive the sort: the sidecar's permutation is applied to records and
// cache slots together, so a Sign → Digest → AXFR pipeline encodes each
// record exactly once.
func (z *Zone) Canonicalize() *Zone {
	cs := z.state()
	cs.ensureOrder(z)
	cs.mu.Lock()
	defer cs.mu.Unlock()
	n := len(z.Records)
	recs := make([]dnswire.RR, n)
	wire := make([][]byte, n)
	rd := make([]int, n)
	sig := make([]uint32, n)
	for newI, oldI := range cs.order {
		recs[newI] = z.Records[oldI]
		wire[newI] = cs.wire[oldI]
		rd[newI] = cs.rd[oldI]
		sig[newI] = atomic.LoadUint32(&cs.sigOK[oldI])
	}
	//rootlint:allow lockcheck: documented mutation API; Canonicalize runs before the zone is shared
	z.Records = recs
	//rootlint:allow lockcheck: sigOK is replaced wholesale under mu while no concurrent reader exists (pre-publication, same contract as Records)
	cs.wire, cs.rd, cs.sigOK = wire, rd, sig
	// Records are now in canonical order: the permutation becomes the
	// identity and groups become contiguous runs. Build fresh slices — the
	// old ones may be shared with clones.
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	groups := make([][]int, len(cs.groups))
	p := 0
	for gi, g := range cs.groups {
		groups[gi] = order[p : p+len(g) : p+len(g)]
		p += len(g)
	}
	cs.order, cs.groups = order, groups
	cs.index.Store(nil)
	return z
}

// Clone returns a deep-enough copy: the record slice is copied; RData values
// are immutable by convention and shared.
//
//rootlint:allow deadcode: bench/layers.go validates a fresh copy per dnssec.validate_us iteration
func (z *Zone) Clone() *Zone {
	return &Zone{Apex: z.Apex, Records: append([]dnswire.RR(nil), z.Records...)}
}

// WithoutType returns a copy of z with all records of type t removed. The
// copy's sidecar is z's, filtered: the surviving records keep their wires and
// their relative canonical order, so nothing is encoded or sorted again.
// Verdicts are not carried: a removed RRset may have been what they were
// verdicts on.
func (z *Zone) WithoutType(t dnswire.Type) *Zone {
	cs := z.state()
	cs.ensureOrder(z)
	cs.mu.Lock()
	defer cs.mu.Unlock()
	n := len(z.Records)
	recs, wire, rd := make([]dnswire.RR, 0, n), make([][]byte, 0, n), make([]int, 0, n)
	moved := make([]int, n) // where each surviving record went
	for i, rr := range z.Records {
		if rr.Type() != t {
			moved[i] = len(recs)
			recs, wire, rd = append(recs, rr), append(wire, cs.wire[i]), append(rd, cs.rd[i])
		}
	}
	order := make([]int, 0, len(recs))
	for _, i := range cs.order {
		if z.Records[i].Type() != t {
			order = append(order, moved[i])
		}
	}
	out := &Zone{Apex: z.Apex, Records: recs}
	nc := &canonState{wire: wire, rd: rd, order: order, groups: rrsetRuns(recs, order), sigOK: make([]uint32, len(recs))}
	nc.wiresDone.Store(true)
	nc.orderDone.Store(true)
	out.canon.Store(nc)
	return out
}

// BumpSerial returns a copy of z with the SOA serial replaced. The copy
// carries z's sidecar (built here if z has none yet, once for every serial
// bumped off it): only the SOA's wire is encoded again, and the canonical
// order is shared, a serial being unable to move an RRset of one record.
func (z *Zone) BumpSerial(serial uint32) *Zone {
	z.state().ensureOrder(z)
	out := z.CloneCOW()
	for i, rr := range out.Records {
		if soa, ok := rr.Data.(dnswire.SOARecord); ok {
			soa.Serial = serial
			out.MutateRecord(i, func(rr *dnswire.RR) { rr.Data = soa })
		}
	}
	return out
}

// String renders the zone in master-file format.
func (z *Zone) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "; zone %s, serial %d, %d records\n", z.Apex, z.Serial(), len(z.Records))
	for _, rr := range z.Records {
		sb.WriteString(rr.String())
		sb.WriteByte('\n')
	}
	return sb.String()
}

// SerialCompare compares two SOA serials using RFC 1982 serial-number
// arithmetic: it returns -1, 0, or 1 when a precedes, equals, or follows b.
func SerialCompare(a, b uint32) int {
	if a == b {
		return 0
	}
	if (a < b && b-a < 1<<31) || (a > b && a-b > 1<<31) {
		return -1
	}
	return 1
}

// SerialForDate returns the conventional YYYYMMDDNN root-zone serial.
func SerialForDate(year, month, day, rev int) uint32 {
	return uint32(year*1000000 + month*10000 + day*100 + rev)
}
