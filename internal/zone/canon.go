package zone

import (
	"bytes"
	"cmp"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/dnswire"
)

// canonState is the lazily built canonical-form sidecar of a Zone. It caches,
// per record, the RFC 4034 §6.2 canonical wire form (at the record's own TTL)
// and, per zone, the canonical permutation and its RRset grouping, so that
// signing, ZONEMD digesting, full validation, and AXFR size estimation all
// share one encode instead of re-deriving it.
//
// The sidecar follows the zone through the edits signing makes (DESIGN.md
// §8): Add leaves it covering the records it covered and the next reader
// encodes, sorts and merges in only the ones past them; WithoutType filters
// it; BumpSerial and CloneCOW copy it; Canonicalize permutes it.
//
// Thread safety: a zone served by the campaign engine is read by many workers
// at once. The sidecar pointer is installed with a CAS; wires and ordering
// are built under mu with done flags checked lock-free on the fast path;
// signature verdicts are plain atomics so concurrent validators can share
// them without serializing.
type canonState struct {
	mu        sync.Mutex
	wiresDone atomic.Bool
	orderDone atomic.Bool

	// wire[i] is Records[i] in canonical form at its own TTL; rd[i] is the
	// offset of the RDATA octets within wire[i]. They cover the first
	// len(wire) records — all of them once wiresDone. Each zone has its own
	// (clones copy them), and a slot is immutable once published (mutation
	// replaces it wholesale under mu). Lock-free reads behind the wiresDone
	// flag carry per-site allows: the atomic flag's store-release/load-acquire
	// pair publishes the slices.
	//rootlint:guardedby mu
	wire [][]byte
	//rootlint:guardedby mu
	rd []int

	// order is the canonical permutation of the first len(order) record
	// indices (what a stable sort by canonical owner, class, type, then RDATA
	// octets gives); groups partitions order into RRset runs. Both are
	// replaced when records are added or one is mutated, never edited in
	// place, so clones may share them. Same lock-free read discipline as
	// wire, behind orderDone.
	//rootlint:guardedby mu
	order []int
	//rootlint:guardedby mu
	groups [][]int

	// sigOK[i] == 1 records that the RRSIG at Records[i] cryptographically
	// verified against the zone's DNSKEY RRset. Only positive verdicts are
	// cached: bogus signatures must re-verify so callers get exact error
	// detail, and they only occur on (rare) fault-injected zones. Accessed
	// atomically. judged is set with the first of them, so that editing a
	// zone nobody has validated does not go looking for verdicts to clear.
	//rootlint:atomic
	sigOK  []uint32
	judged atomic.Bool

	// index is the owner-name index over order and groups (see index.go),
	// built on first use and dropped whenever they are.
	index atomic.Pointer[Index]
}

// state returns the sidecar, installing an empty one on first use.
func (z *Zone) state() *canonState {
	if cs := z.canon.Load(); cs != nil {
		return cs
	}
	cs := &canonState{}
	if z.canon.CompareAndSwap(nil, cs) {
		return cs
	}
	return z.canon.Load()
}

// ensureWires encodes the canonical wire of every record the sidecar does not
// cover yet — all of them the first time, the ones Add appended after that;
// the fast path is a single atomic load, shared by every digest, signing, and
// AXFR size estimate over the zone.
//
//rootlint:hotpath
func (cs *canonState) ensureWires(z *Zone) {
	if cs.wiresDone.Load() {
		return
	}
	cs.mu.Lock()
	defer cs.mu.Unlock()
	if cs.wiresDone.Load() {
		return
	}
	n, m := len(z.Records), len(cs.wire)
	wire, rd := slices.Grow(cs.wire, n-m), slices.Grow(cs.rd, n-m)
	for _, rr := range z.Records[m:] {
		w, off := dnswire.CanonicalRR(rr, rr.TTL)
		wire, rd = append(wire, w), append(rd, off)
	}
	cs.wire, cs.rd = wire, rd
	//rootlint:allow lockcheck: the slice grows under mu before wiresDone publishes it, on a zone still being built: no concurrent element access can exist yet
	cs.sigOK = append(cs.sigOK, make([]uint32, n-m)...)
	cs.wiresDone.Store(true)
}

// compareRecords orders records ia and ib canonically: dnswire.CanonicalRRLess's
// order, tie-breaking on the cached RDATA octets instead of re-encoding.
func compareRecords(recs []dnswire.RR, wire [][]byte, rd []int, ia, ib int) int {
	ra, rb := recs[ia], recs[ib]
	if c := dnswire.CompareCanonical(ra.Name, rb.Name); c != 0 {
		return c
	}
	if c := cmp.Compare(ra.Class, rb.Class); c != 0 {
		return c
	}
	if c := cmp.Compare(ra.Type(), rb.Type()); c != 0 {
		return c
	}
	return bytes.Compare(wire[ia][rd[ia]:], wire[ib][rd[ib]:])
}

// ensureOrder brings the canonical permutation and RRset grouping up to the
// records: the ones order does not cover yet are stable-sorted among
// themselves and merged into it, equal keys keeping the covered (lower)
// index first. That is the permutation a stable sort of all of them gives —
// it has to be, ZONEMD's duplicate suppression reads adjacent wires — and the
// first build is the case where order covers nothing. The steady-state cost
// is one atomic load.
//
//rootlint:hotpath
func (cs *canonState) ensureOrder(z *Zone) {
	cs.ensureWires(z)
	if cs.orderDone.Load() {
		return
	}
	cs.mu.Lock()
	defer cs.mu.Unlock()
	if cs.orderDone.Load() {
		return
	}
	n, old := len(z.Records), cs.order
	added := make([]int, n-len(old))
	for i := range added {
		added[i] = len(old) + i
	}
	wire, rd := cs.wire, cs.rd
	//rootlint:allow hotpath: build path behind the orderDone flag; the comparator closure is made once per batch of added records
	compare := func(a, b int) int { return compareRecords(z.Records, wire, rd, a, b) }
	slices.SortStableFunc(added, compare)
	order := added
	if len(old) > 0 {
		order = make([]int, 0, n)
		for len(old) > 0 && len(added) > 0 {
			if compare(added[0], old[0]) < 0 {
				order, added = append(order, added[0]), added[1:]
			} else {
				order, old = append(order, old[0]), old[1:]
			}
		}
		order = append(append(order, old...), added...)
	}
	cs.order, cs.groups = order, rrsetRuns(z.Records, order)
	cs.orderDone.Store(true)
}

// rrsetRuns cuts a canonical permutation of recs into its RRsets: the runs of
// one (canonical owner, class, type).
func rrsetRuns(recs []dnswire.RR, order []int) [][]int {
	var groups [][]int
	for i, n := 0, len(order); i < n; {
		j := i + 1
		ri := recs[order[i]]
		for j < n {
			rj := recs[order[j]]
			if dnswire.CompareCanonical(ri.Name, rj.Name) != 0 ||
				ri.Class != rj.Class || ri.Type() != rj.Type() {
				break
			}
			j++
		}
		groups = append(groups, order[i:j:j])
		i = j
	}
	return groups
}

// CanonicalWire returns the canonical wire form (RFC 4034 §6.2) of
// z.Records[i] at its own TTL. The returned slice is shared and must not be
// modified.
func (z *Zone) CanonicalWire(i int) []byte {
	cs := z.state()
	cs.ensureWires(z)
	//rootlint:allow lockcheck: lock-free read after ensureWires observed wiresDone; the atomic flag publishes the immutable slice
	return cs.wire[i]
}

// CanonicalOrder returns the indices of z.Records in canonical order (owner,
// class, type, RDATA). The slice is shared and must not be modified.
func (z *Zone) CanonicalOrder() []int {
	cs := z.state()
	cs.ensureOrder(z)
	//rootlint:allow lockcheck: lock-free read after ensureOrder observed orderDone; the atomic flag publishes the immutable permutation
	return cs.order
}

// RRsetIndices partitions CanonicalOrder into RRsets: each group holds the
// indices of one (canonical owner, class, type) set, canonically ordered
// within, and groups appear in canonical order. Shared; must not be modified.
func (z *Zone) RRsetIndices() [][]int {
	cs := z.state()
	cs.ensureOrder(z)
	//rootlint:allow lockcheck: lock-free read after ensureOrder observed orderDone; the atomic flag publishes the immutable grouping
	return cs.groups
}

// SigVerdict reports whether the RRSIG at z.Records[i] has previously been
// cryptographically verified as good against the zone's DNSKEY RRset.
// Temporal (inception/expiration) checks are per-validation-time and are
// never cached.
func (z *Zone) SigVerdict(i int) bool {
	cs := z.state()
	cs.ensureWires(z)
	return atomic.LoadUint32(&cs.sigOK[i]) == 1
}

// SetSigVerdict records a signature verification outcome for z.Records[i].
// Only positive verdicts are stored (see canonState.sigOK).
func (z *Zone) SetSigVerdict(i int, ok bool) {
	if !ok {
		return
	}
	cs := z.state()
	cs.ensureWires(z)
	cs.judged.Store(true)
	atomic.StoreUint32(&cs.sigOK[i], 1)
}

// forgetVerdicts clears the cached verdicts that a record of type typ coming
// to, leaving or changing at owner (in canonical spelling) could falsify:
// every one when it is a DNSKEY — the key set feeds every verification —
// and otherwise those of the RRSIGs covering the RRset (owner, typ).
func (cs *canonState) forgetVerdicts(z *Zone, owner dnswire.Name, typ dnswire.Type) {
	if !cs.judged.Load() {
		return
	}
	//rootlint:allow lockcheck: reads only the slice header, which changes only while the zone is being built; elements are cleared atomically
	judged := z.Records[:len(cs.sigOK)]
	for j, rr := range judged {
		if typ != dnswire.TypeDNSKEY {
			sig, ok := rr.Data.(dnswire.RRSIGRecord)
			if !ok || sig.TypeCovered != typ || rr.Name.Canonical() != owner {
				continue
			}
		}
		atomic.StoreUint32(&cs.sigOK[j], 0)
	}
}

// MutateRecord applies fn to z.Records[i] and incrementally invalidates the
// sidecar: only the touched record's canonical form is re-encoded, and cached
// signature verdicts affected by the change are cleared. The cached
// permutation is dropped, because a flip can reorder the record among its
// siblings — unless it has none and kept its owner, class and type: an RRset
// of one record cannot move. This is what makes bitflip fault injection cheap
// on copy-on-write clones, and a serial bump free of any sort.
func (z *Zone) MutateRecord(i int, fn func(*dnswire.RR)) {
	cs := z.canon.Load()
	if cs == nil || !cs.wiresDone.Load() {
		//rootlint:allow lockcheck: documented mutation API; bitflip injection runs on an unshared clone
		fn(&z.Records[i])
		z.canon.Store(nil)
		return
	}
	cs.mu.Lock()
	defer cs.mu.Unlock()
	pre := z.Records[i]
	//rootlint:allow lockcheck: documented mutation API; bitflip injection runs on an unshared clone
	fn(&z.Records[i])
	post := z.Records[i]
	cs.wire[i], cs.rd[i] = dnswire.CanonicalRR(post, post.TTL)
	preName, postName := pre.Name.Canonical(), post.Name.Canonical()
	stays := cs.orderDone.Load() && preName == postName && pre.Class == post.Class && pre.Type() == post.Type() &&
		slices.ContainsFunc(cs.groups, func(g []int) bool { return len(g) == 1 && g[0] == i })
	if !stays {
		cs.orderDone.Store(false)
		cs.order, cs.groups = nil, nil
		cs.index.Store(nil)
	}
	atomic.StoreUint32(&cs.sigOK[i], 0)
	cs.forgetVerdicts(z, preName, pre.Type())
	cs.forgetVerdicts(z, postName, post.Type())
}

// CloneCOW returns a copy of z that shares the (immutable) cached canonical
// wire forms, permutation, and signature verdicts with the original. Records
// themselves are value-copied as in Clone; a subsequent MutateRecord on the
// clone re-encodes only the touched slot and never writes through to the
// parent. This replaces the deep Clone in the bitflip path: flipping one bit
// no longer pays a full re-canonicalization of the other ~thousands of RRs.
func (z *Zone) CloneCOW() *Zone {
	out := &Zone{Apex: z.Apex, Records: append([]dnswire.RR(nil), z.Records...)}
	cs := z.canon.Load()
	if cs == nil || !cs.wiresDone.Load() {
		return out
	}
	cs.mu.Lock()
	nc := &canonState{
		wire:  append([][]byte(nil), cs.wire...),
		rd:    append([]int(nil), cs.rd...),
		sigOK: make([]uint32, len(cs.sigOK)),
	}
	for j := range cs.sigOK {
		nc.sigOK[j] = atomic.LoadUint32(&cs.sigOK[j])
	}
	nc.judged.Store(cs.judged.Load())
	if cs.orderDone.Load() {
		nc.order, nc.groups = cs.order, cs.groups
		nc.orderDone.Store(true)
		nc.index.Store(cs.index.Load())
	}
	cs.mu.Unlock()
	nc.wiresDone.Store(true)
	out.canon.Store(nc)
	return out
}
