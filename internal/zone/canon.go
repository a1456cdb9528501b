package zone

import (
	"bytes"
	"sort"
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
// Thread safety: a zone served by the campaign engine is read by many workers
// at once. The sidecar pointer is installed with a CAS; wires and ordering
// are built once under mu with done flags checked lock-free on the fast path;
// signature verdicts are plain atomics so concurrent validators can share
// them without serializing.
type canonState struct {
	mu        sync.Mutex
	wiresDone atomic.Bool
	orderDone atomic.Bool

	// wire[i] is Records[i] in canonical form at its own TTL; rd[i] is the
	// offset of the RDATA octets within wire[i]. Both are immutable once
	// published (mutation replaces the slot wholesale under mu). Lock-free
	// reads behind the wiresDone flag carry per-site allows: the atomic
	// flag's store-release/load-acquire pair publishes the slices.
	//rootlint:guardedby mu
	wire [][]byte
	//rootlint:guardedby mu
	rd []int

	// order is the canonical permutation of record indices (stable sort by
	// canonical owner, class, type, then RDATA octets); groups partitions
	// order into RRset runs. Both are rebuilt from scratch on invalidation,
	// never edited in place, so clones may share them. Same lock-free read
	// discipline as wire, behind orderDone.
	//rootlint:guardedby mu
	order []int
	//rootlint:guardedby mu
	groups [][]int

	// sigOK[i] == 1 records that the RRSIG at Records[i] cryptographically
	// verified against the zone's DNSKEY RRset. Only positive verdicts are
	// cached: bogus signatures must re-verify so callers get exact error
	// detail, and they only occur on (rare) fault-injected zones. Accessed
	// atomically.
	//rootlint:atomic
	sigOK []uint32

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

// ensureWires builds the per-record canonical wires once; after the first
// call the fast path is a single atomic load, shared by every digest,
// signing, and AXFR size estimate over the zone.
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
	n := len(z.Records)
	wire := make([][]byte, n)
	rd := make([]int, n)
	for i, rr := range z.Records {
		wire[i], rd[i] = dnswire.CanonicalRR(rr, rr.TTL)
	}
	cs.wire, cs.rd = wire, rd
	//rootlint:allow lockcheck: whole-slice install under mu before wiresDone publishes it; no concurrent element access can exist yet
	cs.sigOK = make([]uint32, n)
	cs.wiresDone.Store(true)
}

// ensureOrder derives the canonical permutation and RRset grouping once;
// the steady-state cost is one atomic load.
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
	n := len(z.Records)
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	// Same comparator as dnswire.CanonicalRRLess, but tie-breaking on the
	// cached RDATA octets instead of re-encoding; a stable sort of indices
	// therefore yields the identical permutation.
	//rootlint:allow hotpath: build-once path behind the orderDone flag; the sort closure escapes exactly once per zone
	sort.SliceStable(order, func(a, b int) bool {
		ia, ib := order[a], order[b]
		ra, rb := z.Records[ia], z.Records[ib]
		if c := dnswire.CompareCanonical(ra.Name, rb.Name); c != 0 {
			return c < 0
		}
		if ra.Class != rb.Class {
			return ra.Class < rb.Class
		}
		if ra.Type() != rb.Type() {
			return ra.Type() < rb.Type()
		}
		//rootlint:allow lockcheck: the sort closure runs synchronously inside ensureOrder's mu critical section
		return bytes.Compare(cs.wire[ia][cs.rd[ia]:], cs.wire[ib][cs.rd[ib]:]) < 0
	})
	var groups [][]int
	for i := 0; i < n; {
		j := i + 1
		ri := z.Records[order[i]]
		for j < n {
			rj := z.Records[order[j]]
			if dnswire.CompareCanonical(ri.Name, rj.Name) != 0 ||
				ri.Class != rj.Class || ri.Type() != rj.Type() {
				break
			}
			j++
		}
		groups = append(groups, order[i:j:j])
		i = j
	}
	cs.order, cs.groups = order, groups
	cs.orderDone.Store(true)
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
	atomic.StoreUint32(&cs.sigOK[i], 1)
}

// MutateRecord applies fn to z.Records[i] and incrementally invalidates the
// sidecar: only the touched record's canonical form is re-encoded, the cached
// permutation is dropped (a flip can reorder the record among its siblings),
// and cached signature verdicts affected by the change are cleared. This is
// what makes bitflip fault injection cheap on copy-on-write clones.
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
	cs.orderDone.Store(false)
	cs.order, cs.groups = nil, nil
	cs.index.Store(nil)

	preName, preType := pre.Name.Canonical(), pre.Type()
	postName, postType := post.Name.Canonical(), post.Type()
	if preType == dnswire.TypeDNSKEY || postType == dnswire.TypeDNSKEY {
		// The key set feeds every verification; drop all verdicts.
		//rootlint:allow lockcheck: range reads only the slice header, which is stable once wiresDone is set; elements are cleared atomically
		for j := range cs.sigOK {
			atomic.StoreUint32(&cs.sigOK[j], 0)
		}
		return
	}
	atomic.StoreUint32(&cs.sigOK[i], 0)
	for j, rr := range z.Records {
		sig, ok := rr.Data.(dnswire.RRSIGRecord)
		if !ok {
			continue
		}
		if (sig.TypeCovered == preType && rr.Name.Canonical() == preName) ||
			(sig.TypeCovered == postType && rr.Name.Canonical() == postName) {
			atomic.StoreUint32(&cs.sigOK[j], 0)
		}
	}
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
