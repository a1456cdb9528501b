package dnsserver

import (
	"bytes"
	"sort"
	"sync/atomic"

	"repro/internal/dnswire"
	"repro/internal/zone"
)

// Compiled answers. Every query the fast parser accepts is answered from raw
// bytes in four steps:
//
//	index    fold the question name into a search key and descend the zone's
//	         owner index (zone.Index.Resolve): exact node, enclosing
//	         delegation, denying NSEC — O(log n), no decode.
//	classify map (zone, node, query type, EDNS/DO) onto one slot of the
//	         answer table. What the oracle would answer is a function of
//	         the slot alone.
//	stitch   header + the client's own question bytes + the slot's compiled
//	         body, with the body's compression pointers moved by the
//	         difference in question length; truncation to the size limit is
//	         decided here.
//	oracle   a slot is compiled on first touch by running handleState and a
//	         traced pack on the very query that touched it, so compiled ==
//	         computed by construction and nothing is built for answers no
//	         one asks for.
//
// One slot can need more than one body, because the packer compresses body
// names against the question case-sensitively: "www.com." lets the referral
// point at the question's "com.", "www.CoM." makes it spell "com." out, and
// "ns1.com." is itself a name in the body. What decides is the longest
// suffix of the question name that is also, byte for byte, a suffix of a
// name in the body; a slot keeps one variant per such suffix (its traps),
// each compiled by the first query to need it.

// foldedName is one question name prepared for classification.
type foldedName struct {
	n      int        // labels
	starts [128]uint8 // offset of each label within the wire name, left to right
	keyLen int
	key    [dnswire.MaxNameLen]byte // zone.AppendKey form: labels right to left, lowercased
}

// fold fills fn from the uncompressed wire name (as validated by
// parseQueryShape), root octet included.
//
//rootlint:hotpath
func (fn *foldedName) fold(name []byte) {
	fn.n = 0
	for off := 0; name[off] != 0; off += 1 + int(name[off]) {
		fn.starts[fn.n] = uint8(off)
		fn.n++
	}
	k := 0
	for i := fn.n - 1; i >= 0; i-- {
		off := int(fn.starts[i])
		l := int(name[off])
		fn.key[k] = byte(l)
		for _, c := range name[off+1 : off+1+l] {
			k++
			if 'A' <= c && c <= 'Z' {
				c += 'a' - 'A'
			}
			fn.key[k] = c
		}
		k++
	}
	fn.keyLen = k
}

// answer is one compiled response: everything after the ID, lifted off the
// question it was packed behind.
type answer struct {
	head [10]byte // header octets 2..11: flags and the four section counts
	body []byte   // the sections after the question
	ptrs []uint16 // offsets within body of its compression pointers
	qEnd int      // end of the probe's question: pointers move by (new qEnd - this)
}

// stitch appends the response to the query pkt (question ending at qEnd) to
// dst: a TC stub when the whole would exceed limit.
//
//rootlint:hotpath
func (a *answer) stitch(dst, pkt []byte, qEnd, limit int) []byte {
	base := len(dst)
	dst = append(dst, pkt[0], pkt[1])
	dst = append(dst, a.head[:]...)
	dst = append(dst, pkt[udpHeaderLen:qEnd]...)
	if qEnd+len(a.body) > limit {
		dst[base+2] |= 0x02 // TC; the answer's other flags and rcode stand
		clear(dst[base+6 : base+udpHeaderLen])
		return dst
	}
	dst = append(dst, a.body...)
	if delta := qEnd - a.qEnd; delta != 0 {
		body := dst[base+qEnd:]
		for _, p := range a.ptrs {
			v := uint16(body[p])<<8 | uint16(body[p+1])
			v += uint16(delta) // stays inside the 14 offset bits: see compile
			body[p], body[p+1] = byte(v>>8), byte(v)
		}
	}
	return dst
}

// slot is one cell of the answer table.
type slot struct {
	// traps holds the name suffixes of the slot's body that a question name
	// could match byte for byte, longest first, fixed when the slot is made.
	// Each is stored as its label count, its length, and its uncompressed
	// wire form.
	//rootlint:immutable-after-start
	traps []byte
	// variants[i] answers questions whose longest trapped suffix is the i-th
	// trap, counting from 1; variants[0], those that match none. Filled on
	// first touch.
	variants []atomic.Pointer[answer]
}

// variant picks the variant index for the wire name.
//
//rootlint:hotpath
func (sl *slot) variant(name []byte, fn *foldedName) int {
	i := 1
	for t := sl.traps; len(t) > 0; i++ {
		labels, wire := int(t[0]), t[2:2+int(t[1])]
		if labels <= fn.n && bytes.Equal(name[fn.starts[fn.n-labels]:], wire) {
			return i
		}
		t = t[2+len(wire):]
	}
	return 0
}

// Per-node slots. A node that is a delegation only ever uses slotReferral,
// for every name at or below it; the node owning the NSEC that denies a
// span uses slotNXDomain for every name in the span.
const (
	slotReferral = iota
	slotNXDomain
	slotNoData // the name exists, the type does not
	slotANY
	slotTypes // + index into zone.Index.Types of the node
)

// Server-wide slots: one REFUSED, and the four CHAOS identity names.
const (
	slotRefused = iota
	slotChaos   // + index into chaosNames
	globalSlots = slotChaos + 4
)

// ednsVariants counts what of the query's OPT record reaches the answer:
// none, present, present with DO. (The advertised size only moves the
// truncation limit, applied at stitch time.)
const ednsVariants = 3

// chaosNames are the identity names of answerChaos, as search keys.
var chaosNames = [4][]byte{
	zone.AppendKey(nil, "hostname.bind."),
	zone.AppendKey(nil, "id.server."),
	zone.AppendKey(nil, "version.bind."),
	zone.AppendKey(nil, "version.server."),
}

// nodeSlots is the slot row of one zone node, made on first touch.
type nodeSlots []atomic.Pointer[slot]

// zoneAnswers is the part of the table over one zone.
type zoneAnswers struct {
	//rootlint:immutable-after-start
	ix *zone.Index
	// nodes[i] is the row of the index's i-th owner; the extra last row holds
	// the NXDOMAIN of a zone without NSEC.
	nodes []atomic.Pointer[nodeSlots]
}

// answerTable holds a serveState's compiled answers. Its size is bounded by
// the zones' answer space, not by traffic: rows and slots exist per node and
// type, variants per name in a body.
type answerTable struct {
	//rootlint:immutable-after-start
	zones  []zoneAnswers // the primary zone, then Config.ExtraZones
	global [globalSlots * ednsVariants]atomic.Pointer[slot]
}

// table returns st's answer table, building the (empty) table and the zone
// indexes under it on first use.
func (s *Server) table(st *serveState) *answerTable {
	if t := st.answers.Load(); t != nil {
		return t
	}
	st.answers.CompareAndSwap(nil, newAnswerTable(st.zone, s.cfg.ExtraZones))
	return st.answers.Load()
}

func newAnswerTable(primary *zone.Zone, extra []*zone.Zone) *answerTable {
	t := &answerTable{zones: make([]zoneAnswers, 0, 1+len(extra))}
	for _, z := range append([]*zone.Zone{primary}, extra...) {
		if z != nil {
			ix := z.Index()
			t.zones = append(t.zones, zoneAnswers{ix: ix, nodes: make([]atomic.Pointer[nodeSlots], ix.Len()+1)})
		}
	}
	return t
}

// classify maps a query onto its cell of the table, following answerINET
// and answerChaos decision for decision.
//
//rootlint:hotpath
func (s *Server) classify(t *answerTable, fn *foldedName, qtype dnswire.Type, qclass dnswire.Class, edns int) *atomic.Pointer[slot] {
	key := fn.key[:fn.keyLen]
	switch {
	case qclass == dnswire.ClassCHAOS && qtype == dnswire.TypeTXT:
		for i, name := range chaosNames {
			if bytes.Equal(key, name) {
				return &t.global[(slotChaos+i)*ednsVariants+edns]
			}
		}
	case qclass == dnswire.ClassINET && qtype != dnswire.TypeAXFR:
		// zoneFor: the zone with the longest apex the name falls under.
		var za zoneAnswers
		for _, z := range t.zones {
			if apex := z.ix.ApexKey(); bytes.HasPrefix(key, apex) && (za.ix == nil || len(apex) > len(za.ix.ApexKey())) {
				za = z
			}
		}
		if za.ix == nil {
			break
		}
		node, exact, cut := za.ix.Resolve(key)
		sl := slotNoData
		switch {
		case cut >= 0:
			node, sl = cut, slotReferral
		case !exact:
			sl = slotNXDomain
			if node = za.ix.Denial(node); node < 0 {
				node = za.ix.Len()
			}
		case qtype == dnswire.TypeANY:
			sl = slotANY
		default:
			for i, have := range za.ix.Types(node) {
				if have == qtype {
					sl = slotTypes + i
				}
			}
		}
		row := za.nodes[node].Load()
		if row == nil {
			types := 0
			if node < za.ix.Len() {
				types = len(za.ix.Types(node))
			}
			fresh := make(nodeSlots, (slotTypes+types)*ednsVariants)
			za.nodes[node].CompareAndSwap(nil, &fresh)
			row = za.nodes[node].Load()
		}
		return &(*row)[sl*ednsVariants+edns]
	}
	return &t.global[slotRefused*ednsVariants+edns]
}

// answerCompiled appends the response to the fast-parsed query pkt to dst,
// compiling its slot or variant first if this is the first query to touch
// it. It returns dst unchanged if the oracle refuses to answer.
//
//rootlint:hotpath
func (s *Server) answerCompiled(st *serveState, shard int, fn *foldedName, dst, pkt []byte, sh queryShape, limit int) []byte {
	mCacheHits.ShardInc(shard)
	name := pkt[udpHeaderLen : sh.qEnd-4]
	fn.fold(name)
	edns := 0
	if sh.hasEDNS {
		edns = 1
		if sh.do {
			edns = 2
		}
	}
	cell := s.classify(s.table(st), fn, sh.qtype, sh.qclass, edns)
	if sl := cell.Load(); sl != nil {
		if a := sl.variants[sl.variant(name, fn)].Load(); a != nil {
			mQueries.ShardInc(shard)
			return a.stitch(dst, pkt, sh.qEnd, limit)
		}
	}
	a := s.compile(st, cell, fn, pkt, sh)
	if a == nil {
		return dst
	}
	return a.stitch(dst, pkt, sh.qEnd, limit)
}

// compile runs the oracle on pkt, the first query to need this variant of
// the cell, and files the answer for the queries that follow.
func (s *Server) compile(st *serveState, cell *atomic.Pointer[slot], fn *foldedName, pkt []byte, sh queryShape) *answer {
	query, err := dnswire.Unpack(pkt)
	if err != nil {
		return nil
	}
	resp := s.handleState(st, query)
	if resp == nil {
		return nil
	}
	var tr dnswire.PackTrace
	wire, err := resp.AppendPackTraced(nil, &tr)
	if err != nil {
		return nil
	}
	// A campaign keeps a table per zone version: hold the body at its size.
	a := &answer{body: bytes.Clone(wire[sh.qEnd:]), ptrs: make([]uint16, len(tr.Pointers)), qEnd: sh.qEnd}
	copy(a.head[:], wire[2:udpHeaderLen])
	for i, p := range tr.Pointers {
		a.ptrs[i] = uint16(p - sh.qEnd)
	}
	// The packer records and points at names only below offset 0x4000. An
	// answer that could reach it behind a longer question would pack
	// differently there: serve it as computed and leave the cell to the
	// oracle.
	if len(wire)+dnswire.MaxNameLen >= 0x4000 {
		return a
	}
	sl := cell.Load()
	if sl == nil {
		sl = newSlot(tr.Suffixes, query.Questions[0])
		if !cell.CompareAndSwap(nil, sl) {
			sl = cell.Load()
		}
	}
	sl.variants[sl.variant(pkt[udpHeaderLen:sh.qEnd-4], fn)].CompareAndSwap(nil, a)
	return a
}

// newSlot makes a slot whose traps are the suffixes the traced pack offered
// for compression, closed under taking parents (the packer stops walking a
// name at its first match, but every shorter suffix of a body name is one a
// question can match too). A CHAOS answer is owned by the question name
// itself, in the client's spelling, so its only pointer targets the whole
// name for every spelling: it takes no traps and a single variant.
func newSlot(suffixes []dnswire.Name, q dnswire.Question) *slot {
	var names []dnswire.Name
	if q.Class != dnswire.ClassCHAOS {
		seen := make(map[dnswire.Name]bool, len(suffixes))
		for _, name := range suffixes {
			for ; !name.IsRoot() && !seen[name]; name = name.Parent() {
				seen[name] = true
				names = append(names, name)
			}
		}
		// Longest first, so that the first match is the longest.
		sort.SliceStable(names, func(i, j int) bool { return len(names[i].Labels()) > len(names[j].Labels()) })
	}
	var traps []byte
	for _, name := range names {
		labels := name.Labels()
		traps = append(traps, byte(len(labels)), byte(len(name)+1))
		for _, label := range labels {
			traps = append(append(traps, byte(len(label))), label...)
		}
		traps = append(traps, 0)
	}
	return &slot{traps: bytes.Clone(traps), variants: make([]atomic.Pointer[answer], 1+len(names))}
}
