package zone

import (
	"bytes"
	"sort"

	"repro/internal/dnswire"
)

// Index is the owner-name index of a zone: its distinct owners in canonical
// order, each with its RRsets, and the NSEC chain threaded through them.
// It answers in O(log n) the three questions an authoritative server asks
// of a name — does a node own it, which delegation is it under, and which
// NSEC denies it — for the decoded-name API (Lookup, Delegation,
// CoveringNSEC) and, through Resolve on a raw search key, for a server
// answering from packet bytes. It is built lazily on the canonical sidecar,
// is immutable, and is shared by copy-on-write clones. A campaign keeps one
// per zone version, so it is laid out flat: 16 bytes a node, 2 an RRset, and
// the keys.
type Index struct {
	// nodes holds one entry per owner, then a sentinel that closes the last
	// owner's spans.
	nodes []node
	keys  []byte         // the owners' search keys (see AppendKey), end to end
	types []dnswire.Type // the type of each of the sidecar's RRsets
	sets  [][]int        // the sidecar's RRsets: canonical order, so grouped by owner
	// lastNSEC is the canonically last node that owns an NSEC, the one whose
	// span wraps around to the apex; -1 in an unsigned zone.
	lastNSEC int
	apexKey  []byte
}

// node is one owner name. Its key and its RRsets run up to where the next
// node's begin.
type node struct {
	key  uint32 // offset of its search key in Index.keys
	set  int32  // index of its first RRset in Index.sets
	nsec int32  // nearest node at or before this one that owns an NSEC, or -1
	ns   bool   // owns an NS RRset
}

// AppendKey appends the index's search key for name to dst: the labels from
// the rightmost to the leftmost, ASCII-lowercased, each behind its length
// octet. Comparing two keys label by label is RFC 4034 §6.1 canonical
// order, and a name's ancestors are exactly the label prefixes of its key.
func AppendKey(dst []byte, name dnswire.Name) []byte {
	s := string(name)
	if len(s) > 0 && s[len(s)-1] == '.' {
		s = s[:len(s)-1]
	}
	for end := len(s); end > 0; {
		start := end
		for start > 0 && s[start-1] != '.' {
			start--
		}
		dst = append(dst, byte(end-start))
		for i := start; i < end; i++ {
			c := s[i]
			if 'A' <= c && c <= 'Z' {
				c += 'a' - 'A'
			}
			dst = append(dst, c)
		}
		end = start - 1
	}
	return dst
}

// compareKeys orders two search keys canonically.
//
//rootlint:hotpath
func compareKeys(a, b []byte) int {
	for len(a) > 0 && len(b) > 0 {
		la, lb := 1+int(a[0]), 1+int(b[0])
		if c := bytes.Compare(a[1:la], b[1:lb]); c != 0 {
			return c
		}
		a, b = a[la:], b[lb:]
	}
	return len(a) - len(b)
}

// Index returns the zone's owner-name index, building it on first use.
func (z *Zone) Index() *Index {
	cs := z.state()
	cs.ensureOrder(z)
	if ix := cs.index.Load(); ix != nil {
		return ix
	}
	cs.mu.Lock()
	defer cs.mu.Unlock()
	if ix := cs.index.Load(); ix != nil {
		return ix
	}
	ix := buildIndex(z, cs.groups)
	cs.index.Store(ix)
	return ix
}

// buildIndex folds the sidecar's canonically ordered RRsets into nodes.
func buildIndex(z *Zone, groups [][]int) *Index {
	ix := &Index{apexKey: AppendKey(nil, z.Apex), lastNSEC: -1, sets: groups}
	owners, keyBytes := 0, 0
	for g := range groups {
		if name := z.Records[groups[g][0]].Name; g == 0 || dnswire.CompareCanonical(z.Records[groups[g-1][0]].Name, name) != 0 {
			owners++
			keyBytes += len(name)
		}
	}
	ix.nodes = make([]node, 0, owners+1)
	ix.keys = make([]byte, 0, keyBytes)
	ix.types = make([]dnswire.Type, len(groups))
	for g := range groups {
		rr := z.Records[groups[g][0]]
		if g == 0 || dnswire.CompareCanonical(z.Records[groups[g-1][0]].Name, rr.Name) != 0 {
			ix.nodes = append(ix.nodes, node{key: uint32(len(ix.keys)), set: int32(g), nsec: int32(ix.lastNSEC)})
			ix.keys = AppendKey(ix.keys, rr.Name)
		}
		n := &ix.nodes[len(ix.nodes)-1]
		ix.types[g] = rr.Type()
		switch rr.Type() {
		case dnswire.TypeNS:
			n.ns = true
		case dnswire.TypeNSEC:
			ix.lastNSEC = len(ix.nodes) - 1
			n.nsec = int32(ix.lastNSEC)
		}
	}
	ix.nodes = append(ix.nodes, node{key: uint32(len(ix.keys)), set: int32(len(groups))})
	return ix
}

// Len reports the number of owner names.
func (ix *Index) Len() int { return len(ix.nodes) - 1 }

// Types lists the type of each RRset at the i-th owner in canonical order:
// ascending, and distinct in a zone of one class.
func (ix *Index) Types(i int) []dnswire.Type {
	return ix.types[ix.nodes[i].set:ix.nodes[i+1].set]
}

// ApexKey returns the search key of the zone apex.
func (ix *Index) ApexKey() []byte { return ix.apexKey }

// key returns the i-th owner's search key.
//
//rootlint:hotpath
func (ix *Index) key(i int) []byte { return ix.keys[ix.nodes[i].key:ix.nodes[i+1].key] }

// search returns the rank of key among the owners (how many sort before it)
// and whether a node owns it.
//
//rootlint:hotpath
func (ix *Index) search(key []byte) (pos int, exact bool) {
	lo, hi := 0, ix.Len()
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		switch c := compareKeys(ix.key(mid), key); {
		case c < 0:
			lo = mid + 1
		case c > 0:
			hi = mid
		default:
			return mid, true
		}
	}
	return lo, false
}

// Resolve locates the name with search key key: pos is its rank among the
// owners, exact reports that node pos owns it, and cut is the delegation it
// falls under — the deepest node strictly below the apex, at or above the
// name, that owns an NS RRset — or -1. One descent from the apex finds all
// three: each step searches one more label, and stops early once no owner
// exists at or below the ancestor reached, which leaves pos the rank of the
// full name because everything between an ancestor and its descendant is
// itself a descendant.
//
//rootlint:hotpath
func (ix *Index) Resolve(key []byte) (pos int, exact bool, cut int) {
	cut = -1
	end := len(ix.apexKey)
	if end == len(key) || !bytes.HasPrefix(key, ix.apexKey) {
		pos, exact = ix.search(key)
		return pos, exact, cut
	}
	for end < len(key) {
		end += 1 + int(key[end])
		pos, exact = ix.search(key[:end])
		if exact {
			if ix.nodes[pos].ns {
				cut = pos
			}
		} else if pos == ix.Len() || !bytes.HasPrefix(ix.key(pos), key[:end]) {
			break
		}
	}
	return pos, exact, cut
}

// Denial returns the node whose NSEC denies a nonexistent name of rank pos:
// the nearest NSEC owner before it in canonical order, wrapping around to
// the chain's last owner. It is -1 when the zone has no NSEC. On a
// well-formed chain that NSEC's span is the one covering the name.
//
//rootlint:hotpath
func (ix *Index) Denial(pos int) int {
	if pos > 0 && ix.nodes[pos-1].nsec >= 0 {
		return int(ix.nodes[pos-1].nsec)
	}
	return ix.lastNSEC
}

// find resolves a decoded name.
func (ix *Index) find(name dnswire.Name) (pos int, exact bool, cut int) {
	var buf [dnswire.MaxNameLen]byte
	return ix.Resolve(AppendKey(buf[:0], name))
}

// recordsOf returns node i's records of type typ (TypeANY: all) in
// insertion order.
func (z *Zone) recordsOf(ix *Index, i int, typ dnswire.Type) []dnswire.RR {
	var recs []int
	for g := ix.nodes[i].set; g < ix.nodes[i+1].set; g++ {
		if typ == dnswire.TypeANY || ix.types[g] == typ {
			recs = append(recs, ix.sets[g]...)
		}
	}
	if recs == nil {
		return nil
	}
	sort.Ints(recs)
	out := make([]dnswire.RR, len(recs))
	for k, r := range recs {
		out[k] = z.Records[r]
	}
	return out
}

// Lookup returns all records with the given owner name and type, in
// insertion order. Type dnswire.TypeANY matches every type.
func (z *Zone) Lookup(name dnswire.Name, typ dnswire.Type) []dnswire.RR {
	ix := z.Index()
	pos, exact, _ := ix.find(name)
	if !exact {
		return nil
	}
	return z.recordsOf(ix, pos, typ)
}

// Delegation returns the NS RRset delegating name: that of the deepest
// owner at or above name, below the apex, that has one. It implements the
// referral decision of an authoritative server.
func (z *Zone) Delegation(name dnswire.Name) []dnswire.RR {
	ix := z.Index()
	_, _, cut := ix.find(name)
	if cut < 0 {
		return nil
	}
	return z.recordsOf(ix, cut, dnswire.TypeNS)
}

// CoveringNSEC returns the NSEC record that denies the nonexistent name (see
// Index.Denial), or false when the zone has none.
func (z *Zone) CoveringNSEC(name dnswire.Name) (dnswire.RR, bool) {
	ix := z.Index()
	pos, _, _ := ix.find(name)
	i := ix.Denial(pos)
	if i < 0 {
		return dnswire.RR{}, false
	}
	return z.recordsOf(ix, i, dnswire.TypeNSEC)[0], true
}

// Names returns the distinct owner names in the zone, lowercased, in
// canonical order.
//
//rootlint:allow deadcode: the owner list dnsserver/compiled_test.go asks the compiled path and the oracle about, name by name
func (z *Zone) Names() []dnswire.Name {
	ix := z.Index()
	names := make([]dnswire.Name, ix.Len())
	for i := range names {
		names[i] = z.Records[ix.sets[ix.nodes[i].set][0]].Name.Canonical()
	}
	return names
}
