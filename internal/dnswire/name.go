package dnswire

import (
	"errors"
	"fmt"
	"strings"
)

// A Name is a fully-qualified domain name in presentation form, always ending
// in a dot ("." for the root). The zero value is not a valid name; use Root
// or MustName.
type Name string

// Root is the root domain name ".".
const Root Name = "."

// Errors returned by name parsing and decoding.
var (
	ErrNameTooLong  = errors.New("dnswire: name exceeds 255 octets")
	ErrLabelTooLong = errors.New("dnswire: label exceeds 63 octets")
	ErrBadLabel     = errors.New("dnswire: label contains '.' (escapes unsupported)")
	ErrBadPointer   = errors.New("dnswire: bad compression pointer")
	ErrTruncated    = errors.New("dnswire: message truncated")
)

// NewName validates and canonicalizes s into a Name. A missing trailing dot
// is added. Escapes are not supported: the root zone's contents in this
// repository never need them.
func NewName(s string) (Name, error) {
	if s == "" || s == "." {
		return Root, nil
	}
	if !strings.HasSuffix(s, ".") {
		s += "."
	}
	wireLen := 1 // terminal root label
	for _, label := range strings.Split(strings.TrimSuffix(s, "."), ".") {
		if label == "" {
			return "", fmt.Errorf("dnswire: empty label in %q", s)
		}
		if len(label) > MaxLabelLen {
			return "", ErrLabelTooLong
		}
		wireLen += 1 + len(label)
	}
	if wireLen > MaxNameLen {
		return "", ErrNameTooLong
	}
	return Name(s), nil
}

// MustName is NewName for compile-time-known names; it panics on error.
func MustName(s string) Name {
	n, err := NewName(s)
	if err != nil {
		panic(err)
	}
	return n
}

// String returns the presentation form.
func (n Name) String() string { return string(n) }

// IsRoot reports whether n is ".".
func (n Name) IsRoot() bool { return n == Root }

// Labels returns the labels of n from left to right, excluding the empty
// root label. The root name has zero labels.
func (n Name) Labels() []string {
	if n.IsRoot() || n == "" {
		return nil
	}
	return strings.Split(strings.TrimSuffix(string(n), "."), ".")
}

// Canonical returns n lowercased, per the DNSSEC canonical form
// (RFC 4034 §6.2). DNS case-insensitivity is ASCII-only (RFC 4343), and
// label bytes need not be valid UTF-8, so this folds byte-wise —
// strings.ToLower would corrupt high bytes to U+FFFD.
func (n Name) Canonical() Name {
	for i := 0; i < len(n); i++ {
		if c := n[i]; 'A' <= c && c <= 'Z' {
			b := []byte(n)
			for j := i; j < len(b); j++ {
				b[j] = foldASCII(b[j])
			}
			return Name(b)
		}
	}
	return n
}

// Parent returns the name with the leftmost label removed; the parent of the
// root is the root.
func (n Name) Parent() Name {
	labels := n.Labels()
	if len(labels) <= 1 {
		return Root
	}
	return Name(strings.Join(labels[1:], ".") + ".")
}

// SubdomainOf reports whether n is equal to or below parent
// (case-insensitively).
func (n Name) SubdomainOf(parent Name) bool {
	if parent.IsRoot() {
		return true
	}
	nc, pc := string(n.Canonical()), string(parent.Canonical())
	return nc == pc || strings.HasSuffix(nc, "."+pc)
}

// CompareCanonical orders names in DNSSEC canonical order (RFC 4034 §6.1):
// by label from the rightmost, comparing lowercased labels as octet strings,
// with a shorter name sorting first when it is a prefix. It allocates
// nothing: labels are walked in place from the right, folding ASCII case,
// which keeps the canonical sorts on the zone-integrity hot path off the
// heap.
func CompareCanonical(a, b Name) int {
	if a == b {
		return 0
	}
	as := strings.TrimSuffix(string(a), ".")
	bs := strings.TrimSuffix(string(b), ".")
	ai, bi := len(as), len(bs)
	for ai > 0 && bi > 0 {
		aStart := strings.LastIndexByte(as[:ai], '.') + 1
		bStart := strings.LastIndexByte(bs[:bi], '.') + 1
		if c := compareFoldASCII(as[aStart:ai], bs[bStart:bi]); c != 0 {
			return c
		}
		ai, bi = aStart-1, bStart-1
	}
	switch {
	case ai <= 0 && bi <= 0:
		return 0
	case ai <= 0:
		return -1
	}
	return 1
}

// compareFoldASCII compares two labels as octet strings after ASCII
// lowercasing, the RFC 4034 §6.1 label comparison.
func compareFoldASCII(x, y string) int {
	n := len(x)
	if len(y) < n {
		n = len(y)
	}
	for i := 0; i < n; i++ {
		cx, cy := foldASCII(x[i]), foldASCII(y[i])
		if cx != cy {
			if cx < cy {
				return -1
			}
			return 1
		}
	}
	switch {
	case len(x) < len(y):
		return -1
	case len(x) > len(y):
		return 1
	}
	return 0
}

func foldASCII(c byte) byte {
	if 'A' <= c && c <= 'Z' {
		return c + 'a' - 'A'
	}
	return c
}

// wireLen returns the uncompressed wire length of n.
func (n Name) wireLen() int {
	if n.IsRoot() {
		return 1
	}
	l := 1
	for _, label := range n.Labels() {
		l += 1 + len(label)
	}
	return l
}

// compressor tracks name→offset mappings while building a message and,
// for a traced pack, reports what it did with them.
type compressor struct {
	offs  map[Name]int
	trace *PackTrace // nil outside AppendPackTraced and during its question section
}

// PackTrace is what AppendPackTraced learned about name compression in the
// sections after the question. It is what a caller needs to lift those
// sections off one question and set them behind another: the pointers to
// relocate, and the spellings a longer question name could have matched.
type PackTrace struct {
	// Pointers holds the message offset of every compression pointer written.
	Pointers []int
	// Suffixes holds every name suffix offered to the compressor, whether it
	// matched an earlier spelling or was recorded as a new one.
	Suffixes []Name
}

// appendName appends the wire encoding of n to buf. When cm is non-nil,
// RFC 1035 §4.1.4 compression pointers are emitted for known suffixes and
// new suffixes at offsets < 0x4000 are recorded. off is the offset of the
// name within the full message.
// appendName compresses case-sensitively: DNS names compare
// case-insensitively, but matching only byte-identical suffixes keeps
// pack/unpack round trips byte-faithful (a case-insensitive match would
// silently rewrite a name's case when two spellings share a suffix).
// Suffixes are substrings of n, so the encode allocates nothing beyond
// buf growth; together with a pooled cm this is what makes steady-state
// packs allocation-free.
func appendName(buf []byte, n Name, off int, cm *compressor) []byte {
	if n.IsRoot() || n == "" {
		return append(buf, 0)
	}
	s := string(n)
	for i := 0; i < len(s); {
		if cm != nil {
			suffix := Name(s[i:])
			if cm.trace != nil {
				cm.trace.Suffixes = append(cm.trace.Suffixes, suffix)
			}
			if ptr, ok := cm.offs[suffix]; ok {
				if cm.trace != nil {
					cm.trace.Pointers = append(cm.trace.Pointers, off)
				}
				return append(buf, 0xC0|byte(ptr>>8), byte(ptr))
			}
			if off < 0x4000 {
				cm.offs[suffix] = off
			}
		}
		end := strings.IndexByte(s[i:], '.')
		if end < 0 {
			end = len(s) // tolerate a missing trailing dot, as Labels() did
		} else {
			end += i
		}
		buf = append(buf, byte(end-i))
		buf = append(buf, s[i:end]...)
		off += 1 + end - i
		i = end + 1
	}
	return append(buf, 0)
}

// nameCache memoizes decoded names by their start offset within one message.
// Compression pointers in a packed message target offsets where a name (or a
// name suffix) was first written, so once that offset has been decoded every
// later pointer to it resolves without re-walking labels — the decode half of
// the allocation-lean wire fast path.
type nameCache map[int]Name

// decodeName decodes a (possibly compressed) name starting at off in msg.
// It returns the name and the offset just past the name's representation at
// off (pointers are followed but do not advance the caller's cursor).
func decodeName(msg []byte, off int) (Name, int, error) {
	return decodeNameCached(msg, off, nil)
}

// decodeNameCached is decodeName with a per-message memo of offset→name.
// Jump targets encountered while decoding are recorded too (as suffixes of
// the final name), so sibling names sharing a compressed tail hit the cache.
func decodeNameCached(msg []byte, off int, cache nameCache) (Name, int, error) {
	var sb strings.Builder
	ptrBudget := len(msg) // each pointer must strictly decrease; bound loops
	jumped := false
	start := off
	end := off
	// jumps records (target offset, prefix length in sb) for cache fills.
	var jumps [8][2]int
	nJumps := 0
	for {
		if off >= len(msg) {
			return "", 0, ErrTruncated
		}
		b := msg[off]
		switch {
		case b == 0:
			if !jumped {
				end = off + 1
			}
			if sb.Len() == 0 {
				return Root, end, nil
			}
			name := Name(sb.String())
			if name.wireLen() > MaxNameLen {
				return "", 0, ErrNameTooLong
			}
			if cache != nil {
				cache[start] = name
				for i := 0; i < nJumps; i++ {
					if jumps[i][1] < len(name) {
						cache[jumps[i][0]] = name[jumps[i][1]:]
					}
				}
			}
			return name, end, nil
		case b&0xC0 == 0xC0:
			if off+1 >= len(msg) {
				return "", 0, ErrTruncated
			}
			ptr := int(b&0x3F)<<8 | int(msg[off+1])
			if ptr >= off {
				return "", 0, ErrBadPointer
			}
			if !jumped {
				end = off + 2
				jumped = true
			}
			if cache != nil {
				if suffix, ok := cache[ptr]; ok {
					sb.WriteString(string(suffix))
					name := Name(sb.String())
					if name.wireLen() > MaxNameLen {
						return "", 0, ErrNameTooLong
					}
					cache[start] = name
					for i := 0; i < nJumps; i++ {
						if jumps[i][1] < len(name) {
							cache[jumps[i][0]] = name[jumps[i][1]:]
						}
					}
					return name, end, nil
				}
				if nJumps < len(jumps) {
					jumps[nJumps] = [2]int{ptr, sb.Len()}
					nJumps++
				}
			}
			ptrBudget--
			if ptrBudget <= 0 {
				return "", 0, ErrBadPointer
			}
			off = ptr
		case b&0xC0 != 0:
			return "", 0, fmt.Errorf("dnswire: reserved label type 0x%02x", b&0xC0)
		default:
			l := int(b)
			if l > MaxLabelLen {
				return "", 0, ErrLabelTooLong
			}
			if off+1+l > len(msg) {
				return "", 0, ErrTruncated
			}
			// Name is presentation form without escape support, so a label
			// containing a literal '.' octet cannot round-trip: re-encoding
			// would split it into empty labels (a premature terminator).
			// Reject it here rather than emit a name that repacks wrong.
			for _, c := range msg[off+1 : off+1+l] {
				if c == '.' {
					return "", 0, ErrBadLabel
				}
			}
			sb.Write(msg[off+1 : off+1+l])
			sb.WriteByte('.')
			off += 1 + l
			if !jumped {
				end = off
			}
		}
	}
}
