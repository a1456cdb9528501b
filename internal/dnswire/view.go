package dnswire

import (
	"encoding/binary"
	"errors"
)

// ErrReservedLabel classifies the two reserved label types (0x40/0x80) that
// are neither plain labels nor compression pointers.
var ErrReservedLabel = errors.New("dnswire: reserved label type")

// View is a lazy decoder over a packed message. It parses nothing up front
// beyond validating that the 12-octet header is present; records are walked
// by a Cursor that exposes owner-name offsets, type/class/TTL, and the raw
// RDATA slice without materializing Name strings or RData values. Consumers
// that only count records or compare canonical bytes (AXFR reassembly
// checks, zonemd/analysis diffing) never pay for a full Unpack; when a
// decoded record is needed, View.Unpack decodes exactly that one.
//
// The View aliases the message buffer — it is only valid as long as the
// caller keeps the buffer unmodified.
type View struct {
	msg []byte
}

// NewView wraps msg. Only the fixed header length is validated here; any
// malformed record surfaces from the Cursor when it is reached.
func NewView(msg []byte) (View, error) {
	if len(msg) < headerLen {
		return View{}, ErrTruncated
	}
	return View{msg: msg}, nil
}

// ID returns the message ID.
func (v *View) ID() uint16 { return binary.BigEndian.Uint16(v.msg[0:]) }

// Rcode returns the response code from the header flags.
func (v *View) Rcode() Rcode { return Rcode(binary.BigEndian.Uint16(v.msg[2:]) & 0xF) }

// Counts returns the four header section counts.
func (v *View) Counts() (qd, an, ns, ar int) {
	return int(binary.BigEndian.Uint16(v.msg[4:])),
		int(binary.BigEndian.Uint16(v.msg[6:])),
		int(binary.BigEndian.Uint16(v.msg[8:])),
		int(binary.BigEndian.Uint16(v.msg[10:]))
}

// Record sections, in wire order.
const (
	SectionAnswer = iota
	SectionAuthority
	SectionAdditional
)

// RawRR is one resource record as seen by a Cursor: fixed fields decoded,
// names left as offsets into the message, RDATA aliased rather than copied.
type RawRR struct {
	Section  int // SectionAnswer, SectionAuthority, or SectionAdditional
	NameOff  int // offset of the (possibly compressed) owner name
	Type     Type
	Class    Class
	TTL      uint32
	RDataOff int    // offset of RData within the message
	RData    []byte // aliases the message buffer
}

// Cursor iterates the resource records of a View in wire order, skipping
// the question section. It is cheap to create and holds no heap state.
type Cursor struct {
	v     *View
	off   int
	qLeft int
	left  [3]int
	sec   int
	err   error
}

// Records returns a Cursor positioned before the first resource record.
func (v *View) Records() Cursor {
	qd, an, ns, ar := v.Counts()
	return Cursor{v: v, off: headerLen, qLeft: qd, left: [3]int{an, ns, ar}}
}

// Next advances to the next record, filling rr. It returns false at the end
// of the message or on a malformed record; Err distinguishes the two.
//
//rootlint:hotpath
func (c *Cursor) Next(rr *RawRR) bool {
	if c.err != nil {
		return false
	}
	msg := c.v.msg
	for c.qLeft > 0 {
		end, err := skipName(msg, c.off)
		if err != nil {
			c.err = err
			return false
		}
		if end+4 > len(msg) {
			c.err = ErrTruncated
			return false
		}
		c.off = end + 4
		c.qLeft--
	}
	for c.sec < 3 && c.left[c.sec] == 0 {
		c.sec++
	}
	if c.sec == 3 {
		return false
	}
	nameOff := c.off
	end, err := skipName(msg, c.off)
	if err != nil {
		c.err = err
		return false
	}
	if end+10 > len(msg) {
		c.err = ErrTruncated
		return false
	}
	rdlen := int(binary.BigEndian.Uint16(msg[end+8:]))
	if end+10+rdlen > len(msg) {
		c.err = ErrTruncated
		return false
	}
	c.left[c.sec]--
	rr.Section = c.sec
	rr.NameOff = nameOff
	rr.Type = Type(binary.BigEndian.Uint16(msg[end:]))
	rr.Class = Class(binary.BigEndian.Uint16(msg[end+2:]))
	rr.TTL = binary.BigEndian.Uint32(msg[end+4:])
	rr.RDataOff = end + 10
	rr.RData = msg[end+10 : end+10+rdlen]
	c.off = end + 10 + rdlen
	return true
}

// Err returns the first malformed-record error hit by Next, or nil if
// iteration ended cleanly.
func (c *Cursor) Err() error { return c.err }

// Unpack fully decodes the record rr points at, including compressed names
// and typed RDATA — the on-demand escape hatch from the lazy path. It
// applies the same OPT pseudo-record translation as message Unpack.
func (v *View) Unpack(rr *RawRR) (RR, error) {
	full, _, err := decodeRR(v.msg, rr.NameOff, nil)
	return full, err
}

// skipName advances past the name starting at off without validating
// pointer targets or label contents — the Cursor is a skimmer; full
// validation happens in Unpack or AppendCanonical when the bytes matter.
//
//rootlint:hotpath
func skipName(msg []byte, off int) (int, error) {
	for {
		if off >= len(msg) {
			return 0, ErrTruncated
		}
		b := msg[off]
		switch {
		case b == 0:
			return off + 1, nil
		case b&0xC0 == 0xC0:
			if off+1 >= len(msg) {
				return 0, ErrTruncated
			}
			return off + 2, nil
		case b&0xC0 != 0:
			return 0, ErrReservedLabel
		default:
			off += 1 + int(b)
		}
	}
}

// appendWireName appends the uncompressed wire form of the name at off in
// src, following compression pointers under the same safety rules as
// decodeName (pointers must strictly decrease, total jumps bounded by the
// message length, '.' octets inside labels rejected, 255-octet name cap).
// When fold is true ASCII letters are lowercased, producing the canonical
// form of RFC 4034 §6.2. It returns the offset just past the name's
// representation at off (pointers do not advance it). buf contents past its
// original length are undefined on error.
//
//rootlint:hotpath
func appendWireName(buf []byte, src []byte, off int, fold bool) ([]byte, int, error) {
	ptrBudget := len(src)
	jumped := false
	end := off
	wireLen := 1 // the terminal zero octet
	for {
		if off >= len(src) {
			return buf, 0, ErrTruncated
		}
		b := src[off]
		switch {
		case b == 0:
			if !jumped {
				end = off + 1
			}
			return append(buf, 0), end, nil
		case b&0xC0 == 0xC0:
			if off+1 >= len(src) {
				return buf, 0, ErrTruncated
			}
			ptr := int(b&0x3F)<<8 | int(src[off+1])
			if ptr >= off {
				return buf, 0, ErrBadPointer
			}
			if !jumped {
				end = off + 2
				jumped = true
			}
			ptrBudget--
			if ptrBudget <= 0 {
				return buf, 0, ErrBadPointer
			}
			off = ptr
		case b&0xC0 != 0:
			return buf, 0, ErrReservedLabel
		default:
			l := int(b)
			if off+1+l > len(src) {
				return buf, 0, ErrTruncated
			}
			wireLen += 1 + l
			if wireLen > MaxNameLen {
				return buf, 0, ErrNameTooLong
			}
			buf = append(buf, b)
			for _, ch := range src[off+1 : off+1+l] {
				if ch == '.' {
					// Mirrors decodeName: a literal '.' octet cannot
					// round-trip through presentation form.
					return buf, 0, ErrBadLabel
				}
				if fold {
					ch = foldASCII(ch)
				}
				buf = append(buf, ch)
			}
			off += 1 + l
			if !jumped {
				end = off
			}
		}
	}
}

// AppendOwner appends the canonical (lowercased, uncompressed) wire form of
// rr's owner name to buf.
//
//rootlint:hotpath
func (v *View) AppendOwner(buf []byte, rr *RawRR) ([]byte, error) {
	buf, _, err := appendWireName(buf, v.msg, rr.NameOff, true)
	return buf, err
}

// AppendCanonical appends the RFC 4034 §6.2 canonical wire form of rr at
// its wire TTL: owner lowercased and decompressed, RDATA names decompressed
// (and lowercased for the types whose canonical form folds embedded names —
// NS, CNAME, PTR, MX, SOA, NSEC), all other RDATA verbatim. The output
// matches AppendCanonicalRR over the fully decoded record, which is what
// the zone sidecar caches — so a transfer received through the lazy view
// can be compared byte-for-byte against CanonicalWire entries without a
// single full decode.
//
//rootlint:hotpath
func (v *View) AppendCanonical(buf []byte, rr *RawRR) ([]byte, error) {
	buf, err := v.AppendOwner(buf, rr)
	if err != nil {
		return buf, err
	}
	buf = append(buf,
		byte(rr.Type>>8), byte(rr.Type),
		byte(rr.Class>>8), byte(rr.Class),
		byte(rr.TTL>>24), byte(rr.TTL>>16), byte(rr.TTL>>8), byte(rr.TTL))
	rdlenAt := len(buf)
	buf = append(buf, 0, 0)
	var end int
	switch rr.Type {
	case TypeNS, TypeCNAME, TypePTR:
		// A single host name, compressible on the wire: decompress+fold.
		buf, _, err = appendWireName(buf, v.msg, rr.RDataOff, true)
	case TypeMX:
		if len(rr.RData) < 3 {
			return buf, ErrTruncated
		}
		buf = append(buf, rr.RData[0], rr.RData[1])
		buf, _, err = appendWireName(buf, v.msg, rr.RDataOff+2, true)
	case TypeSOA:
		buf, end, err = appendWireName(buf, v.msg, rr.RDataOff, true)
		if err == nil {
			buf, end, err = appendWireName(buf, v.msg, end, true)
		}
		if err == nil {
			if end+20 > len(v.msg) {
				return buf, ErrTruncated
			}
			buf = append(buf, v.msg[end:end+20]...)
		}
	case TypeNSEC:
		// The next name is never compressed and is decoded relative to the
		// RDATA slice (as decodeRData does); the type bitmap is verbatim.
		buf, end, err = appendWireName(buf, rr.RData, 0, true)
		if err == nil {
			buf = append(buf, rr.RData[end:]...)
		}
	case TypeRRSIG:
		// Fixed 18-octet prefix, then the signer name (uncompressed per
		// RFC 4034 §3.1.7, case preserved — canonicalData does not fold
		// it), then the signature bytes.
		if len(rr.RData) < 18 {
			return buf, ErrTruncated
		}
		buf = append(buf, rr.RData[:18]...)
		buf, end, err = appendWireName(buf, rr.RData, 18, false)
		if err == nil {
			buf = append(buf, rr.RData[end:]...)
		}
	default:
		// A, AAAA, TXT, DNSKEY, DS, ZONEMD, unknown: canonical RDATA is
		// the wire RDATA.
		buf = append(buf, rr.RData...)
	}
	if err != nil {
		return buf, err
	}
	binary.BigEndian.PutUint16(buf[rdlenAt:], uint16(len(buf)-rdlenAt-2))
	return buf, nil
}
