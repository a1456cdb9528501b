package dnswire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net/netip"
	"sync"
)

// headerLen is the fixed DNS header size (RFC 1035 §4.1.1).
const headerLen = 12

// Header holds the fixed DNS message header.
type Header struct {
	ID                 uint16
	Response           bool
	Opcode             Opcode
	Authoritative      bool
	Truncated          bool
	RecursionDesired   bool
	RecursionAvailable bool
	AuthenticData      bool
	CheckingDisabled   bool
	Rcode              Rcode
}

// Question is a query tuple (RFC 1035 §4.1.2).
type Question struct {
	Name  Name
	Type  Type
	Class Class
}

// String returns a dig-style rendering of q.
func (q Question) String() string {
	return fmt.Sprintf("%s %s %s", q.Name, q.Class, q.Type)
}

// RR is a resource record: owner, class, TTL and typed payload.
type RR struct {
	Name  Name
	Class Class
	TTL   uint32
	Data  RData
}

// Type returns the RR type of the payload.
func (rr RR) Type() Type {
	if rr.Data == nil {
		return TypeNone
	}
	return rr.Data.Type()
}

// String renders rr in master-file style.
func (rr RR) String() string {
	return fmt.Sprintf("%s\t%d\t%s\t%s\t%s", rr.Name, rr.TTL, rr.Class, rr.Type(), rr.Data)
}

// Message is a full DNS message.
type Message struct {
	Header     Header
	Questions  []Question
	Answers    []RR
	Authority  []RR
	Additional []RR
}

// cmPool recycles compressors across packs. Their maps are cleared before
// reuse, which keeps the buckets allocated — steady-state packs insert into
// warm buckets and never touch the heap.
var cmPool = sync.Pool{New: func() any { return &compressor{offs: make(map[Name]int, 32)} }}

// Pack encodes m into wire format with name compression.
func (m *Message) Pack() ([]byte, error) { return m.AppendPack(nil) }

// AppendPack encodes m with name compression, appending to buf (which may
// be nil). Reusing the returned buffer across packs makes the steady state
// allocation-free: the compression map comes from an internal pool and every
// name suffix key is a substring of the message's own names.
//
//rootlint:hotpath
func (m *Message) AppendPack(buf []byte) ([]byte, error) {
	return m.AppendPackTraced(buf, nil)
}

// AppendPackTraced is AppendPack that also reports, into tr when it is not
// nil, the compression decisions taken after the question section; the
// bytes are AppendPack's either way.
//
//rootlint:hotpath
func (m *Message) AppendPackTraced(buf []byte, tr *PackTrace) ([]byte, error) {
	cm := cmPool.Get().(*compressor)
	cm.trace = tr
	out, err := m.pack(buf, cm)
	clear(cm.offs)
	cm.trace = nil
	cmPool.Put(cm)
	return out, err
}

// PackUncompressed encodes m without compression pointers.
//
//rootlint:allow deadcode: the reference TestCompressionShrinksMessage, TestViewCursorMatchesUnpack and FuzzViewAgreement hold Pack to, and BenchmarkAblationCompression's baseline (bench_test.go)
func (m *Message) PackUncompressed() ([]byte, error) { return m.pack(nil, nil) }

// pack appends the encoded message to dst; the message starts at len(dst),
// and compression offsets are relative to that base.
func (m *Message) pack(dst []byte, cm *compressor) ([]byte, error) {
	base := len(dst)
	if cap(dst)-base < headerLen {
		grown := make([]byte, base, base+512)
		copy(grown, dst)
		dst = grown
	}
	buf := dst[: base+headerLen : cap(dst)]
	binary.BigEndian.PutUint16(buf[base:], m.Header.ID)
	var flags uint16
	if m.Header.Response {
		flags |= 1 << 15
	}
	flags |= uint16(m.Header.Opcode&0xF) << 11
	if m.Header.Authoritative {
		flags |= 1 << 10
	}
	if m.Header.Truncated {
		flags |= 1 << 9
	}
	if m.Header.RecursionDesired {
		flags |= 1 << 8
	}
	if m.Header.RecursionAvailable {
		flags |= 1 << 7
	}
	if m.Header.AuthenticData {
		flags |= 1 << 5
	}
	if m.Header.CheckingDisabled {
		flags |= 1 << 4
	}
	flags |= uint16(m.Header.Rcode & 0xF)
	binary.BigEndian.PutUint16(buf[base+2:], flags)
	binary.BigEndian.PutUint16(buf[base+4:], uint16(len(m.Questions)))
	binary.BigEndian.PutUint16(buf[base+6:], uint16(len(m.Answers)))
	binary.BigEndian.PutUint16(buf[base+8:], uint16(len(m.Authority)))
	binary.BigEndian.PutUint16(buf[base+10:], uint16(len(m.Additional)))

	var tr *PackTrace
	if cm != nil {
		tr, cm.trace = cm.trace, nil // the trace covers what follows the question
	}
	for _, q := range m.Questions {
		buf = appendName(buf, q.Name, len(buf)-base, cm)
		buf = binary.BigEndian.AppendUint16(buf, uint16(q.Type))
		buf = binary.BigEndian.AppendUint16(buf, uint16(q.Class))
	}
	if cm != nil {
		cm.trace = tr
	}
	var err error
	for _, section := range [][]RR{m.Answers, m.Authority, m.Additional} {
		for _, rr := range section {
			buf, err = appendRR(buf, rr, base, cm)
			if err != nil {
				return nil, err
			}
		}
	}
	return buf, nil
}

// appendRR appends one resource record, handling the OPT pseudo-record's
// special Class/TTL encoding. base is the offset of the message start in buf.
func appendRR(buf []byte, rr RR, base int, cm *compressor) ([]byte, error) {
	if rr.Data == nil {
		return nil, errors.New("dnswire: RR with nil RData")
	}
	buf = appendName(buf, rr.Name, len(buf)-base, cm)
	buf = binary.BigEndian.AppendUint16(buf, uint16(rr.Type()))
	if opt, ok := rr.Data.(OPTRecord); ok {
		buf = binary.BigEndian.AppendUint16(buf, opt.UDPSize)
		var ttl uint32
		if opt.Do {
			ttl = 1 << 15 // DO bit in the high 16 flag bits' MSB half
		}
		buf = binary.BigEndian.AppendUint32(buf, ttl)
		buf = binary.BigEndian.AppendUint16(buf, 0)
		return buf, nil
	}
	buf = binary.BigEndian.AppendUint16(buf, uint16(rr.Class))
	buf = binary.BigEndian.AppendUint32(buf, rr.TTL)
	lenOff := len(buf)
	buf = append(buf, 0, 0)
	buf = rr.Data.appendTo(buf, len(buf)-base, cm)
	rdlen := len(buf) - lenOff - 2
	if rdlen > 0xFFFF {
		return nil, fmt.Errorf("dnswire: RDATA too long (%d)", rdlen)
	}
	binary.BigEndian.PutUint16(buf[lenOff:], uint16(rdlen))
	return buf, nil
}

// Unpack decodes a wire-format message.
func Unpack(msg []byte) (*Message, error) {
	if len(msg) < headerLen {
		return nil, ErrTruncated
	}
	var m Message
	m.Header.ID = binary.BigEndian.Uint16(msg[0:])
	flags := binary.BigEndian.Uint16(msg[2:])
	m.Header.Response = flags&(1<<15) != 0
	m.Header.Opcode = Opcode(flags >> 11 & 0xF)
	m.Header.Authoritative = flags&(1<<10) != 0
	m.Header.Truncated = flags&(1<<9) != 0
	m.Header.RecursionDesired = flags&(1<<8) != 0
	m.Header.RecursionAvailable = flags&(1<<7) != 0
	m.Header.AuthenticData = flags&(1<<5) != 0
	m.Header.CheckingDisabled = flags&(1<<4) != 0
	m.Header.Rcode = Rcode(flags & 0xF)
	qd := int(binary.BigEndian.Uint16(msg[4:]))
	an := int(binary.BigEndian.Uint16(msg[6:]))
	ns := int(binary.BigEndian.Uint16(msg[8:]))
	ar := int(binary.BigEndian.Uint16(msg[10:]))

	// One name memo per message: compression pointers target earlier names,
	// so most RRs in a zone transfer chunk resolve their owner (and RDATA
	// hosts) from the cache instead of re-walking labels.
	cache := make(nameCache, qd+an+ns+ar+1)

	off := headerLen
	for i := 0; i < qd; i++ {
		name, next, err := decodeNameCached(msg, off, cache)
		if err != nil {
			return nil, fmt.Errorf("question %d: %w", i, err)
		}
		if next+4 > len(msg) {
			return nil, ErrTruncated
		}
		m.Questions = append(m.Questions, Question{
			Name:  name,
			Type:  Type(binary.BigEndian.Uint16(msg[next:])),
			Class: Class(binary.BigEndian.Uint16(msg[next+2:])),
		})
		off = next + 4
	}
	var err error
	for _, sec := range []struct {
		count int
		dst   *[]RR
	}{{an, &m.Answers}, {ns, &m.Authority}, {ar, &m.Additional}} {
		if sec.count > 0 {
			// Each RR takes at least 11 octets on the wire; sizing the slice
			// from the remaining bytes bounds the count claimed by a hostile
			// header while giving honest messages a single exact allocation.
			hint := sec.count
			if max := (len(msg) - off) / 11; max < hint {
				hint = max
			}
			if hint > 0 {
				*sec.dst = make([]RR, 0, hint)
			}
		}
		for i := 0; i < sec.count; i++ {
			var rr RR
			rr, off, err = decodeRR(msg, off, cache)
			if err != nil {
				return nil, err
			}
			*sec.dst = append(*sec.dst, rr)
		}
	}
	return &m, nil
}

// decodeRR decodes one resource record starting at off.
func decodeRR(msg []byte, off int, cache nameCache) (RR, int, error) {
	name, off, err := decodeNameCached(msg, off, cache)
	if err != nil {
		return RR{}, 0, err
	}
	if off+10 > len(msg) {
		return RR{}, 0, ErrTruncated
	}
	typ := Type(binary.BigEndian.Uint16(msg[off:]))
	class := Class(binary.BigEndian.Uint16(msg[off+2:]))
	ttl := binary.BigEndian.Uint32(msg[off+4:])
	rdlen := int(binary.BigEndian.Uint16(msg[off+8:]))
	off += 10
	if off+rdlen > len(msg) {
		return RR{}, 0, ErrTruncated
	}
	rdata := msg[off : off+rdlen]
	end := off + rdlen

	if typ == TypeOPT {
		return RR{Name: name, Class: ClassINET, Data: OPTRecord{
			UDPSize: uint16(class),
			Do:      ttl&(1<<15) != 0,
		}}, end, nil
	}
	data, err := decodeRData(msg, off, rdata, typ, cache)
	if err != nil {
		return RR{}, 0, fmt.Errorf("dnswire: decoding %s RDATA for %s: %w", typ, name, err)
	}
	return RR{Name: name, Class: class, TTL: ttl, Data: data}, end, nil
}

// decodeRData decodes typed RDATA. msg and off are needed because RDATA name
// fields may contain compression pointers into the full message.
func decodeRData(msg []byte, off int, rdata []byte, typ Type, cache nameCache) (RData, error) {
	switch typ {
	case TypeA:
		if len(rdata) != 4 {
			return nil, fmt.Errorf("A RDATA length %d", len(rdata))
		}
		return ARecord{Addr: netip.AddrFrom4([4]byte(rdata))}, nil
	case TypeAAAA:
		if len(rdata) != 16 {
			return nil, fmt.Errorf("AAAA RDATA length %d", len(rdata))
		}
		return AAAARecord{Addr: netip.AddrFrom16([16]byte(rdata))}, nil
	case TypeNS, TypeCNAME, TypePTR:
		host, _, err := decodeNameCached(msg, off, cache)
		if err != nil {
			return nil, err
		}
		switch typ {
		case TypeNS:
			return NSRecord{Host: host}, nil
		case TypeCNAME:
			return CNAMERecord{Target: host}, nil
		default:
			return PTRRecord{Target: host}, nil
		}
	case TypeMX:
		if len(rdata) < 3 {
			return nil, ErrTruncated
		}
		host, _, err := decodeNameCached(msg, off+2, cache)
		if err != nil {
			return nil, err
		}
		return MXRecord{Preference: binary.BigEndian.Uint16(rdata), Host: host}, nil
	case TypeSOA:
		mname, next, err := decodeNameCached(msg, off, cache)
		if err != nil {
			return nil, err
		}
		rname, next, err := decodeNameCached(msg, next, cache)
		if err != nil {
			return nil, err
		}
		if next+20 > len(msg) {
			return nil, ErrTruncated
		}
		return SOARecord{
			MName:   mname,
			RName:   rname,
			Serial:  binary.BigEndian.Uint32(msg[next:]),
			Refresh: binary.BigEndian.Uint32(msg[next+4:]),
			Retry:   binary.BigEndian.Uint32(msg[next+8:]),
			Expire:  binary.BigEndian.Uint32(msg[next+12:]),
			Minimum: binary.BigEndian.Uint32(msg[next+16:]),
		}, nil
	case TypeTXT:
		var strs []string
		for i := 0; i < len(rdata); {
			l := int(rdata[i])
			if i+1+l > len(rdata) {
				return nil, ErrTruncated
			}
			strs = append(strs, string(rdata[i+1:i+1+l]))
			i += 1 + l
		}
		return TXTRecord{Strings: strs}, nil
	case TypeDNSKEY:
		if len(rdata) < 4 {
			return nil, ErrTruncated
		}
		return DNSKEYRecord{
			Flags:     binary.BigEndian.Uint16(rdata),
			Protocol:  rdata[2],
			Algorithm: rdata[3],
			PublicKey: append([]byte(nil), rdata[4:]...),
		}, nil
	case TypeRRSIG:
		if len(rdata) < 18 {
			return nil, ErrTruncated
		}
		// Signer name MUST NOT be compressed (RFC 4034 §3.1.7), so it can be
		// decoded from the RDATA slice alone.
		signer, next, err := decodeName(rdata, 18)
		if err != nil {
			return nil, err
		}
		return RRSIGRecord{
			TypeCovered: Type(binary.BigEndian.Uint16(rdata)),
			Algorithm:   rdata[2],
			Labels:      rdata[3],
			OriginalTTL: binary.BigEndian.Uint32(rdata[4:]),
			Expiration:  binary.BigEndian.Uint32(rdata[8:]),
			Inception:   binary.BigEndian.Uint32(rdata[12:]),
			KeyTag:      binary.BigEndian.Uint16(rdata[16:]),
			SignerName:  signer,
			Signature:   append([]byte(nil), rdata[next:]...),
		}, nil
	case TypeDS:
		if len(rdata) < 4 {
			return nil, ErrTruncated
		}
		return DSRecord{
			KeyTag:     binary.BigEndian.Uint16(rdata),
			Algorithm:  rdata[2],
			DigestType: rdata[3],
			Digest:     append([]byte(nil), rdata[4:]...),
		}, nil
	case TypeNSEC:
		next, n, err := decodeName(rdata, 0)
		if err != nil {
			return nil, err
		}
		types, err := decodeTypeBitmap(rdata[n:])
		if err != nil {
			return nil, err
		}
		return NSECRecord{NextName: next, Types: types}, nil
	case TypeZONEMD:
		if len(rdata) < 6 {
			return nil, ErrTruncated
		}
		return ZONEMDRecord{
			Serial: binary.BigEndian.Uint32(rdata),
			Scheme: rdata[4],
			Hash:   rdata[5],
			Digest: append([]byte(nil), rdata[6:]...),
		}, nil
	default:
		return RawRecord{RRType: typ, Data: append([]byte(nil), rdata...)}, nil
	}
}

// NewQuery builds a standard query message for (name, type) in class IN.
func NewQuery(id uint16, name Name, typ Type) *Message {
	return &Message{
		Header:    Header{ID: id, Opcode: OpcodeQuery, RecursionDesired: false},
		Questions: []Question{{Name: name, Type: typ, Class: ClassINET}},
	}
}

// NewChaosQuery builds a CH TXT query, as used for server-identity probes
// such as hostname.bind and id.server.
func NewChaosQuery(id uint16, name Name) *Message {
	return &Message{
		Header:    Header{ID: id, Opcode: OpcodeQuery},
		Questions: []Question{{Name: name, Type: TypeTXT, Class: ClassCHAOS}},
	}
}

// WithEDNS appends an OPT pseudo-record advertising size and the DO bit.
func (m *Message) WithEDNS(size uint16, do bool) *Message {
	m.Additional = append(m.Additional, RR{Name: Root, Data: OPTRecord{UDPSize: size, Do: do}})
	return m
}

// EDNS returns the message's OPT pseudo-record, if any.
func (m *Message) EDNS() (OPTRecord, bool) {
	for _, rr := range m.Additional {
		if opt, ok := rr.Data.(OPTRecord); ok {
			return opt, true
		}
	}
	return OPTRecord{}, false
}
