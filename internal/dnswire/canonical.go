package dnswire

import "encoding/binary"

// AppendCanonicalRR appends the DNSSEC canonical wire form of rr
// (RFC 4034 §6.2): the owner name lowercased and uncompressed, and names
// embedded in the RDATA of the legacy types lowercased and uncompressed.
// ttl overrides the record's TTL, as required when signing with the
// original TTL from the RRSIG. The canonical form is the byte stream over
// which both RRSIG signatures and ZONEMD digests are computed.
func AppendCanonicalRR(buf []byte, rr RR, ttl uint32) []byte {
	buf, _ = appendCanonicalRR(buf, rr, ttl)
	return buf
}

// CanonicalRR returns the canonical wire form of rr at ttl, plus the offset
// of the RDATA octets within it. Zone sidecars cache both so canonical sorts
// can tie-break on RDATA bytes without re-encoding.
func CanonicalRR(rr RR, ttl uint32) (wire []byte, rdataOff int) {
	return appendCanonicalRR(nil, rr, ttl)
}

// appendCanonicalRR is both of the above: the form appended to buf, and
// where in buf its RDATA starts.
func appendCanonicalRR(buf []byte, rr RR, ttl uint32) ([]byte, int) {
	buf = appendName(buf, rr.Name.Canonical(), 0, nil)
	buf = binary.BigEndian.AppendUint16(buf, uint16(rr.Type()))
	buf = binary.BigEndian.AppendUint16(buf, uint16(rr.Class))
	buf = binary.BigEndian.AppendUint32(buf, ttl)
	lenOff := len(buf)
	buf = append(buf, 0, 0)
	buf = canonicalData(rr.Data).appendTo(buf, 0, nil)
	binary.BigEndian.PutUint16(buf[lenOff:], uint16(len(buf)-lenOff-2))
	return buf, lenOff + 2
}

// canonicalData lowercases RDATA-embedded names for the types listed in
// RFC 4034 §6.2 (as updated by RFC 6840 §5.1, which keeps only the legacy
// types' names subject to case folding).
func canonicalData(d RData) RData {
	switch r := d.(type) {
	case NSRecord:
		return NSRecord{Host: r.Host.Canonical()}
	case CNAMERecord:
		return CNAMERecord{Target: r.Target.Canonical()}
	case PTRRecord:
		return PTRRecord{Target: r.Target.Canonical()}
	case MXRecord:
		return MXRecord{Preference: r.Preference, Host: r.Host.Canonical()}
	case SOARecord:
		r.MName = r.MName.Canonical()
		r.RName = r.RName.Canonical()
		return r
	case NSECRecord:
		return NSECRecord{NextName: r.NextName.Canonical(), Types: r.Types}
	default:
		return d
	}
}

// CanonicalRRLess orders two records per RFC 8976 §3.3.1 / RFC 4034 §6.3:
// by canonical owner name, then class, then type, then by canonical RDATA
// as an octet string.
func CanonicalRRLess(a, b RR) bool {
	if c := CompareCanonical(a.Name, b.Name); c != 0 {
		return c < 0
	}
	if a.Class != b.Class {
		return a.Class < b.Class
	}
	if a.Type() != b.Type() {
		return a.Type() < b.Type()
	}
	ra := canonicalData(a.Data).appendTo(nil, 0, nil)
	rb := canonicalData(b.Data).appendTo(nil, 0, nil)
	return string(ra) < string(rb)
}
