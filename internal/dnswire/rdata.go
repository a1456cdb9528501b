package dnswire

import (
	"encoding/base64"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"net/netip"
	"sort"
	"strings"
)

// RData is the type-specific payload of a resource record.
//
// appendTo appends the RDATA wire form to buf; off is the message offset at
// which the RDATA begins and cm the active compression map (nil when
// compression is forbidden, e.g. in DNSSEC canonical form).
type RData interface {
	// Type returns the RR type this payload belongs to.
	Type() Type
	// String returns the presentation form of the RDATA fields.
	String() string

	appendTo(buf []byte, off int, cm *compressor) []byte
}

// ARecord is an IPv4 address record (RFC 1035 §3.4.1).
type ARecord struct{ Addr netip.Addr }

// Type implements RData.
func (ARecord) Type() Type { return TypeA }

// String implements RData.
func (r ARecord) String() string { return r.Addr.String() }

func (r ARecord) appendTo(buf []byte, _ int, _ *compressor) []byte {
	a4 := r.Addr.As4()
	return append(buf, a4[:]...)
}

// AAAARecord is an IPv6 address record (RFC 3596).
type AAAARecord struct{ Addr netip.Addr }

// Type implements RData.
func (AAAARecord) Type() Type { return TypeAAAA }

// String implements RData.
func (r AAAARecord) String() string { return r.Addr.String() }

func (r AAAARecord) appendTo(buf []byte, _ int, _ *compressor) []byte {
	a16 := r.Addr.As16()
	return append(buf, a16[:]...)
}

// NSRecord is a delegation record (RFC 1035 §3.3.11).
type NSRecord struct{ Host Name }

// Type implements RData.
func (NSRecord) Type() Type { return TypeNS }

// String implements RData.
func (r NSRecord) String() string { return string(r.Host) }

func (r NSRecord) appendTo(buf []byte, off int, cm *compressor) []byte {
	return appendName(buf, r.Host, off, cm)
}

// CNAMERecord is an alias record (RFC 1035 §3.3.1).
type CNAMERecord struct{ Target Name }

// Type implements RData.
func (CNAMERecord) Type() Type { return TypeCNAME }

// String implements RData.
func (r CNAMERecord) String() string { return string(r.Target) }

func (r CNAMERecord) appendTo(buf []byte, off int, cm *compressor) []byte {
	return appendName(buf, r.Target, off, cm)
}

// PTRRecord is a pointer record (RFC 1035 §3.3.12).
type PTRRecord struct{ Target Name }

// Type implements RData.
func (PTRRecord) Type() Type { return TypePTR }

// String implements RData.
func (r PTRRecord) String() string { return string(r.Target) }

func (r PTRRecord) appendTo(buf []byte, off int, cm *compressor) []byte {
	return appendName(buf, r.Target, off, cm)
}

// MXRecord is a mail exchanger record (RFC 1035 §3.3.9).
type MXRecord struct {
	Preference uint16
	Host       Name
}

// Type implements RData.
func (MXRecord) Type() Type { return TypeMX }

// String implements RData.
func (r MXRecord) String() string { return fmt.Sprintf("%d %s", r.Preference, r.Host) }

func (r MXRecord) appendTo(buf []byte, off int, cm *compressor) []byte {
	buf = binary.BigEndian.AppendUint16(buf, r.Preference)
	return appendName(buf, r.Host, off+2, cm)
}

// SOARecord is a start-of-authority record (RFC 1035 §3.3.13).
type SOARecord struct {
	MName   Name
	RName   Name
	Serial  uint32
	Refresh uint32
	Retry   uint32
	Expire  uint32
	Minimum uint32
}

// Type implements RData.
func (SOARecord) Type() Type { return TypeSOA }

// String implements RData.
func (r SOARecord) String() string {
	return fmt.Sprintf("%s %s %d %d %d %d %d",
		r.MName, r.RName, r.Serial, r.Refresh, r.Retry, r.Expire, r.Minimum)
}

func (r SOARecord) appendTo(buf []byte, off int, cm *compressor) []byte {
	start := len(buf)
	buf = appendName(buf, r.MName, off, cm)
	buf = appendName(buf, r.RName, off+(len(buf)-start), cm)
	buf = binary.BigEndian.AppendUint32(buf, r.Serial)
	buf = binary.BigEndian.AppendUint32(buf, r.Refresh)
	buf = binary.BigEndian.AppendUint32(buf, r.Retry)
	buf = binary.BigEndian.AppendUint32(buf, r.Expire)
	return binary.BigEndian.AppendUint32(buf, r.Minimum)
}

// TXTRecord is a text record (RFC 1035 §3.3.14): one or more
// character-strings of up to 255 octets each.
type TXTRecord struct{ Strings []string }

// Type implements RData.
func (TXTRecord) Type() Type { return TypeTXT }

// String implements RData.
func (r TXTRecord) String() string {
	parts := make([]string, len(r.Strings))
	for i, s := range r.Strings {
		parts[i] = fmt.Sprintf("%q", s)
	}
	return strings.Join(parts, " ")
}

func (r TXTRecord) appendTo(buf []byte, _ int, _ *compressor) []byte {
	for _, s := range r.Strings {
		if len(s) > 255 {
			s = s[:255]
		}
		buf = append(buf, byte(len(s)))
		buf = append(buf, s...)
	}
	return buf
}

// DNSKEYRecord is a DNSSEC public key (RFC 4034 §2).
type DNSKEYRecord struct {
	Flags     uint16 // 256 = ZSK, 257 = KSK (SEP bit set)
	Protocol  uint8  // always 3
	Algorithm uint8
	PublicKey []byte
}

// Type implements RData.
func (DNSKEYRecord) Type() Type { return TypeDNSKEY }

// String implements RData.
func (r DNSKEYRecord) String() string {
	return fmt.Sprintf("%d %d %d %s", r.Flags, r.Protocol, r.Algorithm,
		base64.StdEncoding.EncodeToString(r.PublicKey))
}

func (r DNSKEYRecord) appendTo(buf []byte, _ int, _ *compressor) []byte {
	buf = binary.BigEndian.AppendUint16(buf, r.Flags)
	buf = append(buf, r.Protocol, r.Algorithm)
	return append(buf, r.PublicKey...)
}

// IsKSK reports whether the SEP flag bit is set.
func (r DNSKEYRecord) IsKSK() bool { return r.Flags&1 != 0 }

// RRSIGRecord is a DNSSEC signature (RFC 4034 §3).
type RRSIGRecord struct {
	TypeCovered Type
	Algorithm   uint8
	Labels      uint8
	OriginalTTL uint32
	Expiration  uint32 // seconds since epoch
	Inception   uint32
	KeyTag      uint16
	SignerName  Name
	Signature   []byte
}

// Type implements RData.
func (RRSIGRecord) Type() Type { return TypeRRSIG }

// String implements RData.
func (r RRSIGRecord) String() string {
	return fmt.Sprintf("%s %d %d %d %d %d %d %s %s",
		r.TypeCovered, r.Algorithm, r.Labels, r.OriginalTTL,
		r.Expiration, r.Inception, r.KeyTag, r.SignerName,
		base64.StdEncoding.EncodeToString(r.Signature))
}

func (r RRSIGRecord) appendTo(buf []byte, _ int, _ *compressor) []byte {
	buf = r.appendPreamble(buf)
	return append(buf, r.Signature...)
}

// appendPreamble appends everything up to but excluding the signature field.
// The signer name is emitted uncompressed, case preserved; signers that need
// the RFC 4034 §3.1.8.1 canonical prefix lowercase SignerName first.
func (r RRSIGRecord) appendPreamble(buf []byte) []byte {
	buf = binary.BigEndian.AppendUint16(buf, uint16(r.TypeCovered))
	buf = append(buf, r.Algorithm, r.Labels)
	buf = binary.BigEndian.AppendUint32(buf, r.OriginalTTL)
	buf = binary.BigEndian.AppendUint32(buf, r.Expiration)
	buf = binary.BigEndian.AppendUint32(buf, r.Inception)
	buf = binary.BigEndian.AppendUint16(buf, r.KeyTag)
	return appendName(buf, r.SignerName, 0, nil)
}

// DSRecord is a delegation signer record (RFC 4034 §5).
type DSRecord struct {
	KeyTag     uint16
	Algorithm  uint8
	DigestType uint8
	Digest     []byte
}

// Type implements RData.
func (DSRecord) Type() Type { return TypeDS }

// String implements RData.
func (r DSRecord) String() string {
	return fmt.Sprintf("%d %d %d %s", r.KeyTag, r.Algorithm, r.DigestType,
		strings.ToUpper(hex.EncodeToString(r.Digest)))
}

func (r DSRecord) appendTo(buf []byte, _ int, _ *compressor) []byte {
	buf = binary.BigEndian.AppendUint16(buf, r.KeyTag)
	buf = append(buf, r.Algorithm, r.DigestType)
	return append(buf, r.Digest...)
}

// NSECRecord is an authenticated-denial record (RFC 4034 §4).
type NSECRecord struct {
	NextName Name
	Types    []Type
}

// Type implements RData.
func (NSECRecord) Type() Type { return TypeNSEC }

// String implements RData.
func (r NSECRecord) String() string {
	parts := []string{string(r.NextName)}
	for _, t := range r.Types {
		parts = append(parts, t.String())
	}
	return strings.Join(parts, " ")
}

func (r NSECRecord) appendTo(buf []byte, _ int, _ *compressor) []byte {
	buf = appendName(buf, r.NextName, 0, nil)
	return appendTypeBitmap(buf, r.Types)
}

// appendTypeBitmap appends the RFC 4034 §4.1.2 windowed type bitmap.
func appendTypeBitmap(buf []byte, types []Type) []byte {
	if len(types) == 0 {
		return buf
	}
	sorted := append([]Type(nil), types...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	window := -1
	var bitmap [32]byte
	maxOctet := 0
	flush := func() {
		if window >= 0 {
			buf = append(buf, byte(window), byte(maxOctet+1))
			buf = append(buf, bitmap[:maxOctet+1]...)
		}
		bitmap = [32]byte{}
		maxOctet = 0
	}
	for _, t := range sorted {
		w := int(t >> 8)
		if w != window {
			flush()
			window = w
		}
		low := int(t & 0xFF)
		bitmap[low/8] |= 0x80 >> (low % 8)
		if low/8 > maxOctet {
			maxOctet = low / 8
		}
	}
	flush()
	return buf
}

// decodeTypeBitmap parses the windowed type bitmap in data.
func decodeTypeBitmap(data []byte) ([]Type, error) {
	var types []Type
	for len(data) > 0 {
		if len(data) < 2 {
			return nil, ErrTruncated
		}
		window, octets := int(data[0]), int(data[1])
		if octets == 0 || octets > 32 || len(data) < 2+octets {
			return nil, fmt.Errorf("dnswire: bad type bitmap window length %d", octets)
		}
		for i := 0; i < octets; i++ {
			for bit := 0; bit < 8; bit++ {
				if data[2+i]&(0x80>>bit) != 0 {
					types = append(types, Type(window<<8|i*8+bit))
				}
			}
		}
		data = data[2+octets:]
	}
	return types, nil
}

// ZONEMDRecord is a zone message digest (RFC 8976 §2).
type ZONEMDRecord struct {
	Serial uint32
	Scheme uint8
	Hash   uint8
	Digest []byte
}

// Type implements RData.
func (ZONEMDRecord) Type() Type { return TypeZONEMD }

// String implements RData.
func (r ZONEMDRecord) String() string {
	return fmt.Sprintf("%d %d %d %s", r.Serial, r.Scheme, r.Hash,
		strings.ToUpper(hex.EncodeToString(r.Digest)))
}

func (r ZONEMDRecord) appendTo(buf []byte, _ int, _ *compressor) []byte {
	buf = binary.BigEndian.AppendUint32(buf, r.Serial)
	buf = append(buf, r.Scheme, r.Hash)
	return append(buf, r.Digest...)
}

// OPTRecord is the EDNS0 pseudo-record (RFC 6891). Only the UDP payload size
// and DO bit are modeled; they are carried in the RR's Class and TTL fields
// by the message codec.
type OPTRecord struct {
	UDPSize uint16
	Do      bool
}

// Type implements RData.
func (OPTRecord) Type() Type { return TypeOPT }

// String implements RData.
func (r OPTRecord) String() string {
	return fmt.Sprintf("EDNS0 udp=%d do=%v", r.UDPSize, r.Do)
}

func (OPTRecord) appendTo(buf []byte, _ int, _ *compressor) []byte { return buf }

// RawRecord carries RDATA of a type this codec does not interpret
// (RFC 3597 treatment).
type RawRecord struct {
	RRType Type
	Data   []byte
}

// Type implements RData.
func (r RawRecord) Type() Type { return r.RRType }

// String implements RData.
func (r RawRecord) String() string {
	return fmt.Sprintf("\\# %d %s", len(r.Data), strings.ToUpper(hex.EncodeToString(r.Data)))
}

func (r RawRecord) appendTo(buf []byte, _ int, _ *compressor) []byte {
	return append(buf, r.Data...)
}
