package zone

import (
	"bufio"
	"encoding/base64"
	"encoding/hex"
	"fmt"
	"io"
	"net/netip"
	"strconv"
	"strings"

	"repro/internal/dnswire"
)

// Print writes the zone in master-file format to w.
func (z *Zone) Print(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "$ORIGIN %s\n", z.Apex); err != nil {
		return err
	}
	for _, rr := range z.Records {
		if _, err := fmt.Fprintln(bw, rr.String()); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// Parse reads a zone in a practical master-file subset: one record per
// line, fields separated by whitespace. Supported conveniences beyond the
// format Print emits:
//
//   - comment lines (";") and blank lines,
//   - $ORIGIN (names ending without a dot are made relative to it),
//   - $TTL (default TTL for records that omit theirs),
//   - "@" as the current origin,
//   - owner-name inheritance (a line starting with whitespace reuses the
//     previous owner),
//   - omitted TTL and/or class (defaulting to $TTL and IN).
//
// A quoted TXT string is read with Go's escapes, as Print writes it. Other
// escapes and multi-line parentheses are not supported.
func Parse(r io.Reader, apex dnswire.Name) (*Zone, error) {
	z := New(apex)
	st := parseState{origin: apex, defaultTTL: 86400}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<22)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		raw := sc.Text()
		if i := strings.IndexByte(raw, ';'); i >= 0 {
			raw = raw[:i]
		}
		if strings.TrimSpace(raw) == "" {
			continue
		}
		if strings.HasPrefix(strings.TrimSpace(raw), "$") {
			if err := st.directive(strings.TrimSpace(raw)); err != nil {
				return nil, fmt.Errorf("zone: line %d: %w", lineNo, err)
			}
			continue
		}
		rr, err := st.parseLine(raw)
		if err != nil {
			return nil, fmt.Errorf("zone: line %d: %w", lineNo, err)
		}
		z.Add(rr)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("zone: read: %w", err)
	}
	return z, nil
}

// parseState carries the master-file context across lines.
type parseState struct {
	origin     dnswire.Name
	defaultTTL uint32
	lastOwner  dnswire.Name
}

func (st *parseState) directive(line string) error {
	fields := strings.Fields(line)
	switch fields[0] {
	case "$ORIGIN":
		if len(fields) < 2 {
			return fmt.Errorf("$ORIGIN needs an argument")
		}
		n, err := dnswire.NewName(fields[1])
		if err != nil {
			return err
		}
		st.origin = n
		return nil
	case "$TTL":
		if len(fields) < 2 {
			return fmt.Errorf("$TTL needs an argument")
		}
		v, err := strconv.ParseUint(fields[1], 10, 32)
		if err != nil {
			return fmt.Errorf("bad $TTL %q: %w", fields[1], err)
		}
		st.defaultTTL = uint32(v)
		return nil
	default:
		return fmt.Errorf("unsupported directive %q", fields[0])
	}
}

// qualify resolves a possibly relative or "@" name against the origin.
func (st *parseState) qualify(s string) (dnswire.Name, error) {
	if s == "@" {
		return st.origin, nil
	}
	if strings.HasSuffix(s, ".") {
		return dnswire.NewName(s)
	}
	if st.origin.IsRoot() {
		return dnswire.NewName(s + ".")
	}
	return dnswire.NewName(s + "." + string(st.origin))
}

// parseLine parses one record line with owner/TTL/class defaulting.
func (st *parseState) parseLine(raw string) (dnswire.RR, error) {
	startsWithSpace := len(raw) > 0 && (raw[0] == ' ' || raw[0] == '\t')
	fields := strings.Fields(raw)
	if len(fields) < 2 {
		return dnswire.RR{}, fmt.Errorf("short record %q", strings.TrimSpace(raw))
	}
	owner := st.lastOwner
	if !startsWithSpace {
		n, err := st.qualify(fields[0])
		if err != nil {
			return dnswire.RR{}, err
		}
		if strings.HasPrefix(string(n), "$") { // Print's line would be a directive
			return dnswire.RR{}, fmt.Errorf("owner %s would read as a directive", n)
		}
		owner = n
		fields = fields[1:]
	}
	if owner == "" {
		return dnswire.RR{}, fmt.Errorf("record with inherited owner before any owner line")
	}
	st.lastOwner = owner

	ttl := st.defaultTTL
	class := dnswire.ClassINET
	// Optional TTL and class may appear in either order before the type.
	for len(fields) > 0 {
		if v, err := strconv.ParseUint(fields[0], 10, 32); err == nil {
			ttl = uint32(v)
			fields = fields[1:]
			continue
		}
		if c, err := dnswire.ClassFromString(fields[0]); err == nil {
			// Guard against a type mnemonic that parses as a class (none do).
			class = c
			fields = fields[1:]
			continue
		}
		break
	}
	if len(fields) == 0 {
		return dnswire.RR{}, fmt.Errorf("record without type")
	}
	typ, err := dnswire.TypeFromString(fields[0])
	if err != nil {
		return dnswire.RR{}, err
	}
	// Qualify RDATA names for the name-bearing types.
	rdataFields := fields[1:]
	switch typ {
	case dnswire.TypeNS, dnswire.TypeCNAME:
		if len(rdataFields) >= 1 {
			n, err := st.qualify(rdataFields[0])
			if err != nil {
				return dnswire.RR{}, err
			}
			rdataFields = append([]string{string(n)}, rdataFields[1:]...)
		}
	case dnswire.TypeSOA:
		if len(rdataFields) >= 2 {
			mn, err := st.qualify(rdataFields[0])
			if err != nil {
				return dnswire.RR{}, err
			}
			rn, err := st.qualify(rdataFields[1])
			if err != nil {
				return dnswire.RR{}, err
			}
			rdataFields = append([]string{string(mn), string(rn)}, rdataFields[2:]...)
		}
	}
	data, err := parseRData(typ, rdataFields)
	if err != nil {
		return dnswire.RR{}, fmt.Errorf("%s %s: %w", owner, typ, err)
	}
	return dnswire.RR{Name: owner, Class: class, TTL: ttl, Data: data}, nil
}

// ParseRR parses a single master-file line in the format emitted by
// dnswire.RR.String: name, TTL, class, type, then type-specific fields.
func ParseRR(line string) (dnswire.RR, error) {
	fields := strings.Fields(line)
	if len(fields) < 4 {
		return dnswire.RR{}, fmt.Errorf("short record %q", line)
	}
	name, err := dnswire.NewName(fields[0])
	if err != nil {
		return dnswire.RR{}, err
	}
	ttl, err := strconv.ParseUint(fields[1], 10, 32)
	if err != nil {
		return dnswire.RR{}, fmt.Errorf("bad TTL %q: %w", fields[1], err)
	}
	class, err := dnswire.ClassFromString(fields[2])
	if err != nil {
		return dnswire.RR{}, err
	}
	typ, err := dnswire.TypeFromString(fields[3])
	if err != nil {
		return dnswire.RR{}, err
	}
	data, err := parseRData(typ, fields[4:])
	if err != nil {
		return dnswire.RR{}, fmt.Errorf("%s %s: %w", name, typ, err)
	}
	return dnswire.RR{Name: name, Class: class, TTL: uint32(ttl), Data: data}, nil
}

func parseRData(typ dnswire.Type, f []string) (dnswire.RData, error) {
	need := func(n int) error {
		if len(f) < n {
			return fmt.Errorf("want %d fields, have %d", n, len(f))
		}
		return nil
	}
	switch typ {
	case dnswire.TypeA:
		if err := need(1); err != nil {
			return nil, err
		}
		a, err := netip.ParseAddr(f[0])
		if err != nil || !a.Is4() {
			return nil, fmt.Errorf("bad IPv4 %q", f[0])
		}
		return dnswire.ARecord{Addr: a}, nil
	case dnswire.TypeAAAA:
		if err := need(1); err != nil {
			return nil, err
		}
		a, err := netip.ParseAddr(f[0])
		if err != nil || !a.Is6() || a.Is4In6() {
			return nil, fmt.Errorf("bad IPv6 %q", f[0])
		}
		return dnswire.AAAARecord{Addr: a}, nil
	case dnswire.TypeNS:
		if err := need(1); err != nil {
			return nil, err
		}
		h, err := dnswire.NewName(f[0])
		if err != nil {
			return nil, err
		}
		return dnswire.NSRecord{Host: h}, nil
	case dnswire.TypeCNAME:
		if err := need(1); err != nil {
			return nil, err
		}
		h, err := dnswire.NewName(f[0])
		if err != nil {
			return nil, err
		}
		return dnswire.CNAMERecord{Target: h}, nil
	case dnswire.TypeSOA:
		if err := need(7); err != nil {
			return nil, err
		}
		mname, err := dnswire.NewName(f[0])
		if err != nil {
			return nil, err
		}
		rname, err := dnswire.NewName(f[1])
		if err != nil {
			return nil, err
		}
		var nums [5]uint32
		for i := 0; i < 5; i++ {
			v, err := strconv.ParseUint(f[2+i], 10, 32)
			if err != nil {
				return nil, fmt.Errorf("bad SOA field %q", f[2+i])
			}
			nums[i] = uint32(v)
		}
		return dnswire.SOARecord{
			MName: mname, RName: rname,
			Serial: nums[0], Refresh: nums[1], Retry: nums[2],
			Expire: nums[3], Minimum: nums[4],
		}, nil
	case dnswire.TypeTXT:
		if err := need(1); err != nil {
			return nil, err
		}
		var strs []string
		rdlen := 0
		for _, s := range f {
			u, err := strconv.Unquote(s) // Print writes it Go-quoted
			if err != nil {
				u = strings.Trim(s, `"`)
			}
			// Print leaves a space and a ';' unescaped: a line would split
			// or end there.
			if strings.ContainsAny(u, " ;") {
				return nil, fmt.Errorf("TXT string %q holds a space or ';'", u)
			}
			// On the wire a string is a length byte and its bytes, and the
			// RDATA a 16-bit length (RFC 1035 §3.3.14).
			if len(u) > 255 {
				return nil, fmt.Errorf("TXT string of %d bytes, over 255", len(u))
			}
			if rdlen += 1 + len(u); rdlen > 65535 {
				return nil, fmt.Errorf("TXT RDATA of %d bytes or more, over 65,535", rdlen)
			}
			strs = append(strs, u)
		}
		return dnswire.TXTRecord{Strings: strs}, nil
	case dnswire.TypeDNSKEY:
		if err := need(4); err != nil {
			return nil, err
		}
		flags, err := strconv.ParseUint(f[0], 10, 16)
		if err != nil {
			return nil, fmt.Errorf("bad flags %q", f[0])
		}
		proto, err := strconv.ParseUint(f[1], 10, 8)
		if err != nil {
			return nil, fmt.Errorf("bad protocol %q", f[1])
		}
		alg, err := strconv.ParseUint(f[2], 10, 8)
		if err != nil {
			return nil, fmt.Errorf("bad algorithm %q", f[2])
		}
		key, err := base64.StdEncoding.DecodeString(strings.Join(f[3:], ""))
		if err != nil {
			return nil, fmt.Errorf("bad key: %w", err)
		}
		return dnswire.DNSKEYRecord{
			Flags: uint16(flags), Protocol: uint8(proto),
			Algorithm: uint8(alg), PublicKey: key,
		}, nil
	case dnswire.TypeRRSIG:
		if err := need(9); err != nil {
			return nil, err
		}
		covered, err := dnswire.TypeFromString(f[0])
		if err != nil {
			return nil, err
		}
		alg, err := strconv.ParseUint(f[1], 10, 8)
		if err != nil {
			return nil, fmt.Errorf("bad algorithm %q", f[1])
		}
		labels, err := strconv.ParseUint(f[2], 10, 8)
		if err != nil {
			return nil, fmt.Errorf("bad labels %q", f[2])
		}
		var nums [3]uint32
		for i := 0; i < 3; i++ {
			v, err := strconv.ParseUint(f[3+i], 10, 32)
			if err != nil {
				return nil, fmt.Errorf("bad RRSIG field %q", f[3+i])
			}
			nums[i] = uint32(v)
		}
		keyTag, err := strconv.ParseUint(f[6], 10, 16)
		if err != nil {
			return nil, fmt.Errorf("bad key tag %q", f[6])
		}
		signer, err := dnswire.NewName(f[7])
		if err != nil {
			return nil, err
		}
		sig, err := base64.StdEncoding.DecodeString(strings.Join(f[8:], ""))
		if err != nil {
			return nil, fmt.Errorf("bad signature: %w", err)
		}
		return dnswire.RRSIGRecord{
			TypeCovered: covered, Algorithm: uint8(alg), Labels: uint8(labels),
			OriginalTTL: nums[0], Expiration: nums[1], Inception: nums[2],
			KeyTag: uint16(keyTag), SignerName: signer, Signature: sig,
		}, nil
	case dnswire.TypeDS:
		if err := need(4); err != nil {
			return nil, err
		}
		keyTag, err := strconv.ParseUint(f[0], 10, 16)
		if err != nil {
			return nil, fmt.Errorf("bad key tag %q", f[0])
		}
		alg, err := strconv.ParseUint(f[1], 10, 8)
		if err != nil {
			return nil, fmt.Errorf("bad algorithm %q", f[1])
		}
		dt, err := strconv.ParseUint(f[2], 10, 8)
		if err != nil {
			return nil, fmt.Errorf("bad digest type %q", f[2])
		}
		digest, err := hex.DecodeString(strings.ToLower(strings.Join(f[3:], "")))
		if err != nil {
			return nil, fmt.Errorf("bad digest: %w", err)
		}
		return dnswire.DSRecord{
			KeyTag: uint16(keyTag), Algorithm: uint8(alg),
			DigestType: uint8(dt), Digest: digest,
		}, nil
	case dnswire.TypeNSEC:
		if err := need(1); err != nil {
			return nil, err
		}
		next, err := dnswire.NewName(f[0])
		if err != nil {
			return nil, err
		}
		var types []dnswire.Type
		for _, ts := range f[1:] {
			t, err := dnswire.TypeFromString(ts)
			if err != nil {
				return nil, err
			}
			types = append(types, t)
		}
		return dnswire.NSECRecord{NextName: next, Types: types}, nil
	case dnswire.TypeZONEMD:
		if err := need(4); err != nil {
			return nil, err
		}
		serial, err := strconv.ParseUint(f[0], 10, 32)
		if err != nil {
			return nil, fmt.Errorf("bad serial %q", f[0])
		}
		scheme, err := strconv.ParseUint(f[1], 10, 8)
		if err != nil {
			return nil, fmt.Errorf("bad scheme %q", f[1])
		}
		hash, err := strconv.ParseUint(f[2], 10, 8)
		if err != nil {
			return nil, fmt.Errorf("bad hash %q", f[2])
		}
		digest, err := hex.DecodeString(strings.ToLower(strings.Join(f[3:], "")))
		if err != nil {
			return nil, fmt.Errorf("bad digest: %w", err)
		}
		return dnswire.ZONEMDRecord{
			Serial: uint32(serial), Scheme: uint8(scheme),
			Hash: uint8(hash), Digest: digest,
		}, nil
	default:
		return nil, fmt.Errorf("unsupported type %s", typ)
	}
}
