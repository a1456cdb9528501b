package dnswire

import (
	"bytes"
	"errors"
	"reflect"
	"testing"
)

// viewSampleMessage is a kitchen-sink message: every RData type the codec
// knows, mixed-case names so canonical folding is visible, and enough
// repeated suffixes that Pack emits compression pointers in both owner
// names and RDATA (NS/CNAME/PTR/MX/SOA are the compressible types).
func viewSampleMessage() *Message {
	return &Message{
		Header: Header{ID: 0x1234, Response: true, Authoritative: true},
		Questions: []Question{
			{Name: MustName("Example.TLD."), Type: TypeSOA, Class: ClassINET},
		},
		Answers: []RR{
			{Name: MustName("Example.TLD."), Class: ClassINET, TTL: 3600,
				Data: SOARecord{
					MName: MustName("NS1.Example.TLD."), RName: MustName("Hostmaster.Example.TLD."),
					Serial: 2024010101, Refresh: 1800, Retry: 900, Expire: 604800, Minimum: 86400,
				}},
			{Name: MustName("Example.TLD."), Class: ClassINET, TTL: 518400,
				Data: NSRecord{Host: MustName("NS1.Example.TLD.")}},
			{Name: MustName("Example.TLD."), Class: ClassINET, TTL: 518400,
				Data: NSRecord{Host: MustName("ns2.example.tld.")}},
			{Name: MustName("Alias.Example.TLD."), Class: ClassINET, TTL: 300,
				Data: CNAMERecord{Target: MustName("WWW.Example.TLD.")}},
			{Name: MustName("Mail.Example.TLD."), Class: ClassINET, TTL: 300,
				Data: MXRecord{Preference: 10, Host: MustName("MX1.Example.TLD.")}},
			{Name: MustName("4.0.41.198.in-addr.arpa."), Class: ClassINET, TTL: 300,
				Data: PTRRecord{Target: MustName("NS1.Example.TLD.")}},
			{Name: MustName("Example.TLD."), Class: ClassINET, TTL: 60,
				Data: TXTRecord{Strings: []string{"v=spf1 -all", "second string"}}},
			{Name: MustName("Example.TLD."), Class: ClassINET, TTL: 3600,
				Data: RawRecord{RRType: Type(0xFF3A), Data: []byte{0xDE, 0xAD, 0xBE, 0xEF}}},
		},
		Authority: []RR{
			{Name: MustName("Example.TLD."), Class: ClassINET, TTL: 86400,
				Data: DNSKEYRecord{Flags: 257, Protocol: 3, Algorithm: 13,
					PublicKey: bytes.Repeat([]byte{0xAB}, 32)}},
			{Name: MustName("Example.TLD."), Class: ClassINET, TTL: 86400,
				Data: DSRecord{KeyTag: 12345, Algorithm: 13, DigestType: 2,
					Digest: bytes.Repeat([]byte{0xCD}, 32)}},
			{Name: MustName("Example.TLD."), Class: ClassINET, TTL: 86400,
				Data: ZONEMDRecord{Serial: 2024010101, Scheme: 1, Hash: 1,
					Digest: bytes.Repeat([]byte{0x5A}, 48)}},
			{Name: MustName("Example.TLD."), Class: ClassINET, TTL: 86400,
				Data: NSECRecord{NextName: MustName("Mail.Example.TLD."),
					Types: []Type{TypeNS, TypeSOA, TypeNSEC, TypeRRSIG}}},
			{Name: MustName("Example.TLD."), Class: ClassINET, TTL: 86400,
				Data: RRSIGRecord{TypeCovered: TypeNS, Algorithm: 13, Labels: 2,
					OriginalTTL: 518400, Expiration: 1700000000, Inception: 1690000000,
					KeyTag: 12345, SignerName: MustName("Example.TLD."),
					Signature: bytes.Repeat([]byte{0x77}, 64)}},
		},
		Additional: []RR{
			{Name: MustName("NS1.Example.TLD."), Class: ClassINET, TTL: 518400,
				Data: ARecord{Addr: mustAddr("198.41.0.4")}},
			{Name: MustName("NS1.Example.TLD."), Class: ClassINET, TTL: 518400,
				Data: AAAARecord{Addr: mustAddr("2001:503:ba3e::2:30")}},
		},
	}
}

// decodedSections flattens a decoded message in cursor order.
func decodedSections(m *Message) []RR {
	var all []RR
	all = append(all, m.Answers...)
	all = append(all, m.Authority...)
	return append(all, m.Additional...)
}

// TestViewCursorMatchesUnpack pins the lazy cursor against the full
// decoder on both compression layouts of the same message: same section
// counts, same fixed fields, same owner names, and Unpack-on-demand
// produces the identical decoded record.
func TestViewCursorMatchesUnpack(t *testing.T) {
	m := viewSampleMessage()
	for _, pack := range []struct {
		name string
		fn   func() ([]byte, error)
	}{
		{"compressed", m.Pack},
		{"uncompressed", m.PackUncompressed},
	} {
		wire, err := pack.fn()
		if err != nil {
			t.Fatalf("%s pack: %v", pack.name, err)
		}
		dec, err := Unpack(wire)
		if err != nil {
			t.Fatalf("%s unpack: %v", pack.name, err)
		}
		v, err := NewView(wire)
		if err != nil {
			t.Fatalf("%s view: %v", pack.name, err)
		}
		if v.ID() != dec.Header.ID || v.Rcode() != dec.Header.Rcode {
			t.Fatalf("%s: view header fields disagree with Unpack", pack.name)
		}
		want := decodedSections(dec)
		cur := v.Records()
		var raw RawRR
		i := 0
		for cur.Next(&raw) {
			if i >= len(want) {
				t.Fatalf("%s: cursor yielded more than %d records", pack.name, len(want))
			}
			rr := want[i]
			if raw.Type != rr.Type() || raw.Class != rr.Class || raw.TTL != rr.TTL {
				t.Fatalf("%s record %d: fixed fields (%v %v %d) vs decoded (%v %v %d)",
					pack.name, i, raw.Type, raw.Class, raw.TTL, rr.Type(), rr.Class, rr.TTL)
			}
			full, err := v.Unpack(&raw)
			if err != nil {
				t.Fatalf("%s record %d: on-demand unpack: %v", pack.name, i, err)
			}
			if !reflect.DeepEqual(full, rr) {
				t.Fatalf("%s record %d: on-demand unpack mismatch:\ngot  %+v\nwant %+v",
					pack.name, i, full, rr)
			}
			i++
		}
		if err := cur.Err(); err != nil {
			t.Fatalf("%s: cursor: %v", pack.name, err)
		}
		if i != len(want) {
			t.Fatalf("%s: cursor yielded %d records, Unpack %d", pack.name, i, len(want))
		}
	}
}

// TestViewAppendCanonicalMatchesFullDecode pins the compare-only path: the
// canonical bytes produced straight from the wire view must equal what
// AppendCanonicalRR produces from the fully decoded record — the same
// bytes the zone sidecar caches — on both compression layouts.
func TestViewAppendCanonicalMatchesFullDecode(t *testing.T) {
	m := viewSampleMessage()
	for _, pack := range []struct {
		name string
		fn   func() ([]byte, error)
	}{
		{"compressed", m.Pack},
		{"uncompressed", m.PackUncompressed},
	} {
		wire, err := pack.fn()
		if err != nil {
			t.Fatalf("%s pack: %v", pack.name, err)
		}
		dec, err := Unpack(wire)
		if err != nil {
			t.Fatalf("%s unpack: %v", pack.name, err)
		}
		v, err := NewView(wire)
		if err != nil {
			t.Fatalf("%s view: %v", pack.name, err)
		}
		want := decodedSections(dec)
		cur := v.Records()
		var raw RawRR
		i := 0
		for cur.Next(&raw) {
			got, err := v.AppendCanonical(nil, &raw)
			if err != nil {
				t.Fatalf("%s record %d: AppendCanonical: %v", pack.name, i, err)
			}
			ref := AppendCanonicalRR(nil, want[i], raw.TTL)
			if !bytes.Equal(got, ref) {
				t.Fatalf("%s record %d (%v): canonical bytes differ\nview: %x\nfull: %x",
					pack.name, i, raw.Type, got, ref)
			}
			i++
		}
		if err := cur.Err(); err != nil {
			t.Fatalf("%s: cursor: %v", pack.name, err)
		}
	}
}

// TestViewErrors covers the malformed-wire classifications of the view
// path: forward compression pointers, reserved label types, truncation.
func TestViewErrors(t *testing.T) {
	if _, err := NewView(make([]byte, 11)); !errors.Is(err, ErrTruncated) {
		t.Errorf("short header: %v, want ErrTruncated", err)
	}
	// Header claiming one answer, then a record whose owner name is a
	// forward pointer: the cursor skims past it (pointers end the
	// representation), but canonicalizing must reject it.
	msg := make([]byte, headerLen)
	msg[7] = 1                                       // ANCOUNT = 1
	msg = append(msg, 0xC0, 0x40)                    // pointer to offset 64 (forward)
	msg = append(msg, 0, 1, 0, 1, 0, 0, 0, 60, 0, 0) // TYPE A CLASS IN TTL 60 RDLEN 0
	v, err := NewView(msg)
	if err != nil {
		t.Fatal(err)
	}
	cur := v.Records()
	var raw RawRR
	if !cur.Next(&raw) {
		t.Fatalf("cursor should skim the forward-pointer record: %v", cur.Err())
	}
	if _, err := v.AppendOwner(nil, &raw); !errors.Is(err, ErrBadPointer) {
		t.Errorf("forward pointer: %v, want ErrBadPointer", err)
	}
	// Reserved label type in the owner name stops the cursor itself.
	msg2 := make([]byte, headerLen)
	msg2[7] = 1
	msg2 = append(msg2, 0x80, 0x00)
	v2, err := NewView(msg2)
	if err != nil {
		t.Fatal(err)
	}
	cur2 := v2.Records()
	if cur2.Next(&raw) {
		t.Fatal("cursor accepted a reserved label type")
	}
	if !errors.Is(cur2.Err(), ErrReservedLabel) {
		t.Errorf("reserved label: %v, want ErrReservedLabel", cur2.Err())
	}
	// A record whose RDLEN runs past the buffer is truncation.
	msg3 := make([]byte, headerLen)
	msg3[7] = 1
	msg3 = append(msg3, 0, 0, 1, 0, 1, 0, 0, 0, 60, 0, 4) // root owner, RDLEN 4, no RDATA
	v3, err := NewView(msg3)
	if err != nil {
		t.Fatal(err)
	}
	cur3 := v3.Records()
	if cur3.Next(&raw) {
		t.Fatal("cursor accepted truncated RDATA")
	}
	if !errors.Is(cur3.Err(), ErrTruncated) {
		t.Errorf("truncated rdata: %v, want ErrTruncated", cur3.Err())
	}
}

// TestViewWalkZeroAlloc pins the whole lazy loop — cursor iteration plus
// canonicalization into a reused buffer — at zero allocations per message.
func TestViewWalkZeroAlloc(t *testing.T) {
	wire, err := viewSampleMessage().Pack()
	if err != nil {
		t.Fatal(err)
	}
	v, err := NewView(wire)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 0, 4096)
	var raw RawRR
	var walkErr error
	allocs := testing.AllocsPerRun(100, func() {
		cur := v.Records()
		for cur.Next(&raw) {
			buf, walkErr = v.AppendCanonical(buf[:0], &raw)
			if walkErr != nil {
				return
			}
		}
		if cur.Err() != nil {
			walkErr = cur.Err()
		}
	})
	if walkErr != nil {
		t.Fatal(walkErr)
	}
	if allocs != 0 {
		t.Fatalf("lazy walk allocates %v times per message, want 0", allocs)
	}
}
