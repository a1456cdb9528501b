package dnssec

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"testing"
	"time"

	"repro/internal/dnswire"
	"repro/internal/zone"
)

// TestSignRRSIGDonorInsertionFirst pins the owner/TTL donor rule Sign has
// always had: within an RRset, the FIRST-INSERTED record lends its exact
// owner spelling and TTL to the RRSIG. Records of one RRset may disagree on
// case and TTL (canonical grouping folds case; signing normalizes TTL to
// OriginalTTL), and the donor choice is visible in the signed zone's bytes —
// so re-anchoring Sign on the canonical sidecar must keep selecting the
// minimum-original-index member, not the canonically-first one.
func TestSignRRSIGDonorInsertionFirst(t *testing.T) {
	s := NewDeterministicSigner(7)
	z := zone.New(dnswire.Root)
	z.Add(dnswire.RR{
		Name: dnswire.Root, Class: dnswire.ClassINET, TTL: 86400,
		Data: dnswire.SOARecord{
			MName:  dnswire.MustName("a.root-servers.net."),
			RName:  dnswire.MustName("nstld.verisign-grs.com."),
			Serial: 2023100100, Refresh: 1800, Retry: 900, Expire: 604800, Minimum: 86400,
		},
	})
	z.Add(dnswire.RR{Name: dnswire.Root, Class: dnswire.ClassINET, TTL: 518400,
		Data: dnswire.NSRecord{Host: dnswire.MustName("a.root-servers.net.")}})
	z.Add(dnswire.RR{Name: dnswire.MustName("tld."), Class: dnswire.ClassINET, TTL: 172800,
		Data: dnswire.NSRecord{Host: dnswire.MustName("ns1.tld.")}})
	// One DS RRset at the delegation, inserted upper-case/TTL-300 first, then
	// lower-case/TTL-60: canonically the TTL-60 record sorts first by RDATA,
	// but the donor must stay the TTL-300 spelling.
	z.Add(dnswire.RR{Name: dnswire.MustName("TLD."), Class: dnswire.ClassINET, TTL: 300,
		Data: dnswire.DSRecord{KeyTag: 2, Algorithm: 13, DigestType: 2, Digest: make([]byte, 32)}})
	lo := make([]byte, 32)
	lo[0] = 1
	z.Add(dnswire.RR{Name: dnswire.MustName("tld."), Class: dnswire.ClassINET, TTL: 60,
		Data: dnswire.DSRecord{KeyTag: 1, Algorithm: 13, DigestType: 2, Digest: lo}})

	signed, err := s.Sign(z, studyTime)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, rr := range signed.Records {
		sig, ok := rr.Data.(dnswire.RRSIGRecord)
		if !ok || sig.TypeCovered != dnswire.TypeDS {
			continue
		}
		found = true
		if got := rr.Name.String(); got != "TLD." {
			t.Errorf("DS RRSIG owner = %q, want first-inserted spelling \"TLD.\"", got)
		}
		if rr.TTL != 300 || sig.OriginalTTL != 300 {
			t.Errorf("DS RRSIG TTL/OriginalTTL = %d/%d, want first-inserted 300/300",
				rr.TTL, sig.OriginalTTL)
		}
	}
	if !found {
		t.Fatal("signed zone has no DS RRSIG")
	}
	anchor := s.TrustAnchor().Data.(dnswire.DSRecord)
	if err := ValidateZone(signed, anchor, studyTime.Add(time.Hour)); err != nil {
		t.Fatalf("mixed-case/TTL zone fails validation: %v", err)
	}
}

// TestSignZoneGoldenDigest pins the complete signed-zone bytes for a fixed
// seed, zone, and signing time. Everything in the chain is deterministic
// (seeded keys, RFC 6979-style nonces, canonical ordering), so this digest
// only moves when Sign's observable output does — it is the refactor guard
// for re-anchoring RRset grouping on the zone sidecar.
func TestSignZoneGoldenDigest(t *testing.T) {
	s := NewDeterministicSigner(7)
	cfg := zone.DefaultRootConfig()
	cfg.TLDCount = 12
	signed, err := s.Sign(zone.SynthesizeRoot(cfg), studyTime)
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	var ttl [4]byte
	for i, rr := range signed.Records {
		// Original spelling and TTL are part of the observable output (the
		// canonical wire form folds both away), so hash them explicitly.
		h.Write([]byte(rr.Name))
		binary.BigEndian.PutUint32(ttl[:], rr.TTL)
		h.Write(ttl[:])
		h.Write(signed.CanonicalWire(i))
	}
	const want = "a3b553ff256c1a52235db55479a40f856ee9e49ac97eebdaf3c52736be19e9c8"
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Errorf("signed zone digest drifted:\n got %s\nwant %s", got, want)
	}
}
