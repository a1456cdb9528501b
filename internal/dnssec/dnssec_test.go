package dnssec

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/dnswire"
	"repro/internal/zone"
)

var studyTime = time.Date(2023, 10, 1, 12, 0, 0, 0, time.UTC)

func newTestSigner(t *testing.T) *Signer {
	t.Helper()
	s, err := NewSigner(rand.New(rand.NewSource(42)))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func testRRset() []dnswire.RR {
	return []dnswire.RR{
		{Name: dnswire.Root, Class: dnswire.ClassINET, TTL: 518400,
			Data: dnswire.NSRecord{Host: dnswire.MustName("a.root-servers.net.")}},
		{Name: dnswire.Root, Class: dnswire.ClassINET, TTL: 518400,
			Data: dnswire.NSRecord{Host: dnswire.MustName("b.root-servers.net.")}},
	}
}

// verifyRRset checks sig over rrset against the DNSKEYs in keys at time now:
// the uncached form of verifyRRsetCached, for RRsets outside a zone. It
// returns nil on success, or one of the taxonomy errors.
func verifyRRset(sig dnswire.RRSIGRecord, rrset []dnswire.RR, keys []dnswire.DNSKEYRecord, now time.Time) error {
	if err := checkTemporal(sig, now); err != nil {
		return err
	}
	key := findKey(keys, sig)
	if key == nil {
		return fmt.Errorf("%w: tag %d", ErrUnknownKey, sig.KeyTag)
	}
	return verifyCrypto(sig, key, signedData(sig, rrset))
}

func TestSignVerifyRRset(t *testing.T) {
	s := newTestSigner(t)
	rrset := testRRset()
	sigRR, err := SignRRset(s.ZSK, rrset, dnswire.Root, studyTime, studyTime.Add(14*24*time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	sig := sigRR.Data.(dnswire.RRSIGRecord)
	keys := []dnswire.DNSKEYRecord{
		s.ZSK.DNSKEY(dnswire.Root, 172800).Data.(dnswire.DNSKEYRecord),
		s.KSK.DNSKEY(dnswire.Root, 172800).Data.(dnswire.DNSKEYRecord),
	}
	if err := verifyRRset(sig, rrset, keys, studyTime.Add(time.Hour)); err != nil {
		t.Errorf("verify: %v", err)
	}
}

// TestDeterministicSignerReproducible pins the property the campaign
// engine's byte-identical reports rest on: the same seed yields the same
// keys and the same RRSIG bytes, across signer instances.
func TestDeterministicSignerReproducible(t *testing.T) {
	a := NewDeterministicSigner(7)
	b := NewDeterministicSigner(7)
	if a.ZSK.Private.D.Cmp(b.ZSK.Private.D) != 0 || a.KSK.Private.D.Cmp(b.KSK.Private.D) != 0 {
		t.Fatal("same seed produced different keys")
	}
	c := NewDeterministicSigner(8)
	if a.ZSK.Private.D.Cmp(c.ZSK.Private.D) == 0 {
		t.Fatal("different seeds produced the same ZSK")
	}
	if a.KSK.Private.D.Cmp(a.ZSK.Private.D) == 0 {
		t.Fatal("KSK and ZSK collide")
	}

	rrset := testRRset()
	exp := studyTime.Add(14 * 24 * time.Hour)
	sigA, err := SignRRset(a.ZSK, rrset, dnswire.Root, studyTime, exp)
	if err != nil {
		t.Fatal(err)
	}
	sigB, err := SignRRset(b.ZSK, rrset, dnswire.Root, studyTime, exp)
	if err != nil {
		t.Fatal(err)
	}
	rawA := sigA.Data.(dnswire.RRSIGRecord).Signature
	rawB := sigB.Data.(dnswire.RRSIGRecord).Signature
	if string(rawA) != string(rawB) {
		t.Fatal("same key and RRset produced different signature bytes")
	}
	keys := []dnswire.DNSKEYRecord{a.ZSK.DNSKEY(dnswire.Root, 172800).Data.(dnswire.DNSKEYRecord)}
	if err := verifyRRset(sigA.Data.(dnswire.RRSIGRecord), rrset, keys, studyTime.Add(time.Hour)); err != nil {
		t.Fatalf("deterministic signature does not verify: %v", err)
	}
}

func TestVerifyRRsetOrderIndependent(t *testing.T) {
	s := newTestSigner(t)
	rrset := testRRset()
	sigRR, err := SignRRset(s.ZSK, rrset, dnswire.Root, studyTime, studyTime.Add(time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	sig := sigRR.Data.(dnswire.RRSIGRecord)
	keys := []dnswire.DNSKEYRecord{s.ZSK.DNSKEY(dnswire.Root, 172800).Data.(dnswire.DNSKEYRecord)}
	reversed := []dnswire.RR{rrset[1], rrset[0]}
	if err := verifyRRset(sig, reversed, keys, studyTime); err != nil {
		t.Errorf("verify reversed: %v", err)
	}
}

func TestVerifyTimeWindow(t *testing.T) {
	s := newTestSigner(t)
	rrset := testRRset()
	sigRR, err := SignRRset(s.ZSK, rrset, dnswire.Root, studyTime, studyTime.Add(time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	sig := sigRR.Data.(dnswire.RRSIGRecord)
	keys := []dnswire.DNSKEYRecord{s.ZSK.DNSKEY(dnswire.Root, 172800).Data.(dnswire.DNSKEYRecord)}

	if err := verifyRRset(sig, rrset, keys, studyTime.Add(2*time.Hour)); !errors.Is(err, ErrSignatureExpired) {
		t.Errorf("after expiration: %v, want ErrSignatureExpired", err)
	}
	if err := verifyRRset(sig, rrset, keys, studyTime.Add(-time.Hour)); !errors.Is(err, ErrSignatureNotIncepted) {
		t.Errorf("before inception: %v, want ErrSignatureNotIncepted", err)
	}
}

func TestVerifyUnknownKey(t *testing.T) {
	s := newTestSigner(t)
	rrset := testRRset()
	sigRR, err := SignRRset(s.ZSK, rrset, dnswire.Root, studyTime, studyTime.Add(time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	sig := sigRR.Data.(dnswire.RRSIGRecord)
	// Only the KSK offered: tag will not match the ZSK's signature.
	keys := []dnswire.DNSKEYRecord{s.KSK.DNSKEY(dnswire.Root, 172800).Data.(dnswire.DNSKEYRecord)}
	if err := verifyRRset(sig, rrset, keys, studyTime); !errors.Is(err, ErrUnknownKey) {
		t.Errorf("got %v, want ErrUnknownKey", err)
	}
}

func TestBitflipBreaksSignature(t *testing.T) {
	s := newTestSigner(t)
	rrset := testRRset()
	sigRR, err := SignRRset(s.ZSK, rrset, dnswire.Root, studyTime, studyTime.Add(time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	sig := sigRR.Data.(dnswire.RRSIGRecord)
	keys := []dnswire.DNSKEYRecord{s.ZSK.DNSKEY(dnswire.Root, 172800).Data.(dnswire.DNSKEYRecord)}

	// Flip one bit in the covered data: the host name of the first NS.
	flipped := testRRset()
	flipped[0].Data = dnswire.NSRecord{Host: dnswire.MustName("c.root-servers.net.")}
	if err := verifyRRset(sig, flipped, keys, studyTime); !errors.Is(err, ErrBogusSignature) {
		t.Errorf("flipped data: %v, want ErrBogusSignature", err)
	}
	// Flip one bit in the signature itself.
	badSig := sig
	badSig.Signature = append([]byte(nil), sig.Signature...)
	badSig.Signature[10] ^= 0x01
	if err := verifyRRset(badSig, rrset, keys, studyTime); !errors.Is(err, ErrBogusSignature) {
		t.Errorf("flipped signature: %v, want ErrBogusSignature", err)
	}
}

func TestAnySingleBitflipFailsVerification(t *testing.T) {
	// Property: flipping a random bit of a random signature byte always
	// yields ErrBogusSignature (P-256 signatures have no malleable bits in
	// this encoding given a fixed message).
	s := newTestSigner(t)
	rrset := testRRset()
	sigRR, err := SignRRset(s.ZSK, rrset, dnswire.Root, studyTime, studyTime.Add(time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	sig := sigRR.Data.(dnswire.RRSIGRecord)
	keys := []dnswire.DNSKEYRecord{s.ZSK.DNSKEY(dnswire.Root, 172800).Data.(dnswire.DNSKEYRecord)}
	f := func(pos uint16, bit uint8) bool {
		bad := sig
		bad.Signature = append([]byte(nil), sig.Signature...)
		bad.Signature[int(pos)%len(bad.Signature)] ^= 1 << (bit % 8)
		return errors.Is(verifyRRset(bad, rrset, keys, studyTime), ErrBogusSignature)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 64}); err != nil {
		t.Error(err)
	}
}

func TestKeyTagStable(t *testing.T) {
	s := newTestSigner(t)
	dk := s.ZSK.DNSKEY(dnswire.Root, 172800).Data.(dnswire.DNSKEYRecord)
	if KeyTag(dk) != s.ZSK.Tag() {
		t.Error("Tag() disagrees with KeyTag()")
	}
	dk2 := dk
	dk2.PublicKey = append([]byte(nil), dk.PublicKey...)
	dk2.PublicKey[0] ^= 0xFF
	if KeyTag(dk2) == KeyTag(dk) {
		t.Error("key tag unchanged after key mutation (unlikely)")
	}
}

func TestSignZoneAndValidate(t *testing.T) {
	s := newTestSigner(t)
	cfg := zone.DefaultRootConfig()
	cfg.TLDCount = 30
	unsigned := zone.SynthesizeRoot(cfg)
	signed, err := s.Sign(unsigned, studyTime)
	if err != nil {
		t.Fatal(err)
	}
	anchor := s.TrustAnchor().Data.(dnswire.DSRecord)
	if err := ValidateZone(signed, anchor, studyTime.Add(24*time.Hour)); err != nil {
		t.Fatalf("validate: %v", err)
	}
	// Signed zone must contain DNSKEY, RRSIG, NSEC records.
	for _, typ := range []dnswire.Type{dnswire.TypeDNSKEY, dnswire.TypeRRSIG, dnswire.TypeNSEC} {
		found := false
		for _, rr := range signed.Records {
			if rr.Type() == typ {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("signed zone lacks %s records", typ)
		}
	}
}

func TestValidateZoneDetectsTampering(t *testing.T) {
	s := newTestSigner(t)
	cfg := zone.DefaultRootConfig()
	cfg.TLDCount = 10
	signed, err := s.Sign(zone.SynthesizeRoot(cfg), studyTime)
	if err != nil {
		t.Fatal(err)
	}
	anchor := s.TrustAnchor().Data.(dnswire.DSRecord)

	// Tamper with the SOA serial (a signed apex RRset).
	tampered := signed.BumpSerial(signed.Serial() + 1)
	err = ValidateZone(tampered, anchor, studyTime)
	if !errors.Is(err, ErrBogusSignature) {
		t.Errorf("tampered zone: %v, want ErrBogusSignature", err)
	}

	// Validate far in the future: expired.
	err = ValidateZone(signed, anchor, studyTime.Add(30*24*time.Hour))
	if !errors.Is(err, ErrSignatureExpired) {
		t.Errorf("future validation: %v, want ErrSignatureExpired", err)
	}

	// Validate before inception (minus skew): not incepted.
	err = ValidateZone(signed, anchor, studyTime.Add(-24*time.Hour))
	if !errors.Is(err, ErrSignatureNotIncepted) {
		t.Errorf("past validation: %v, want ErrSignatureNotIncepted", err)
	}

	// Wrong trust anchor.
	other := newTestSigner(t)
	// Different randomness stream: regenerate with a different seed.
	otherSigner, err := NewSigner(rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatal(err)
	}
	_ = other
	err = ValidateZone(signed, otherSigner.TrustAnchor().Data.(dnswire.DSRecord), studyTime)
	if !errors.Is(err, ErrBogusSignature) {
		t.Errorf("wrong anchor: %v, want ErrBogusSignature", err)
	}
}

func TestSignRejectsAlreadySigned(t *testing.T) {
	s := newTestSigner(t)
	cfg := zone.DefaultRootConfig()
	cfg.TLDCount = 5
	signed, err := s.Sign(zone.SynthesizeRoot(cfg), studyTime)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Sign(signed, studyTime); err == nil {
		t.Error("re-signing a signed zone succeeded")
	}
}

func TestNSECChainClosed(t *testing.T) {
	s := newTestSigner(t)
	cfg := zone.DefaultRootConfig()
	cfg.TLDCount = 12
	signed, err := s.Sign(zone.SynthesizeRoot(cfg), studyTime)
	if err != nil {
		t.Fatal(err)
	}
	// Follow the NSEC chain from the apex; it must return to the apex after
	// visiting every NSEC owner exactly once.
	nsecAt := make(map[dnswire.Name]dnswire.NSECRecord)
	for _, rr := range signed.Records {
		if n, ok := rr.Data.(dnswire.NSECRecord); ok {
			nsecAt[rr.Name.Canonical()] = n
		}
	}
	if len(nsecAt) == 0 {
		t.Fatal("no NSEC records")
	}
	cur := dnswire.Root
	for i := 0; i < len(nsecAt); i++ {
		n, ok := nsecAt[cur]
		if !ok {
			t.Fatalf("chain broken at %s", cur)
		}
		cur = n.NextName.Canonical()
	}
	if cur != dnswire.Root {
		t.Errorf("chain did not close: ended at %s", cur)
	}
}

func TestDSRecordFormat(t *testing.T) {
	s := newTestSigner(t)
	ds := s.TrustAnchor().Data.(dnswire.DSRecord)
	if ds.DigestType != 2 || len(ds.Digest) != 32 {
		t.Errorf("DS = %+v", ds)
	}
	if ds.KeyTag != s.KSK.Tag() {
		t.Error("DS key tag mismatch")
	}
}

func TestGlueNotSigned(t *testing.T) {
	s := newTestSigner(t)
	cfg := zone.DefaultRootConfig()
	cfg.TLDCount = 5
	signed, err := s.Sign(zone.SynthesizeRoot(cfg), studyTime)
	if err != nil {
		t.Fatal(err)
	}
	for _, rr := range signed.Records {
		sig, ok := rr.Data.(dnswire.RRSIGRecord)
		if !ok {
			continue
		}
		if rr.Name != dnswire.Root && (sig.TypeCovered == dnswire.TypeA ||
			sig.TypeCovered == dnswire.TypeAAAA || sig.TypeCovered == dnswire.TypeNS) {
			t.Errorf("non-apex %s RRSIG over %s: glue/delegations must not be signed",
				rr.Name, sig.TypeCovered)
		}
	}
}

func TestRSASignVerify(t *testing.T) {
	ksk, err := GenerateRSAKey(257, rand.New(rand.NewSource(11)))
	if err != nil {
		t.Fatal(err)
	}
	if ksk.Algorithm() != dnswire.AlgRSASHA256 {
		t.Fatalf("algorithm = %d", ksk.Algorithm())
	}
	rrset := testRRset()
	sigRR, err := SignRRset(ksk, rrset, dnswire.Root, studyTime, studyTime.Add(time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	sig := sigRR.Data.(dnswire.RRSIGRecord)
	if sig.Algorithm != dnswire.AlgRSASHA256 {
		t.Errorf("RRSIG algorithm = %d", sig.Algorithm)
	}
	keys := []dnswire.DNSKEYRecord{ksk.DNSKEY(dnswire.Root, 172800).Data.(dnswire.DNSKEYRecord)}
	if err := verifyRRset(sig, rrset, keys, studyTime); err != nil {
		t.Errorf("verify: %v", err)
	}
	// A single bit flip breaks it.
	bad := sig
	bad.Signature = append([]byte(nil), sig.Signature...)
	bad.Signature[20] ^= 0x04
	if err := verifyRRset(bad, rrset, keys, studyTime); !errors.Is(err, ErrBogusSignature) {
		t.Errorf("flipped RSA signature: %v", err)
	}
	// Covered-data change breaks it.
	flipped := testRRset()
	flipped[0].Data = dnswire.NSRecord{Host: dnswire.MustName("x.root-servers.net.")}
	if err := verifyRRset(sig, flipped, keys, studyTime); !errors.Is(err, ErrBogusSignature) {
		t.Errorf("flipped RSA data: %v", err)
	}
}

func TestRSAPublicKeyRoundTrip(t *testing.T) {
	k, err := GenerateRSAKey(256, rand.New(rand.NewSource(12)))
	if err != nil {
		t.Fatal(err)
	}
	wire := rsaPublicKeyBytes(&k.RSA.PublicKey)
	back, err := parseRSAPublicKey(wire)
	if err != nil {
		t.Fatal(err)
	}
	if back.E != k.RSA.PublicKey.E || back.N.Cmp(k.RSA.PublicKey.N) != 0 {
		t.Error("RSA public key round trip mismatch")
	}
	if _, err := parseRSAPublicKey([]byte{1}); err == nil {
		t.Error("truncated key accepted")
	}
	if _, err := parseRSAPublicKey([]byte{1, 0, 5, 6}); err == nil {
		t.Error("implausible exponent accepted")
	}
}

func TestMixedAlgorithmZone(t *testing.T) {
	// RSA KSK + ECDSA ZSK, like a real algorithm-rollover transition state:
	// the validator must handle both algorithms in one DNSKEY RRset.
	ksk, err := GenerateRSAKey(257, rand.New(rand.NewSource(13)))
	if err != nil {
		t.Fatal(err)
	}
	zsk, err := GenerateKey(256, rand.New(rand.NewSource(14)))
	if err != nil {
		t.Fatal(err)
	}
	s := &Signer{KSK: ksk, ZSK: zsk,
		SignatureValidity: 14 * 24 * time.Hour, InceptionSkew: 4 * time.Hour}
	cfg := zone.DefaultRootConfig()
	cfg.TLDCount = 8
	signed, err := s.Sign(zone.SynthesizeRoot(cfg), studyTime)
	if err != nil {
		t.Fatal(err)
	}
	anchor := s.TrustAnchor().Data.(dnswire.DSRecord)
	if anchor.Algorithm != dnswire.AlgRSASHA256 {
		t.Errorf("anchor algorithm = %d", anchor.Algorithm)
	}
	if err := ValidateZone(signed, anchor, studyTime.Add(time.Hour)); err != nil {
		t.Errorf("mixed-algorithm zone validation: %v", err)
	}
}

func TestUnsupportedAlgorithmRejected(t *testing.T) {
	s := newTestSigner(t)
	rrset := testRRset()
	sigRR, err := SignRRset(s.ZSK, rrset, dnswire.Root, studyTime, studyTime.Add(time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	sig := sigRR.Data.(dnswire.RRSIGRecord)
	sig.Algorithm = 5 // RSASHA1: unsupported here
	dk := s.ZSK.DNSKEY(dnswire.Root, 172800).Data.(dnswire.DNSKEYRecord)
	dk.Algorithm = 5
	// Mutating the algorithm changes the key tag, so the lookup may fail
	// with ErrUnknownKey before reaching the algorithm switch; recompute
	// the tag so the key matches and the algorithm check is exercised.
	sig.KeyTag = KeyTag(dk)
	err = verifyRRset(sig, rrset, []dnswire.DNSKEYRecord{dk}, studyTime)
	if !errors.Is(err, ErrBogusSignature) {
		t.Errorf("unsupported algorithm verdict: %v", err)
	}
}
