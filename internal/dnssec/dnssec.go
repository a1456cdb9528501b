// Package dnssec implements the subset of DNSSEC (RFC 4033-4035, RFC 5702,
// RFC 6605) the root zone uses: RSA/SHA-256 (the algorithm the real root
// signs with) and ECDSA-P256 key pairs, RRset signing and verification,
// whole-zone signing with a KSK/ZSK split, and trust-anchor validation with
// real inception/expiration checking. Signatures are genuine cryptographic
// signatures; a bitflipped zone fails verification for real, which is
// exactly what the paper's Table 2 taxonomy depends on.
package dnssec

import (
	"crypto"
	"crypto/ecdsa"
	"crypto/elliptic"
	"crypto/rand"
	"crypto/rsa"
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
	"math/big"
	"sort"
	"time"

	"repro/internal/dnswire"
)

// cryptoSHA256 names the hash for PKCS#1 v1.5 signatures.
const cryptoSHA256 = crypto.SHA256

// Validation errors, matching the reason taxonomy of the paper's Table 2.
var (
	ErrSignatureExpired     = errors.New("dnssec: signature expired")
	ErrSignatureNotIncepted = errors.New("dnssec: signature not yet incepted")
	ErrBogusSignature       = errors.New("dnssec: bogus signature")
	ErrNoSignature          = errors.New("dnssec: RRset has no covering RRSIG")
	ErrUnknownKey           = errors.New("dnssec: no DNSKEY matches key tag")
)

// Key is a DNSSEC signing key pair: exactly one of Private (ECDSA-P256,
// algorithm 13) or RSA (RSA/SHA-256, algorithm 8) is set.
type Key struct {
	Flags   uint16 // 256 = ZSK, 257 = KSK
	Private *ecdsa.PrivateKey
	RSA     *rsa.PrivateKey
}

// Algorithm returns the key's DNSSEC algorithm number.
func (k *Key) Algorithm() uint8 {
	if k.RSA != nil {
		return dnswire.AlgRSASHA256
	}
	return dnswire.AlgECDSAP256SHA256
}

// GenerateKey creates a P-256 key pair with the given flags, reading
// randomness from rnd (pass crypto/rand.Reader in production; tests may use
// a deterministic stream).
func GenerateKey(flags uint16, rnd io.Reader) (*Key, error) {
	if rnd == nil {
		rnd = rand.Reader
	}
	priv, err := ecdsa.GenerateKey(elliptic.P256(), rnd)
	if err != nil {
		return nil, fmt.Errorf("dnssec: generate key: %w", err)
	}
	return &Key{Flags: flags, Private: priv}, nil
}

// DeterministicKey derives a P-256 key pair from seed material. Unlike
// GenerateKey with a seeded reader — which the standard library deliberately
// de-randomizes via MaybeReadByte — the derivation is a pure function of
// seed, so identically seeded simulations hold identical keys across runs.
func DeterministicKey(flags uint16, seed []byte) *Key {
	curve := elliptic.P256()
	nMinus1 := new(big.Int).Sub(curve.Params().N, big.NewInt(1))
	h := sha256.Sum256(seed)
	d := new(big.Int).SetBytes(h[:])
	d.Mod(d, nMinus1)
	d.Add(d, big.NewInt(1)) // d in [1, n-1]
	x, y := curve.ScalarBaseMult(d.FillBytes(make([]byte, 32)))
	return &Key{Flags: flags, Private: &ecdsa.PrivateKey{
		PublicKey: ecdsa.PublicKey{Curve: curve, X: x, Y: y},
		D:         d,
	}}
}

// DNSKEY returns the public DNSKEY record for k with the given owner and TTL.
func (k *Key) DNSKEY(owner dnswire.Name, ttl uint32) dnswire.RR {
	var pub []byte
	if k.RSA != nil {
		pub = rsaPublicKeyBytes(&k.RSA.PublicKey)
	} else {
		pub = publicKeyBytes(&k.Private.PublicKey)
	}
	return dnswire.RR{
		Name: owner, Class: dnswire.ClassINET, TTL: ttl,
		Data: dnswire.DNSKEYRecord{
			Flags:     k.Flags,
			Protocol:  3,
			Algorithm: k.Algorithm(),
			PublicKey: pub,
		},
	}
}

// publicKeyBytes encodes the public key per RFC 6605 §4: Q = x | y,
// uncompressed, without the 0x04 prefix.
func publicKeyBytes(pub *ecdsa.PublicKey) []byte {
	out := make([]byte, 64)
	pub.X.FillBytes(out[:32])
	pub.Y.FillBytes(out[32:])
	return out
}

// KeyTag computes the RFC 4034 Appendix B key tag of a DNSKEY.
func KeyTag(dk dnswire.DNSKEYRecord) uint16 {
	rdata := dnskeyRdata(dk)
	var acc uint32
	for i, b := range rdata {
		if i&1 == 0 {
			acc += uint32(b) << 8
		} else {
			acc += uint32(b)
		}
	}
	acc += acc >> 16 & 0xFFFF
	return uint16(acc & 0xFFFF)
}

// Tag returns the key tag of k's public DNSKEY.
func (k *Key) Tag() uint16 {
	return KeyTag(k.DNSKEY(dnswire.Root, 0).Data.(dnswire.DNSKEYRecord))
}

// DS returns the SHA-256 delegation-signer digest record for k
// (RFC 4509), for publication in the parent or as a trust anchor.
func (k *Key) DS(owner dnswire.Name, ttl uint32) dnswire.RR {
	dk := k.DNSKEY(owner, ttl).Data.(dnswire.DNSKEYRecord)
	// DS digest input is canonical owner name | DNSKEY RDATA (RFC 4034 §5.1.4).
	h := sha256.New()
	h.Write(canonicalOwner(owner))
	h.Write(dnskeyRdata(dk))
	return dnswire.RR{
		Name: owner, Class: dnswire.ClassINET, TTL: ttl,
		Data: dnswire.DSRecord{
			KeyTag:     KeyTag(dk),
			Algorithm:  dk.Algorithm,
			DigestType: 2, // SHA-256
			Digest:     h.Sum(nil),
		},
	}
}

func canonicalOwner(n dnswire.Name) []byte {
	var out []byte
	for _, label := range n.Canonical().Labels() {
		out = append(out, byte(len(label)))
		out = append(out, label...)
	}
	return append(out, 0)
}

func dnskeyRdata(dk dnswire.DNSKEYRecord) []byte {
	out := []byte{byte(dk.Flags >> 8), byte(dk.Flags), dk.Protocol, dk.Algorithm}
	return append(out, dk.PublicKey...)
}

// SignRRset signs an RRset (records sharing owner, class, and type) with k,
// valid from inception to expiration. The signature covers the RFC 4034
// §3.1.8.1 byte stream: RRSIG preamble (with canonical signer) followed by
// the canonically ordered, canonical-form RRs.
func SignRRset(k *Key, rrset []dnswire.RR, signer dnswire.Name, inception, expiration time.Time) (dnswire.RR, error) {
	if len(rrset) == 0 {
		return dnswire.RR{}, errors.New("dnssec: empty RRset")
	}
	owner := rrset[0].Name
	ttl := rrset[0].TTL
	sig := dnswire.RRSIGRecord{
		TypeCovered: rrset[0].Type(),
		Algorithm:   k.Algorithm(),
		Labels:      uint8(len(owner.Labels())),
		OriginalTTL: ttl,
		Expiration:  uint32(expiration.Unix()),
		Inception:   uint32(inception.Unix()),
		KeyTag:      k.Tag(),
		SignerName:  signer.Canonical(),
	}
	digest := signedData(sig, rrset)
	if k.RSA != nil {
		raw, err := signRSA(k.RSA, digest)
		if err != nil {
			return dnswire.RR{}, fmt.Errorf("dnssec: sign: %w", err)
		}
		sig.Signature = raw
		return dnswire.RR{Name: owner, Class: rrset[0].Class, TTL: ttl, Data: sig}, nil
	}
	r, s := signECDSADeterministic(k.Private, digest)
	raw := make([]byte, 64)
	r.FillBytes(raw[:32])
	s.FillBytes(raw[32:])
	sig.Signature = raw
	return dnswire.RR{Name: owner, Class: rrset[0].Class, TTL: ttl, Data: sig}, nil
}

// signECDSADeterministic produces an RFC 6979-style deterministic ECDSA
// signature: the nonce is derived from the private scalar and the message
// digest rather than fresh randomness, so signing the same RRset with the
// same key yields identical signature bytes. Byte-identical signatures are
// what lets identically seeded campaign runs render byte-identical reports
// (Fig. 10 prints raw RRSIG bytes) regardless of worker count or process.
func signECDSADeterministic(priv *ecdsa.PrivateKey, digest []byte) (r, s *big.Int) {
	curve := priv.Curve
	n := curve.Params().N
	z := new(big.Int).SetBytes(digest)
	dBytes := priv.D.FillBytes(make([]byte, 32))
	for ctr := 0; ; ctr++ {
		h := sha256.New()
		h.Write(dBytes)
		h.Write(digest)
		h.Write([]byte{byte(ctr)})
		k := new(big.Int).SetBytes(h.Sum(nil))
		k.Mod(k, n)
		if k.Sign() == 0 {
			continue
		}
		rx, _ := curve.ScalarBaseMult(k.FillBytes(make([]byte, 32)))
		r = new(big.Int).Mod(rx, n)
		if r.Sign() == 0 {
			continue
		}
		s = new(big.Int).Mul(r, priv.D)
		s.Add(s, z)
		s.Mul(s, new(big.Int).ModInverse(k, n))
		s.Mod(s, n)
		if s.Sign() == 0 {
			continue
		}
		return r, s
	}
}

// signedData hashes the byte stream covered by sig over rrset.
func signedData(sig dnswire.RRSIGRecord, rrset []dnswire.RR) []byte {
	h := sha256.New()
	preamble := sig
	preamble.Signature = nil
	preamble.SignerName = preamble.SignerName.Canonical()
	var buf []byte
	buf = appendRRSIGPreamble(buf, preamble)
	h.Write(buf)

	ordered := append([]dnswire.RR(nil), rrset...)
	sort.SliceStable(ordered, func(i, j int) bool {
		return dnswire.CanonicalRRLess(ordered[i], ordered[j])
	})
	for _, rr := range ordered {
		h.Write(dnswire.AppendCanonicalRR(nil, rr, sig.OriginalTTL))
	}
	return h.Sum(nil)
}

// appendRRSIGPreamble rebuilds the covered RRSIG RDATA prefix without
// depending on dnswire internals.
func appendRRSIGPreamble(buf []byte, sig dnswire.RRSIGRecord) []byte {
	buf = append(buf, byte(sig.TypeCovered>>8), byte(sig.TypeCovered))
	buf = append(buf, sig.Algorithm, sig.Labels)
	for _, v := range []uint32{sig.OriginalTTL, sig.Expiration, sig.Inception} {
		buf = append(buf, byte(v>>24), byte(v>>16), byte(v>>8), byte(v))
	}
	buf = append(buf, byte(sig.KeyTag>>8), byte(sig.KeyTag))
	return append(buf, canonicalOwner(sig.SignerName)...)
}

// checkTemporal enforces the signature validity window at time now. These
// checks depend on the validation time and are therefore never cached.
func checkTemporal(sig dnswire.RRSIGRecord, now time.Time) error {
	ts := uint32(now.Unix())
	// RFC 1982-style comparisons are overkill for the study window; direct
	// comparison is correct through 2106.
	if ts > sig.Expiration {
		return fmt.Errorf("%w: expired %s, validated %s", ErrSignatureExpired,
			time.Unix(int64(sig.Expiration), 0).UTC().Format(time.RFC3339),
			now.UTC().Format(time.RFC3339))
	}
	if ts < sig.Inception {
		return fmt.Errorf("%w: incepted %s, validated %s", ErrSignatureNotIncepted,
			time.Unix(int64(sig.Inception), 0).UTC().Format(time.RFC3339),
			now.UTC().Format(time.RFC3339))
	}
	return nil
}

// findKey locates the DNSKEY matching sig's key tag and algorithm.
func findKey(keys []dnswire.DNSKEYRecord, sig dnswire.RRSIGRecord) *dnswire.DNSKEYRecord {
	for i := range keys {
		if KeyTag(keys[i]) == sig.KeyTag && keys[i].Algorithm == sig.Algorithm {
			return &keys[i]
		}
	}
	return nil
}

// verifyCrypto checks sig's raw signature bytes over digest with key. The
// outcome is a pure function of (key, digest, signature), which is what makes
// positive verdicts cacheable on the zone sidecar.
func verifyCrypto(sig dnswire.RRSIGRecord, key *dnswire.DNSKEYRecord, digest []byte) error {
	switch sig.Algorithm {
	case dnswire.AlgRSASHA256:
		return verifyRSA(key.PublicKey, digest, sig.Signature)
	case dnswire.AlgECDSAP256SHA256:
		if len(key.PublicKey) != 64 || len(sig.Signature) != 64 {
			return fmt.Errorf("%w: malformed key or signature length", ErrBogusSignature)
		}
		pub := ecdsa.PublicKey{
			Curve: elliptic.P256(),
			X:     new(big.Int).SetBytes(key.PublicKey[:32]),
			Y:     new(big.Int).SetBytes(key.PublicKey[32:]),
		}
		r := new(big.Int).SetBytes(sig.Signature[:32])
		s := new(big.Int).SetBytes(sig.Signature[32:])
		if !ecdsa.Verify(&pub, digest, r, s) {
			return ErrBogusSignature
		}
		return nil
	default:
		return fmt.Errorf("%w: unsupported algorithm %d", ErrBogusSignature, sig.Algorithm)
	}
}
