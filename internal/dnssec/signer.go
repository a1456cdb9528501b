package dnssec

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"slices"
	"time"

	"repro/internal/dnswire"
	"repro/internal/zone"
)

// Signer signs whole zones with a KSK/ZSK split, as the root zone is signed:
// the KSK signs the DNSKEY RRset, the ZSK signs everything else.
type Signer struct {
	KSK *Key
	ZSK *Key
	// SignatureValidity is the inception→expiration window; the real root
	// uses roughly two weeks with staggered windows.
	SignatureValidity time.Duration
	// InceptionSkew backdates inception to tolerate slightly slow clocks.
	InceptionSkew time.Duration
}

// NewSigner generates a fresh ECDSA-P256 KSK+ZSK signer with root-like
// validity parameters. rnd may be nil for crypto/rand. The simulation
// defaults to ECDSA for signing speed; NewRSASigner matches the real root's
// algorithm.
func NewSigner(rnd interface{ Read([]byte) (int, error) }) (*Signer, error) {
	ksk, err := GenerateKey(257, rnd)
	if err != nil {
		return nil, err
	}
	zsk, err := GenerateKey(256, rnd)
	if err != nil {
		return nil, err
	}
	return &Signer{
		KSK:               ksk,
		ZSK:               zsk,
		SignatureValidity: 14 * 24 * time.Hour,
		InceptionSkew:     4 * time.Hour,
	}, nil
}

// NewDeterministicSigner derives an ECDSA-P256 KSK+ZSK signer purely from
// seed: the same seed always yields the same keys and (signing being
// deterministic) the same signature bytes, which makes whole simulation
// reports reproducible byte-for-byte across runs and worker counts.
func NewDeterministicSigner(seed int64) *Signer {
	return &Signer{
		KSK:               DeterministicKey(257, []byte(fmt.Sprintf("repro-ksk:%d", seed))),
		ZSK:               DeterministicKey(256, []byte(fmt.Sprintf("repro-zsk:%d", seed))),
		SignatureValidity: 14 * 24 * time.Hour,
		InceptionSkew:     4 * time.Hour,
	}
}

// NewRSASigner generates an RSA/SHA-256 KSK+ZSK signer — algorithm 8, the
// one the real root zone signs with.
func NewRSASigner(rnd interface{ Read([]byte) (int, error) }) (*Signer, error) {
	ksk, err := GenerateRSAKey(257, rnd)
	if err != nil {
		return nil, err
	}
	zsk, err := GenerateRSAKey(256, rnd)
	if err != nil {
		return nil, err
	}
	return &Signer{
		KSK:               ksk,
		ZSK:               zsk,
		SignatureValidity: 14 * 24 * time.Hour,
		InceptionSkew:     4 * time.Hour,
	}, nil
}

// TrustAnchor returns the DS record for the signer's KSK at the root, the
// validator's trust anchor.
func (s *Signer) TrustAnchor() dnswire.RR {
	return s.KSK.DS(dnswire.Root, 172800)
}

// rrsetKey groups records into RRsets.
type rrsetKey struct {
	name dnswire.Name
	typ  dnswire.Type
}

// Sign returns a signed copy of z at time now: DNSKEY RRset added and
// KSK-signed, every other RRset ZSK-signed, NSEC chain built over the owner
// names. The input zone must not already contain DNSSEC records.
func (s *Signer) Sign(z *zone.Zone, now time.Time) (*zone.Zone, error) {
	for _, rr := range z.Records {
		switch rr.Type() {
		case dnswire.TypeRRSIG, dnswire.TypeNSEC, dnswire.TypeDNSKEY:
			return nil, fmt.Errorf("dnssec: zone already contains %s records", rr.Type())
		}
	}
	soa, ok := z.SOA()
	if !ok {
		return nil, errors.New("dnssec: zone has no SOA")
	}
	minTTL := soa.Data.(dnswire.SOARecord).Minimum

	// Copy-on-write: z's sidecar is shared, and the records added below are
	// merged into its canonical order, not the zone re-sorted around them.
	out := z.CloneCOW()
	const dnskeyTTL = 172800
	out.Add(s.KSK.DNSKEY(z.Apex, dnskeyTTL), s.ZSK.DNSKEY(z.Apex, dnskeyTTL))
	out.Add(s.nsecChain(out, minTTL)...)

	inception := now.Add(-s.InceptionSkew)
	expiration := now.Add(s.SignatureValidity)

	// The zone sidecar already partitions the records into RRsets in
	// canonical order, so grouping needs no map-and-sort pass of its own.
	// The RRSIG's owner spelling and TTL come from the set's FIRST-INSERTED
	// record (the minimum original index) — the donor rule Sign has always
	// had, pinned byte-for-byte by TestSignZoneGoldenDigest — whereas the
	// sidecar orders members canonically, so the donor is re-selected here.
	var sigs []dnswire.RR
	var members []dnswire.RR
	for _, set := range out.RRsetIndices() {
		donor := set[0]
		for _, i := range set[1:] {
			if i < donor {
				donor = i
			}
		}
		first := out.Records[donor]
		// Glue (and other non-authoritative data below delegations) is not
		// signed. In the root zone only the apex and TLD delegation points
		// exist; NS sets at non-apex names are delegations and also unsigned,
		// but their NSEC and DS records would be — we sign NSEC here.
		if isGlueOrDelegation(z.Apex, first.Name, first.Type()) {
			continue
		}
		key := s.ZSK
		if first.Type() == dnswire.TypeDNSKEY {
			key = s.KSK
		}
		members = append(members[:0], first)
		for _, i := range set {
			if i != donor {
				members = append(members, out.Records[i])
			}
		}
		sig, err := SignRRset(key, members, z.Apex, inception, expiration)
		if err != nil {
			return nil, err
		}
		sigs = append(sigs, sig)
	}
	out.Add(sigs...)
	return out.Canonicalize(), nil
}

// isGlueOrDelegation reports whether an RRset (owner, typ) is
// non-authoritative data: NS sets below the apex (delegations) or address
// records at names below a delegation point (glue).
func isGlueOrDelegation(apex, owner dnswire.Name, typ dnswire.Type) bool {
	if owner.Canonical() == apex.Canonical() {
		return false
	}
	switch typ {
	case dnswire.TypeNS:
		return true
	case dnswire.TypeA, dnswire.TypeAAAA:
		return true // in a root zone, every non-apex A/AAAA is glue
	}
	return false
}

// nsecChain builds the NSEC chain over the zone's authoritative owner names.
// For the root zone, authoritative names are the apex and the TLDs.
func (s *Signer) nsecChain(z *zone.Zone, ttl uint32) []dnswire.RR {
	typesAt := make(map[dnswire.Name]map[dnswire.Type]bool)
	for _, rr := range z.Records {
		n := rr.Name.Canonical()
		if isGlueOrDelegation(z.Apex, rr.Name, rr.Type()) && rr.Type() != dnswire.TypeNS {
			continue
		}
		if typesAt[n] == nil {
			typesAt[n] = make(map[dnswire.Type]bool)
		}
		typesAt[n][rr.Type()] = true
	}
	names := make([]dnswire.Name, 0, len(typesAt))
	for n := range typesAt {
		names = append(names, n)
	}
	slices.SortFunc(names, dnswire.CompareCanonical)
	chain := make([]dnswire.RR, 0, len(names))
	for i, n := range names {
		next := names[(i+1)%len(names)]
		var types []dnswire.Type
		for t := range typesAt[n] {
			types = append(types, t)
		}
		types = append(types, dnswire.TypeNSEC, dnswire.TypeRRSIG)
		slices.Sort(types)
		chain = append(chain, dnswire.RR{
			Name: n, Class: dnswire.ClassINET, TTL: ttl,
			Data: dnswire.NSECRecord{NextName: next, Types: types},
		})
	}
	return chain
}

// ValidateZone fully validates a signed zone at time now: every signed RRset
// must carry at least one RRSIG that verifies against the zone's DNSKEY
// RRset, and the DNSKEY RRset itself must match the trust anchor DS. It
// returns the first error found, classified by the taxonomy errors.
func ValidateZone(z *zone.Zone, anchor dnswire.DSRecord, now time.Time) error {
	dnskeyRRs := z.Lookup(z.Apex, dnswire.TypeDNSKEY)
	if len(dnskeyRRs) == 0 {
		return errors.New("dnssec: zone has no DNSKEY RRset")
	}
	keys := make([]dnswire.DNSKEYRecord, 0, len(dnskeyRRs))
	anchorOK := false
	for _, rr := range dnskeyRRs {
		dk := rr.Data.(dnswire.DNSKEYRecord)
		keys = append(keys, dk)
		if dk.IsKSK() && KeyTag(dk) == anchor.KeyTag {
			if dsMatches(z.Apex, dk, anchor) {
				anchorOK = true
			}
		}
	}
	if !anchorOK {
		return fmt.Errorf("%w: DNSKEY RRset does not match trust anchor", ErrBogusSignature)
	}

	// Record indices (not copies) key the signature list so cached crypto
	// verdicts can be attached to the zone's sidecar per RRSIG.
	sigsFor := make(map[rrsetKey][]int)
	for i, rr := range z.Records {
		if sig, ok := rr.Data.(dnswire.RRSIGRecord); ok {
			k := rrsetKey{rr.Name.Canonical(), sig.TypeCovered}
			sigsFor[k] = append(sigsFor[k], i)
		}
	}
	// The sidecar's RRset groups arrive in canonical (name, type) order —
	// the same order signing iterates — so the first validation error
	// reported is deterministic.
	for _, set := range z.RRsetIndices() {
		first := z.Records[set[0]]
		t := first.Type()
		if t == dnswire.TypeRRSIG || isGlueOrDelegation(z.Apex, first.Name, t) {
			continue
		}
		k := rrsetKey{first.Name.Canonical(), t}
		sigIdxs := sigsFor[k]
		if len(sigIdxs) == 0 {
			return fmt.Errorf("%w: %s/%s", ErrNoSignature, k.name, k.typ)
		}
		var lastErr error
		ok := false
		for _, si := range sigIdxs {
			sig := z.Records[si].Data.(dnswire.RRSIGRecord)
			if err := verifyRRsetCached(z, si, sig, set, keys, now); err != nil {
				lastErr = fmt.Errorf("%s/%s: %w", k.name, k.typ, err)
			} else {
				ok = true
				break
			}
		}
		if !ok {
			return lastErr
		}
	}
	return nil
}

// verifyRRsetCached verifies sig over a zone-resident RRset (set holds
// record indices, canonically ordered): temporal checks and key lookup run
// every time, but a signature whose crypto already verified against this
// zone's keys is accepted without redoing the ~50µs ECDSA verification —
// the dominant cost of warm-zone validation. Negative outcomes are never
// cached, so bogus signatures reproduce their exact error detail.
func verifyRRsetCached(z *zone.Zone, sigIdx int, sig dnswire.RRSIGRecord, set []int, keys []dnswire.DNSKEYRecord, now time.Time) error {
	if err := checkTemporal(sig, now); err != nil {
		return err
	}
	key := findKey(keys, sig)
	if key == nil {
		return fmt.Errorf("%w: tag %d", ErrUnknownKey, sig.KeyTag)
	}
	if z.SigVerdict(sigIdx) {
		return nil
	}
	if err := verifyCrypto(sig, key, signedDataZone(sig, z, set)); err != nil {
		return err
	}
	z.SetSigVerdict(sigIdx, true)
	return nil
}

// signedDataZone hashes the RFC 4034 §3.1.8.1 byte stream for a zone-resident
// RRset using the sidecar's cached canonical wire forms. set is already in
// canonical order, so unlike signedData no sort is needed; records whose TTL
// differs from the signature's original TTL fall back to a fresh encode into
// a reused scratch buffer.
func signedDataZone(sig dnswire.RRSIGRecord, z *zone.Zone, set []int) []byte {
	h := sha256.New()
	preamble := sig
	preamble.Signature = nil
	preamble.SignerName = preamble.SignerName.Canonical()
	h.Write(appendRRSIGPreamble(nil, preamble))
	var scratch []byte
	for _, i := range set {
		rr := z.Records[i]
		if rr.TTL == sig.OriginalTTL {
			h.Write(z.CanonicalWire(i))
		} else {
			scratch = dnswire.AppendCanonicalRR(scratch[:0], rr, sig.OriginalTTL)
			h.Write(scratch)
		}
	}
	return h.Sum(nil)
}

// dsMatches recomputes the DS digest of dk and compares it to anchor.
func dsMatches(owner dnswire.Name, dk dnswire.DNSKEYRecord, anchor dnswire.DSRecord) bool {
	if anchor.DigestType != 2 {
		return false
	}
	h := sha256.New()
	h.Write(canonicalOwner(owner))
	h.Write(dnskeyRdata(dk))
	return bytes.Equal(h.Sum(nil), anchor.Digest)
}
