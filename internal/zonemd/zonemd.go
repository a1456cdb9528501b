// Package zonemd implements RFC 8976 zone message digests for the SIMPLE
// scheme with SHA-384, plus the placeholder state the root zone used during
// the incremental rollout (a private-use hash algorithm whose digest does
// not verify). It provides the integrity check at the heart of the paper's
// RQ3: any bitflip or stale record in a transferred zone changes the digest.
package zonemd

import (
	"bytes"
	"crypto/sha512"
	"errors"
	"fmt"
	"time"

	"repro/internal/dnssec"
	"repro/internal/dnswire"
	"repro/internal/zone"
)

// Validation errors.
var (
	ErrNoZONEMD       = errors.New("zonemd: zone has no ZONEMD record")
	ErrSerialMismatch = errors.New("zonemd: ZONEMD serial does not match SOA serial")
	ErrUnsupported    = errors.New("zonemd: unsupported scheme or hash algorithm")
	ErrDigestMismatch = errors.New("zonemd: digest mismatch")
)

// RolloutState describes how ZONEMD appears in a zone, mirroring the root
// zone's phased deployment (Fig. 2 of the paper).
type RolloutState int

// Rollout states in deployment order.
const (
	// StateAbsent: no ZONEMD record (before 2023-09-13).
	StateAbsent RolloutState = iota
	// StatePlaceholder: ZONEMD present with a private hash algorithm; not
	// verifiable (2023-09-13 to 2023-12-06).
	StatePlaceholder
	// StateVerifiable: ZONEMD with SHA-384; validates (from 2023-12-06).
	StateVerifiable
)

// String returns a human-readable state name.
func (s RolloutState) String() string {
	switch s {
	case StateAbsent:
		return "absent"
	case StatePlaceholder:
		return "placeholder"
	case StateVerifiable:
		return "verifiable"
	}
	return fmt.Sprintf("RolloutState(%d)", int(s))
}

// Root zone rollout dates (UTC) from the paper's timeline.
var (
	PlaceholderDate = time.Date(2023, 9, 13, 0, 0, 0, 0, time.UTC)
	VerifiableDate  = time.Date(2023, 12, 6, 20, 30, 0, 0, time.UTC)
)

// StateAt returns the root zone's rollout state at time t.
func StateAt(t time.Time) RolloutState {
	switch {
	case t.Before(PlaceholderDate):
		return StateAbsent
	case t.Before(VerifiableDate):
		return StatePlaceholder
	default:
		return StateVerifiable
	}
}

// Digest computes the RFC 8976 SIMPLE/SHA-384 digest of z: the SHA-384 over
// the canonical forms of all records in canonical order, excluding the apex
// ZONEMD RRset and its covering RRSIGs, and excluding duplicate RRs.
func Digest(z *zone.Zone) ([]byte, error) {
	if _, ok := z.SOA(); !ok {
		return nil, errors.New("zonemd: zone has no SOA")
	}
	// Walk the zone's cached canonical order and wire forms. Filtering the
	// sorted stream is equivalent to the spec's sort-then-filter (removing
	// elements never reorders the survivors of a stable sort), so the digest
	// bytes are unchanged — but a warm zone digests with zero re-encoding.
	apex := z.Apex.Canonical()
	h := sha512.New384()
	var prev []byte
	for _, i := range z.CanonicalOrder() {
		rr := z.Records[i]
		if rr.Name.Canonical() == apex {
			if rr.Type() == dnswire.TypeZONEMD {
				continue
			}
			if sig, ok := rr.Data.(dnswire.RRSIGRecord); ok && sig.TypeCovered == dnswire.TypeZONEMD {
				continue
			}
		}
		wire := z.CanonicalWire(i)
		if bytes.Equal(wire, prev) {
			continue // RFC 8976 §3.3.1: duplicate RRs are digested once
		}
		h.Write(wire)
		prev = wire
	}
	return h.Sum(nil), nil
}

// attach computes the digest of z and returns a copy carrying the matching
// ZONEMD record at the apex, as the copy's last record (not yet in canonical
// order). state selects the record's form: StatePlaceholder writes a
// private-use hash algorithm with an all-zero digest; StateVerifiable writes
// SIMPLE/SHA-384 with the true digest; StateAbsent returns an unmodified copy.
func attach(z *zone.Zone, state RolloutState) (*zone.Zone, error) {
	out := z.WithoutType(dnswire.TypeZONEMD)
	if state == StateAbsent {
		return out, nil
	}
	soa, _ := out.SOA()
	rec := dnswire.ZONEMDRecord{
		Serial: out.Serial(),
		Scheme: dnswire.ZonemdSchemeSimple,
	}
	switch state {
	case StatePlaceholder:
		rec.Hash = dnswire.ZonemdHashPrivateMin
		rec.Digest = make([]byte, 48)
	case StateVerifiable:
		rec.Hash = dnswire.ZonemdHashSHA384
		// The ZONEMD record must be present (with placeholder digest) while
		// computing, per RFC 8976 §3.1 — but since the apex ZONEMD RRset is
		// excluded from the digest entirely, computing on the stripped zone
		// is equivalent.
		d, err := Digest(out)
		if err != nil {
			return nil, err
		}
		rec.Digest = d
	}
	out.Add(dnswire.RR{
		Name: out.Apex, Class: dnswire.ClassINET, TTL: soa.TTL, Data: rec,
	})
	return out, nil
}

// AttachAndSign attaches a ZONEMD record to an already-signed zone and signs
// the new ZONEMD RRset with the signer's ZSK, mirroring deployment order in
// the real root zone (the digest excludes the apex ZONEMD RRset and its
// RRSIGs, so signing after digesting is sound). The record and its signature
// are placed in canonical order together, once.
func AttachAndSign(z *zone.Zone, s *dnssec.Signer, state RolloutState, now time.Time) (*zone.Zone, error) {
	out, err := attach(z, state)
	if err != nil || state == StateAbsent {
		return out, err
	}
	zmdSet := out.Records[len(out.Records)-1:]
	sig, err := dnssec.SignRRset(s.ZSK, zmdSet, out.Apex,
		now.Add(-s.InceptionSkew), now.Add(s.SignatureValidity))
	if err != nil {
		return nil, err
	}
	out.Add(sig)
	return out.Canonicalize(), nil
}

// Verify checks the apex ZONEMD record of z against a fresh digest. It
// returns nil when a supported ZONEMD record matches, ErrUnsupported when
// only unsupported (e.g. placeholder) records exist, and ErrNoZONEMD,
// ErrSerialMismatch or ErrDigestMismatch otherwise.
func Verify(z *zone.Zone) error {
	zmds := z.Lookup(z.Apex, dnswire.TypeZONEMD)
	if len(zmds) == 0 {
		return ErrNoZONEMD
	}
	sawSupported := false
	for _, rr := range zmds {
		rec := rr.Data.(dnswire.ZONEMDRecord)
		if rec.Scheme != dnswire.ZonemdSchemeSimple || rec.Hash != dnswire.ZonemdHashSHA384 {
			continue
		}
		sawSupported = true
		if rec.Serial != z.Serial() {
			return fmt.Errorf("%w: ZONEMD %d, SOA %d", ErrSerialMismatch, rec.Serial, z.Serial())
		}
		want, err := Digest(z)
		if err != nil {
			return err
		}
		if !bytes.Equal(want, rec.Digest) {
			return fmt.Errorf("%w: serial %d", ErrDigestMismatch, rec.Serial)
		}
		return nil
	}
	if !sawSupported {
		return fmt.Errorf("%w: no SIMPLE/SHA-384 ZONEMD present", ErrUnsupported)
	}
	return nil
}

// FullValidation is the paper's ldns-style check: ZONEMD digest plus full
// DNSSEC validation of all RRsets against the trust anchor at time now.
// It returns the ZONEMD error (if any) and the DNSSEC error (if any)
// separately, since the paper's Table 2 classifies them differently.
func FullValidation(z *zone.Zone, anchor dnswire.DSRecord, now time.Time) (zonemdErr, dnssecErr error) {
	zonemdErr = Verify(z)
	if errors.Is(zonemdErr, ErrUnsupported) || errors.Is(zonemdErr, ErrNoZONEMD) {
		// Pre-rollout zones cannot be ZONEMD-checked; not an integrity failure.
		zonemdErr = nil
	}
	dnssecErr = dnssec.ValidateZone(z, anchor, now)
	return zonemdErr, dnssecErr
}
