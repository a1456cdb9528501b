// Package faults injects the failure classes the paper's Table 2 taxonomy
// observes in zone transfers: single-bit memory flips in received zone data
// (corrupting an RRSIG or even a TLD name), stale zone files at individual
// sites (serving expired signatures), VP clock skew (handled by the vantage
// package, but classified here), and packet loss. All injectors are
// deterministic under a seed.
package faults

import (
	"fmt"
	"math/rand"

	"repro/internal/dnswire"
	"repro/internal/seeded"
	"repro/internal/zone"
)

// Kind classifies an injected fault.
type Kind int

// Fault kinds, mirroring the paper's Table 2 "Reason" column.
const (
	None Kind = iota
	// BitflipSignature flips one bit in an RRSIG's signature bytes,
	// producing a bogus signature.
	BitflipSignature
	// BitflipName flips one bit in an owner name, e.g. turning ".ruhr" into
	// another label — detected by ZONEMD (and by the covering RRSIG of the
	// affected RRset when one exists).
	BitflipName
	// StaleZone serves an old zone copy whose signatures have expired.
	StaleZone
	// ClockSkew marks validation at a VP whose clock predates inception.
	ClockSkew
)

// String names the fault kind as Table 2 does.
func (k Kind) String() string {
	switch k {
	case None:
		return "none"
	case BitflipSignature:
		return "Bogus Signature"
	case BitflipName:
		return "Bogus Signature (name bitflip)"
	case StaleZone:
		return "Signature expired"
	case ClockSkew:
		return "Sig. not incepted"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Bitflip describes a single-bit corruption applied to a zone.
type Bitflip struct {
	// RecordIndex is the position of the corrupted record.
	RecordIndex int
	// Before and After are the record's presentation before/after the flip,
	// the paper's Fig. 10 rendering.
	Before, After string
}

// FlipSignatureBit flips one bit in a randomly chosen RRSIG signature of z
// (in place) and returns a description. It returns ok=false when the zone
// has no RRSIGs.
func FlipSignatureBit(z *zone.Zone, rng *rand.Rand) (Bitflip, bool) {
	var idxs []int
	for i, rr := range z.Records {
		if _, ok := rr.Data.(dnswire.RRSIGRecord); ok {
			idxs = append(idxs, i)
		}
	}
	if len(idxs) == 0 {
		return Bitflip{}, false
	}
	i := idxs[rng.Intn(len(idxs))]
	rr := z.Records[i]
	sig := rr.Data.(dnswire.RRSIGRecord)
	before := rr.String()
	flipped := append([]byte(nil), sig.Signature...)
	if len(flipped) == 0 {
		return Bitflip{}, false
	}
	pos := rng.Intn(len(flipped))
	flipped[pos] ^= 1 << rng.Intn(8)
	sig.Signature = flipped
	z.MutateRecord(i, func(rr *dnswire.RR) { rr.Data = sig })
	return Bitflip{RecordIndex: i, Before: before, After: z.Records[i].String()}, true
}

// FlipNameBit flips one bit in the owner name of a randomly chosen
// delegation record, reproducing the paper's ".ruhr → corrupted label"
// observation. Only flips that keep the name syntactically valid (printable,
// parseable) are applied; the function retries a bounded number of times.
func FlipNameBit(z *zone.Zone, rng *rand.Rand) (Bitflip, bool) {
	var idxs []int
	for i, rr := range z.Records {
		if rr.Type() == dnswire.TypeNS && !rr.Name.IsRoot() {
			idxs = append(idxs, i)
		}
	}
	if len(idxs) == 0 {
		return Bitflip{}, false
	}
	for attempt := 0; attempt < 64; attempt++ {
		i := idxs[rng.Intn(len(idxs))]
		rr := z.Records[i]
		name := []byte(rr.Name)
		pos := rng.Intn(len(name) - 1) // keep the trailing dot intact
		bit := byte(1) << rng.Intn(7)  // avoid the high bit: stay printable-ish
		flipped := append([]byte(nil), name...)
		flipped[pos] ^= bit
		newName, err := dnswire.NewName(string(flipped))
		if err != nil || newName == rr.Name {
			continue
		}
		before := rr.String()
		z.MutateRecord(i, func(rr *dnswire.RR) { rr.Name = newName })
		return Bitflip{RecordIndex: i, Before: before, After: z.Records[i].String()}, true
	}
	return Bitflip{}, false
}

// LossModel decides whether an individual query is lost. The paper's battery
// uses +retry=0, so a lost query is a missed measurement.
type LossModel struct {
	// Prob is the per-query loss probability.
	Prob float64
	// Seed scopes determinism.
	Seed int64
}

// Lost reports deterministically whether query (vp, target, tick, step) is
// lost. The decision is a seeded.Mix chain over the packed
// coordinates — allocation-free, unlike constructing a PRNG per call — with
// the top 53 bits mapped uniformly onto [0, 1).
//
//rootlint:hotpath
func (l LossModel) Lost(vpIdx, targetIdx, tick, step int) bool {
	if l.Prob <= 0 {
		return false
	}
	h := uint64(l.Seed)
	for _, v := range [...]int{vpIdx, targetIdx, tick, step} {
		h = seeded.Mix(h + uint64(int64(v)))
	}
	return seeded.Unit(h) < l.Prob
}
