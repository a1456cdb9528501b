package dnsserver

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/dnswire"
)

// The NSEC denial check a validating resolver runs (RFC 4035 §5.4): the
// oracle the server's negative answers are held to. It checks structure
// only; the NSEC signatures are dnssec's to verify.

var errDenialNotProven = errors.New("NSEC records do not prove the denial")

// denialKind classifies a proven negative answer.
type denialKind int

const (
	// denialNXDomain: the name does not exist (covered by an NSEC span and
	// no wildcard could have matched).
	denialNXDomain denialKind = iota
	// denialNoData: the name exists but has no records of the queried type.
	denialNoData
)

// checkDenial verifies that the NSEC records taken from a negative
// response structurally prove the non-existence of (name, qtype): either
// an NSEC at the owner name whose type bitmap omits qtype (NODATA), or an
// NSEC span covering the name (NXDOMAIN). It returns the kind of denial
// proven.
func checkDenial(nsecs []dnswire.RR, name dnswire.Name, qtype dnswire.Type) (denialKind, error) {
	nameC := name.Canonical()
	for _, rr := range nsecs {
		nsec, ok := rr.Data.(dnswire.NSECRecord)
		if !ok {
			continue
		}
		if rr.Name.Canonical() == nameC {
			// NSEC at the queried name: NODATA iff the bitmap omits qtype
			// (and omits CNAME, which would have answered instead).
			for _, t := range nsec.Types {
				if t == qtype || t == dnswire.TypeCNAME {
					return 0, fmt.Errorf("%w: NSEC at %s lists %s", errDenialNotProven, name, t)
				}
			}
			return denialNoData, nil
		}
	}
	// NXDOMAIN: need a covering span.
	for _, rr := range nsecs {
		nsec, ok := rr.Data.(dnswire.NSECRecord)
		if !ok {
			continue
		}
		if spanCovers(rr.Name, nsec.NextName, name) {
			return denialNXDomain, nil
		}
	}
	return 0, errDenialNotProven
}

// spanCovers reports whether the NSEC span (owner, next) covers name in
// canonical order, handling wrap-around at the zone apex.
func spanCovers(owner, next, name dnswire.Name) bool {
	cmpOwner := dnswire.CompareCanonical(owner, name)
	cmpNext := dnswire.CompareCanonical(name, next)
	if dnswire.CompareCanonical(owner, next) < 0 {
		return cmpOwner < 0 && cmpNext < 0
	}
	return cmpOwner < 0 || cmpNext < 0
}

// nsecRR builds an NSEC record for denial tests.
func nsecRR(owner, next string, types ...dnswire.Type) dnswire.RR {
	return dnswire.RR{
		Name: dnswire.MustName(owner), Class: dnswire.ClassINET, TTL: 86400,
		Data: dnswire.NSECRecord{NextName: dnswire.MustName(next), Types: types},
	}
}

func TestCheckDenialNXDomain(t *testing.T) {
	nsecs := []dnswire.RR{
		nsecRR("com.", "de.", dnswire.TypeNS),
		nsecRR(".", "com.", dnswire.TypeSOA, dnswire.TypeNS),
	}
	kind, err := checkDenial(nsecs, dnswire.MustName("cz."), dnswire.TypeA)
	if err != nil || kind != denialNXDomain {
		t.Errorf("kind=%v err=%v", kind, err)
	}
	// Name outside every span: not proven.
	if _, err := checkDenial(nsecs, dnswire.MustName("fr."), dnswire.TypeA); !errors.Is(err, errDenialNotProven) {
		t.Errorf("uncovered name: %v", err)
	}
}

func TestCheckDenialNoData(t *testing.T) {
	nsecs := []dnswire.RR{nsecRR("com.", "de.", dnswire.TypeNS, dnswire.TypeRRSIG)}
	kind, err := checkDenial(nsecs, dnswire.MustName("com."), dnswire.TypeTXT)
	if err != nil || kind != denialNoData {
		t.Errorf("kind=%v err=%v", kind, err)
	}
	// The type IS present: denial disproven.
	if _, err := checkDenial(nsecs, dnswire.MustName("com."), dnswire.TypeNS); err == nil {
		t.Error("present type accepted as denied")
	}
	// A CNAME at the name would have answered: denial disproven.
	withCname := []dnswire.RR{nsecRR("com.", "de.", dnswire.TypeCNAME)}
	if _, err := checkDenial(withCname, dnswire.MustName("com."), dnswire.TypeTXT); err == nil {
		t.Error("CNAME-bearing NSEC accepted as NODATA proof")
	}
}

func TestCheckDenialWrapAround(t *testing.T) {
	// Last NSEC in the chain points back to the apex.
	nsecs := []dnswire.RR{nsecRR("ws.", ".", dnswire.TypeNS)}
	if kind, err := checkDenial(nsecs, dnswire.MustName("zz."), dnswire.TypeA); err != nil || kind != denialNXDomain {
		t.Errorf("wrap-around: kind=%v err=%v", kind, err)
	}
	if _, err := checkDenial(nsecs, dnswire.MustName("aa."), dnswire.TypeA); err == nil {
		t.Error("pre-span name accepted under wrap-around")
	}
}
