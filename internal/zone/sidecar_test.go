package zone_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"net/netip"
	"reflect"
	"slices"
	"sort"
	"testing"

	"repro/internal/dnswire"
	"repro/internal/zone"
	"repro/internal/zonemd"
)

// The sidecar differential (DESIGN.md §8): a zone's canonical sidecar follows
// it through every edit — grown by Add, filtered by WithoutType, carried by
// BumpSerial and CloneCOW, permuted by Canonicalize, patched by MutateRecord —
// and whatever route it took, it must read exactly as a sidecar built from
// scratch over the same records does.

var (
	diffOwners = []string{".", "com.", "CoM.", "net.", "NET.", "a.com.", "A.Com.", "b.a.com.", "org.", "Example.ORG.", "example.org.", "zz.", "0.", "xn--p1ai."}
	diffHosts  = []string{"ns1.example.", "NS1.Example.", "ns2.example.", "a.gtld-servers.net.", "A.GTLD-SERVERS.NET."}
	diffTypes  = []dnswire.Type{dnswire.TypeA, dnswire.TypeAAAA, dnswire.TypeNS, dnswire.TypeDS, dnswire.TypeTXT}
)

// randomRR draws from small pools, so that records collide: equal owners in
// two spellings, equal RDATA, exact duplicates.
func randomRR(rng *rand.Rand) dnswire.RR {
	rr := dnswire.RR{
		Name:  dnswire.MustName(diffOwners[rng.Intn(len(diffOwners))]),
		Class: dnswire.ClassINET,
		TTL:   uint32(300 * (1 + rng.Intn(3))),
	}
	switch diffTypes[rng.Intn(len(diffTypes))] {
	case dnswire.TypeA:
		rr.Data = dnswire.ARecord{Addr: netip.AddrFrom4([4]byte{192, 0, 2, byte(rng.Intn(4))})}
	case dnswire.TypeAAAA:
		rr.Data = dnswire.AAAARecord{Addr: netip.AddrFrom16([16]byte{0x20, 1, 0xd, 0xb8, 15: byte(rng.Intn(4))})}
	case dnswire.TypeNS:
		rr.Data = dnswire.NSRecord{Host: dnswire.MustName(diffHosts[rng.Intn(len(diffHosts))])}
	case dnswire.TypeDS:
		rr.Data = dnswire.DSRecord{KeyTag: uint16(rng.Intn(3)), Algorithm: 13, DigestType: 2, Digest: []byte{byte(rng.Intn(3))}}
	case dnswire.TypeTXT:
		rr.Data = dnswire.TXTRecord{Strings: []string{fmt.Sprint("t", rng.Intn(3))}}
	}
	return rr
}

// reading is everything the test reads off a zone's sidecar.
type reading struct {
	records []dnswire.RR
	order   []int
	groups  [][]int
	wires   [][]byte
	digest  []byte
}

func read(t *testing.T, z *zone.Zone) reading {
	t.Helper()
	r := reading{records: slices.Clone(z.Records), order: slices.Clone(z.CanonicalOrder())}
	for _, g := range z.RRsetIndices() {
		r.groups = append(r.groups, slices.Clone(g))
	}
	for i := range z.Records {
		r.wires = append(r.wires, z.CanonicalWire(i))
	}
	var err error
	if r.digest, err = zonemd.Digest(z); err != nil {
		t.Fatalf("digest: %v", err)
	}
	return r
}

// checkAgainstScratch compares z's sidecar with the reference comparator and
// encoder, and with a fresh zone over the same records.
func checkAgainstScratch(t *testing.T, z *zone.Zone, step string) {
	t.Helper()
	got := read(t, z)
	order := make([]int, len(z.Records))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return dnswire.CanonicalRRLess(z.Records[order[a]], z.Records[order[b]])
	})
	if !slices.Equal(got.order, order) {
		t.Fatalf("%s: canonical order\n got %v\nwant %v", step, got.order, order)
	}
	for i, rr := range z.Records {
		if want := dnswire.AppendCanonicalRR(nil, rr, rr.TTL); !bytes.Equal(got.wires[i], want) {
			t.Fatalf("%s: record %d (%s): cached wire differs from a fresh encode", step, i, rr)
		}
	}
	fresh := zone.New(z.Apex)
	fresh.Add(z.Records...)
	want := read(t, fresh)
	if !reflect.DeepEqual(got.groups, want.groups) {
		t.Fatalf("%s: RRsets\n got %v\nwant %v", step, got.groups, want.groups)
	}
	if !bytes.Equal(got.digest, want.digest) {
		t.Fatalf("%s: ZONEMD digest differs from a fresh zone's", step)
	}
	// Lookup goes through the owner index; a scan is its oracle.
	for _, owner := range diffOwners {
		name := dnswire.MustName(owner)
		for _, typ := range append(diffTypes, dnswire.TypeSOA, dnswire.TypeANY) {
			var scan []dnswire.RR
			for _, rr := range z.Records {
				if rr.Name.Canonical() == name.Canonical() && (typ == dnswire.TypeANY || rr.Type() == typ) {
					scan = append(scan, rr)
				}
			}
			if found := z.Lookup(name, typ); !reflect.DeepEqual(found, scan) {
				t.Fatalf("%s: Lookup(%s, %s)\n got %v\nwant %v", step, name, typ, found, scan)
			}
		}
	}
}

// TestSidecarFollowsEdits runs seeded random programs of edits. After a step
// the zone is read and compared only some of the time — a comparison is
// itself a read, and what Add leaves for the next reader must also survive
// meeting another edit first. Every zone a program leaves behind (the source
// of a WithoutType or a BumpSerial, the other side of a CloneCOW) is read
// when it is left and must read the same when the program ends.
func TestSidecarFollowsEdits(t *testing.T) {
	type left struct {
		z    *zone.Zone
		was  reading
		step string
	}
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		cfg := zone.DefaultRootConfig()
		cfg.TLDCount = 4
		z := zone.SynthesizeRoot(cfg)
		var behind []left
		leave := func(old *zone.Zone, step string) { behind = append(behind, left{old, read(t, old), step}) }
		for n := 0; n < 60; n++ {
			var step string
			switch op := rng.Intn(12); op {
			case 0, 1: // one record, often one the zone already has
				rr := randomRR(rng)
				if rng.Intn(3) == 0 {
					rr = z.Records[rng.Intn(len(z.Records))]
				}
				z.Add(rr)
				step = "Add(1)"
			case 2: // many
				rrs := make([]dnswire.RR, 2+rng.Intn(30))
				for i := range rrs {
					rrs[i] = randomRR(rng)
				}
				z.Add(rrs...)
				step = fmt.Sprintf("Add(%d)", len(rrs))
			case 3:
				typ := diffTypes[rng.Intn(len(diffTypes))]
				old := z
				z = z.WithoutType(typ)
				leave(old, "source of WithoutType")
				step = fmt.Sprintf("WithoutType(%s)", typ)
			case 4:
				old := z
				z = z.BumpSerial(rng.Uint32())
				leave(old, "source of BumpSerial")
				step = "BumpSerial"
			case 5:
				z.Canonicalize()
				step = "Canonicalize"
			case 6, 7:
				i := rng.Intn(len(z.Records))
				switch rng.Intn(3) {
				case 0:
					z.MutateRecord(i, func(rr *dnswire.RR) { rr.TTL++ })
				case 1:
					z.MutateRecord(i, func(rr *dnswire.RR) { rr.Name = dnswire.MustName(diffOwners[rng.Intn(len(diffOwners))]) })
				case 2:
					z.MutateRecord(i, func(rr *dnswire.RR) { *rr = randomRR(rng) })
				}
				step = fmt.Sprintf("MutateRecord(%d)", i)
			case 8:
				clone := z.CloneCOW()
				if rng.Intn(2) == 0 {
					z, clone = clone, z
				}
				leave(clone, "other side of CloneCOW")
				step = "CloneCOW"
			case 9: // a reader of wires only
				z.CanonicalWire(rng.Intn(len(z.Records)))
				step = "CanonicalWire"
			case 10: // a reader of the index
				z.Lookup(dnswire.Root, dnswire.TypeSOA)
				step = "Lookup"
			case 11: // a second SOA: the serial can now reorder its RRset
				soa, _ := z.SOA()
				z.Add(soa)
				step = "Add(SOA)"
			}
			if rng.Intn(2) == 0 {
				checkAgainstScratch(t, z, fmt.Sprintf("seed %d step %d %s", seed, n, step))
			}
		}
		checkAgainstScratch(t, z, fmt.Sprintf("seed %d end", seed))
		for _, l := range behind {
			if now := read(t, l.z); !reflect.DeepEqual(now, l.was) {
				t.Fatalf("seed %d: the %s changed after it was left behind", seed, l.step)
			}
		}
	}
}

// TestAddForgetsWhatItCanFalsify: Add used to forget every cached verdict by
// dropping the sidecar. It keeps the sidecar now, so it clears, by
// MutateRecord's rule, the verdicts of the signatures over the RRsets the new
// records join — and all of them when one is a DNSKEY.
func TestAddForgetsWhatItCanFalsify(t *testing.T) {
	build := func() (z *zone.Zone, comSig, netSig int) {
		cfg := zone.DefaultRootConfig()
		cfg.TLDCount = 4
		z = zone.SynthesizeRoot(cfg)
		sig := func(owner string) dnswire.RR {
			return dnswire.RR{Name: dnswire.MustName(owner), Class: dnswire.ClassINET, TTL: 300,
				Data: dnswire.RRSIGRecord{TypeCovered: dnswire.TypeDS, SignerName: z.Apex}}
		}
		z.Add(sig("com."), sig("net."))
		comSig, netSig = len(z.Records)-2, len(z.Records)-1
		z.SetSigVerdict(comSig, true)
		z.SetSigVerdict(netSig, true)
		return z, comSig, netSig
	}
	ds := func(owner string) dnswire.RR {
		return dnswire.RR{Name: dnswire.MustName(owner), Class: dnswire.ClassINET, TTL: 300,
			Data: dnswire.DSRecord{KeyTag: 1, Algorithm: 13, DigestType: 2, Digest: []byte{1}}}
	}

	z, comSig, netSig := build()
	z.Add(ds("COM.")) // joins com./DS, spelled differently
	if z.SigVerdict(comSig) {
		t.Error("the verdict on com./DS's signature survived a record added to com./DS")
	}
	if !z.SigVerdict(netSig) {
		t.Error("the verdict on net./DS's signature was forgotten for a record added to com./DS")
	}

	// Two adds with no reader between: the second finds the sidecar behind.
	z, comSig, netSig = build()
	z.Add(dnswire.RR{Name: dnswire.MustName("org."), Class: dnswire.ClassINET, TTL: 300, Data: dnswire.TXTRecord{Strings: []string{"x"}}})
	z.Add(ds("net."))
	if !z.SigVerdict(comSig) || z.SigVerdict(netSig) {
		t.Errorf("after a record added to net./DS: verdicts com %v net %v, want true false", z.SigVerdict(comSig), z.SigVerdict(netSig))
	}

	z, comSig, netSig = build()
	z.Add(dnswire.RR{Name: z.Apex, Class: dnswire.ClassINET, TTL: 300, Data: dnswire.DNSKEYRecord{Flags: 256, Protocol: 3, Algorithm: 13, PublicKey: []byte{1}}})
	if z.SigVerdict(comSig) || z.SigVerdict(netSig) {
		t.Error("verdicts survived an added DNSKEY")
	}

	// A clone's verdicts are its own.
	z, comSig, _ = build()
	clone := z.CloneCOW()
	clone.Add(ds("com."))
	if clone.SigVerdict(comSig) || !z.SigVerdict(comSig) {
		t.Errorf("after an Add on a clone: clone's verdict %v, original's %v, want false true", clone.SigVerdict(comSig), z.SigVerdict(comSig))
	}
}
