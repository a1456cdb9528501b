package zone

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/dnswire"
)

// The scans the index replaced, kept as the reference it is held to.

func scanLookup(z *Zone, name dnswire.Name, typ dnswire.Type) []dnswire.RR {
	var out []dnswire.RR
	for _, rr := range z.Records {
		if rr.Name.Canonical() == name.Canonical() && (typ == dnswire.TypeANY || rr.Type() == typ) {
			out = append(out, rr)
		}
	}
	return out
}

func scanDelegation(z *Zone, name dnswire.Name) []dnswire.RR {
	if !name.SubdomainOf(z.Apex) {
		return nil
	}
	for n := name; n.Canonical() != z.Apex.Canonical(); n = n.Parent() {
		if nsset := scanLookup(z, n, dnswire.TypeNS); len(nsset) > 0 {
			return nsset
		}
	}
	return nil
}

func scanCoveringNSEC(z *Zone, name dnswire.Name) (dnswire.RR, bool) {
	for _, rr := range z.Records {
		nsec, ok := rr.Data.(dnswire.NSECRecord)
		if !ok {
			continue
		}
		afterOwner := dnswire.CompareCanonical(rr.Name, name) < 0
		beforeNext := dnswire.CompareCanonical(name, nsec.NextName) < 0
		if dnswire.CompareCanonical(rr.Name, nsec.NextName) < 0 {
			if afterOwner && beforeNext {
				return rr, true
			}
		} else if afterOwner || beforeNext { // the span that wraps around to the apex
			return rr, true
		}
	}
	return dnswire.RR{}, false
}

// withNSECChain returns z plus an NSEC at every owner that is not glue below
// a cut, each pointing at the next such owner, the last at the apex: what
// the signer builds, without the signatures.
func withNSECChain(z *Zone) *Zone {
	out := z.Clone()
	var owners []dnswire.Name
	for _, name := range z.Names() {
		if cut := z.Delegation(name); len(cut) == 0 || cut[0].Name.Canonical() == name {
			owners = append(owners, name)
		}
	}
	for i, owner := range owners {
		out.Add(dnswire.RR{Name: owner, Class: dnswire.ClassINET, TTL: 86400,
			Data: dnswire.NSECRecord{NextName: owners[(i+1)%len(owners)]}})
	}
	return out
}

// probeNames spans the name space around z's owners: each owner as spelled,
// upper-cased, with labels in front, and the names sorting just before and
// just after it.
func probeNames(z *Zone) []dnswire.Name {
	names := []dnswire.Name{dnswire.Root, "\x00.", "\xff\xff.", "net.", "x.NET.", "org.", "nosuchtld."}
	for _, owner := range z.Names() {
		names = append(names, owner, dnswire.Name(strings.ToUpper(string(owner))))
		if owner.IsRoot() {
			continue
		}
		names = append(names, "x."+owner, "Y.x."+owner, "\x00."+owner)
		labels := owner.Labels()
		rest := strings.Join(labels[1:], ".") + "."
		if len(labels) == 1 {
			rest = ""
		}
		first := labels[0]
		names = append(names,
			dnswire.Name(first+"\x00."+rest),
			dnswire.Name(first[:len(first)-1]+string([]byte{first[len(first)-1] - 1, 0xff})+"."+rest))
	}
	return names
}

// TestIndexMatchesScans holds every question the index answers to the linear
// scan it replaced, over the zones the server serves.
func TestIndexMatchesScans(t *testing.T) {
	cfg := DefaultRootConfig()
	cfg.TLDCount = 25
	zones := map[string]*Zone{
		"root-unsigned":    SynthesizeRoot(cfg),
		"root-nsec":        withNSECChain(SynthesizeRoot(cfg)),
		"root-servers.net": withNSECChain(SynthesizeRootServersNet(2023121000, false)),
	}
	types := []dnswire.Type{dnswire.TypeANY, dnswire.TypeNS, dnswire.TypeA, dnswire.TypeAAAA, dnswire.TypeSOA, dnswire.TypeNSEC, dnswire.TypeMX}
	for label, z := range zones {
		for _, name := range probeNames(z) {
			for _, typ := range types {
				if got, want := z.Lookup(name, typ), scanLookup(z, name, typ); !reflect.DeepEqual(got, want) {
					t.Fatalf("%s: Lookup(%q, %s) = %v, scan says %v", label, name, typ, got, want)
				}
			}
			if got, want := z.Delegation(name), scanDelegation(z, name); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: Delegation(%q) = %v, scan says %v", label, name, got, want)
			}
			// Only a name that does not exist has a covering span.
			if len(scanLookup(z, name, dnswire.TypeANY)) > 0 {
				continue
			}
			got, gotOK := z.CoveringNSEC(name)
			want, wantOK := scanCoveringNSEC(z, name)
			if gotOK != wantOK || !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: CoveringNSEC(%q) = %v, %v; scan says %v, %v", label, name, got, gotOK, want, wantOK)
			}
		}
	}
}

// TestIndexNodes checks the index's own surface: owners in canonical order,
// types ascending and complete, and keys that order as the names do.
func TestIndexNodes(t *testing.T) {
	z := withNSECChain(SynthesizeRoot(DefaultRootConfig()))
	ix := z.Index()
	owners := map[dnswire.Name]bool{}
	for _, rr := range z.Records {
		owners[rr.Name.Canonical()] = true
	}
	names := z.Names()
	if ix.Len() != len(owners) || len(names) != len(owners) {
		t.Fatalf("index has %d nodes and %d names, zone has %d owners", ix.Len(), len(names), len(owners))
	}
	for i, owner := range names {
		if i > 0 && dnswire.CompareCanonical(names[i-1], owner) >= 0 {
			t.Fatalf("nodes %d and %d out of canonical order: %q, %q", i-1, i, names[i-1], owner)
		}
		have := map[dnswire.Type]bool{}
		for _, rr := range scanLookup(z, owner, dnswire.TypeANY) {
			have[rr.Type()] = true
		}
		types := ix.Types(i)
		if len(types) != len(have) {
			t.Fatalf("%q: Types %v, records have %d distinct types", owner, types, len(have))
		}
		for k, typ := range types {
			if !have[typ] || k > 0 && types[k-1] >= typ {
				t.Fatalf("%q: Types %v not the ascending set of its record types", owner, types)
			}
		}
		pos, exact, _ := ix.Resolve(AppendKey(nil, dnswire.Name(strings.ToUpper(string(owner)))))
		if !exact || pos != i {
			t.Fatalf("Resolve(%q) = %d, %v; want node %d", owner, pos, exact, i)
		}
	}
	if got := AppendKey(nil, "Www.Example.COM."); string(got) != "\x03com\x07example\x03www" {
		t.Errorf("AppendKey = %q", got)
	}
	if got := AppendKey(nil, dnswire.Root); len(got) != 0 {
		t.Errorf("AppendKey(root) = %q, want empty", got)
	}
}

// TestIndexFollowsMutation: the index is part of the sidecar, so the
// mutation API drops it and a copy-on-write clone shares it until then.
func TestIndexFollowsMutation(t *testing.T) {
	z := SynthesizeRoot(DefaultRootConfig())
	ix := z.Index()
	if z.Index() != ix {
		t.Fatal("Index rebuilt without a mutation")
	}
	clone := z.CloneCOW()
	if clone.Index() != ix {
		t.Error("copy-on-write clone does not share the index")
	}
	for i, rr := range clone.Records {
		if rr.Name == "com." && rr.Type() == dnswire.TypeNS {
			clone.MutateRecord(i, func(rr *dnswire.RR) { rr.Name = "moved." })
		}
	}
	if len(clone.Lookup("com.", dnswire.TypeNS)) != 0 || len(clone.Lookup("moved.", dnswire.TypeNS)) == 0 {
		t.Error("lookup after MutateRecord answers from the old index")
	}
	if len(z.Lookup("com.", dnswire.TypeNS)) == 0 || z.Index() != ix {
		t.Error("mutating the clone disturbed the original's index")
	}
	z.Add(dnswire.RR{Name: "added.", Class: dnswire.ClassINET, TTL: 1, Data: dnswire.NSRecord{Host: "ns.added."}})
	if got := z.Delegation("www.added."); len(got) != 1 {
		t.Errorf("Delegation after Add = %v", got)
	}
	if fmt.Sprint(z.Canonicalize().Names()) != fmt.Sprint(z.Names()) || len(z.Lookup("ADDED.", dnswire.TypeNS)) != 1 {
		t.Error("index wrong after Canonicalize")
	}
}
