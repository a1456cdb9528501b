package hints

import (
	"net/netip"
	"testing"

	"repro/internal/dnswire"
)

func TestDefaultHints(t *testing.T) {
	f := Default()
	if len(f.Hints) != 13 {
		t.Fatalf("hints = %d, want 13", len(f.Hints))
	}
	for _, h := range f.Hints {
		if !h.V4.Is4() || !h.V6.Is6() {
			t.Errorf("%s: families %v %v", h.Host, h.V4, h.V6)
		}
	}
	b, ok := f.Lookup(dnswire.MustName("b.root-servers.net."))
	if !ok || b.V4.String() != "170.247.170.2" {
		t.Errorf("b hint = %+v, %v", b, ok)
	}
	if _, ok := f.Lookup(dnswire.MustName("z.root-servers.net.")); ok {
		t.Error("ghost hint found")
	}
}

func TestWithOldB(t *testing.T) {
	old4 := netip.MustParseAddr("199.9.14.201")
	old6 := netip.MustParseAddr("2001:500:200::b")
	f := Default().WithOldB(old4, old6)
	b, _ := f.Lookup(dnswire.MustName("b.root-servers.net."))
	if b.V4 != old4 || b.V6 != old6 {
		t.Errorf("old b hint = %+v", b)
	}
	// Original unchanged.
	orig, _ := Default().Lookup(dnswire.MustName("b.root-servers.net."))
	if orig.V4 == old4 {
		t.Error("WithOldB mutated the source")
	}
	// Other letters untouched.
	a, _ := f.Lookup(dnswire.MustName("a.root-servers.net."))
	if a.V4.String() != "198.41.0.4" {
		t.Errorf("a hint corrupted: %+v", a)
	}
}

func TestAddrs(t *testing.T) {
	f := Default()
	v4 := f.Addrs(false)
	v6 := f.Addrs(true)
	if len(v4) != 13 || len(v6) != 13 {
		t.Fatalf("addr counts %d/%d", len(v4), len(v6))
	}
	for i := range v4 {
		if !v4[i].Is4() || !v6[i].Is6() {
			t.Errorf("entry %d: %v %v", i, v4[i], v6[i])
		}
	}
}

func TestPrimingQueryShape(t *testing.T) {
	q := PrimingQuery(42)
	if q.Header.ID != 42 || q.Questions[0].Type != dnswire.TypeNS || !q.Questions[0].Name.IsRoot() {
		t.Errorf("priming query = %+v", q)
	}
	if _, ok := q.EDNS(); !ok {
		t.Error("priming query lacks EDNS0")
	}
}

// buildPrimingResponse creates a valid RFC 8109 response from hints.
func buildPrimingResponse(f *File) *dnswire.Message {
	m := &dnswire.Message{Header: dnswire.Header{ID: 1, Response: true, Authoritative: true}}
	m.Questions = []dnswire.Question{{Name: dnswire.Root, Type: dnswire.TypeNS, Class: dnswire.ClassINET}}
	for _, h := range f.Hints {
		m.Answers = append(m.Answers, dnswire.RR{
			Name: dnswire.Root, Class: dnswire.ClassINET, TTL: 518400,
			Data: dnswire.NSRecord{Host: h.Host},
		})
		m.Additional = append(m.Additional,
			dnswire.RR{Name: h.Host, Class: dnswire.ClassINET, TTL: 518400,
				Data: dnswire.ARecord{Addr: h.V4}},
			dnswire.RR{Name: h.Host, Class: dnswire.ClassINET, TTL: 518400,
				Data: dnswire.AAAARecord{Addr: h.V6}})
	}
	return m
}

func TestCheckPrimingResponse(t *testing.T) {
	f := Default()
	got, err := CheckPrimingResponse(buildPrimingResponse(f))
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Hints) != 13 {
		t.Fatalf("refreshed hints = %d", len(got.Hints))
	}
	b, _ := got.Lookup(dnswire.MustName("b.root-servers.net."))
	if b.V4.String() != "170.247.170.2" {
		t.Errorf("refreshed b = %+v", b)
	}
}

func TestCheckPrimingResponseRejects(t *testing.T) {
	// Non-response.
	bad := buildPrimingResponse(Default())
	bad.Header.Response = false
	if _, err := CheckPrimingResponse(bad); err == nil {
		t.Error("non-response accepted")
	}
	// SERVFAIL.
	bad = buildPrimingResponse(Default())
	bad.Header.Rcode = dnswire.RcodeServFail
	if _, err := CheckPrimingResponse(bad); err == nil {
		t.Error("SERVFAIL accepted")
	}
	// No NS answers.
	bad = buildPrimingResponse(Default())
	bad.Answers = nil
	if _, err := CheckPrimingResponse(bad); err == nil {
		t.Error("NS-less response accepted")
	}
	// No glue.
	bad = buildPrimingResponse(Default())
	bad.Additional = nil
	if _, err := CheckPrimingResponse(bad); err == nil {
		t.Error("glueless response accepted")
	}
}

// TestPrimingLearnsNewB is the paper's adoption mechanism in miniature: a
// resolver with stale hints primes and comes back with the new address.
func TestPrimingLearnsNewB(t *testing.T) {
	stale := Default().WithOldB(
		netip.MustParseAddr("199.9.14.201"), netip.MustParseAddr("2001:500:200::b"))
	fresh, err := CheckPrimingResponse(buildPrimingResponse(Default()))
	if err != nil {
		t.Fatal(err)
	}
	staleB, _ := stale.Lookup(dnswire.MustName("b.root-servers.net."))
	freshB, _ := fresh.Lookup(dnswire.MustName("b.root-servers.net."))
	if staleB.V4 == freshB.V4 {
		t.Fatal("test setup: stale == fresh")
	}
	if freshB.V4.String() != "170.247.170.2" {
		t.Errorf("priming did not learn the new b.root: %v", freshB.V4)
	}
}
