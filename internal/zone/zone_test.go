package zone

import (
	"bytes"
	"math/rand"
	"slices"
	"strconv"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/dnswire"
)

func TestSynthesizeRootShape(t *testing.T) {
	cfg := DefaultRootConfig()
	z := SynthesizeRoot(cfg)

	soa, ok := z.SOA()
	if !ok {
		t.Fatal("no SOA")
	}
	if got := soa.Data.(dnswire.SOARecord).Serial; got != cfg.Serial {
		t.Errorf("serial = %d, want %d", got, cfg.Serial)
	}
	if got := z.Serial(); got != cfg.Serial {
		t.Errorf("Serial() = %d, want %d", got, cfg.Serial)
	}
	apexNS := z.Lookup(dnswire.Root, dnswire.TypeNS)
	if len(apexNS) != 13 {
		t.Errorf("apex NS count = %d, want 13", len(apexNS))
	}
	for _, tld := range TLDNames(cfg.TLDCount) {
		nsset := z.Lookup(tld, dnswire.TypeNS)
		if len(nsset) != cfg.NSPerTLD {
			t.Errorf("%s NS count = %d, want %d", tld, len(nsset), cfg.NSPerTLD)
		}
		for _, ns := range nsset {
			host := ns.Data.(dnswire.NSRecord).Host
			if len(z.Glue(host)) != 2 {
				t.Errorf("%s glue count = %d, want 2", host, len(z.Glue(host)))
			}
		}
	}
}

func TestSynthesizeRootDeterministic(t *testing.T) {
	a := SynthesizeRoot(DefaultRootConfig())
	b := SynthesizeRoot(DefaultRootConfig())
	if a.String() != b.String() {
		t.Error("same config produced different zones")
	}
	other := DefaultRootConfig()
	other.Seed = 99
	c := SynthesizeRoot(other)
	if a.String() == c.String() {
		t.Error("different seeds produced identical glue")
	}
}

func TestDelegation(t *testing.T) {
	z := SynthesizeRoot(DefaultRootConfig())
	deleg := z.Delegation(dnswire.MustName("www.example.com."))
	if len(deleg) == 0 {
		t.Fatal("no delegation for www.example.com.")
	}
	for _, rr := range deleg {
		if rr.Name != "com." {
			t.Errorf("delegation owner = %s, want com.", rr.Name)
		}
	}
	// A name under a TLD we did not delegate has no referral.
	if d := z.Delegation(dnswire.MustName("foo.nosuchtld12345.")); d != nil {
		t.Errorf("unexpected delegation: %v", d)
	}
	// The apex itself is not a delegation.
	if d := z.Delegation(dnswire.Root); d != nil {
		t.Errorf("apex treated as delegation: %v", d)
	}
}

func TestLookupCaseInsensitive(t *testing.T) {
	z := SynthesizeRoot(DefaultRootConfig())
	got := z.Lookup(dnswire.MustName("COM."), dnswire.TypeNS)
	if len(got) == 0 {
		t.Error("case-insensitive lookup failed")
	}
}

func TestMasterFileRoundTrip(t *testing.T) {
	z := SynthesizeRoot(DefaultRootConfig()).Canonicalize()
	var buf bytes.Buffer
	if err := z.Print(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Parse(&buf, dnswire.Root)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Records) != len(z.Records) {
		t.Fatalf("parsed %d records, want %d", len(got.Records), len(z.Records))
	}
	for i := range z.Records {
		if z.Records[i].String() != got.Records[i].String() {
			t.Errorf("record %d:\n got %s\nwant %s", i, got.Records[i], z.Records[i])
		}
	}
}

func TestParseRejectsGarbage(t *testing.T) {
	bad := []string{
		"only three fields",
		". notanumber IN NS a.root-servers.net.",
		". 86400 XX NS a.root-servers.net.",
		". 86400 IN BOGUS a.root-servers.net.",
		"com. 86400 IN A not-an-ip",
		"com. 86400 IN AAAA 1.2.3.4",
		". 86400 IN SOA a. b. 1 2 3",
	}
	for _, line := range bad {
		if _, err := ParseRR(line); err == nil {
			t.Errorf("ParseRR(%q) succeeded", line)
		}
	}
	if _, err := Parse(strings.NewReader("$GENERATE 1-10 host-$ A 10.0.0.$\n"), dnswire.Root); err == nil {
		t.Error("unsupported directive accepted")
	}
}

// TestParseTXTLengthLimits: a TXT string is at most 255 bytes and a TXT
// RDATA at most 65,535 on the wire, so Parse refuses more; what it accepts
// at the limit prints and parses back unchanged, escapes and all.
func TestParseTXTLengthLimits(t *testing.T) {
	apex := dnswire.MustName("example.")
	for name, text := range map[string]string{
		"1,100,000 bytes of \\x01": "@ TXT " + strings.Repeat("\x01", 1100000),
		"a 256-byte string":        "@ TXT " + strings.Repeat("a", 256),
		"257 strings of 255 bytes": "@ TXT" + strings.Repeat(" "+strings.Repeat("a", 255), 257),
	} {
		if _, err := Parse(strings.NewReader(text+"\n"), apex); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	for name, str := range map[string]string{
		"255 printable bytes": strings.Repeat("a", 255),
		"255 bytes of \\x01":  strings.Repeat("\x01", 255),
	} {
		z, err := Parse(strings.NewReader("@ TXT "+strconv.Quote(str)+"\n"), apex)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		var printed bytes.Buffer
		if err := z.Print(&printed); err != nil {
			t.Fatal(err)
		}
		again, err := Parse(&printed, apex)
		if err != nil {
			t.Fatalf("%s: the printed zone does not parse: %v", name, err)
		}
		txt := again.Lookup(apex, dnswire.TypeTXT)
		if len(txt) != 1 || !slices.Equal(txt[0].Data.(dnswire.TXTRecord).Strings, []string{str}) {
			t.Errorf("%s: reads back as %v", name, txt)
		}
	}
}

func TestCanonicalizeOrder(t *testing.T) {
	z := SynthesizeRoot(DefaultRootConfig()).Canonicalize()
	for i := 0; i < len(z.Records)-1; i++ {
		if dnswire.CanonicalRRLess(z.Records[i+1], z.Records[i]) {
			t.Fatalf("records %d and %d out of canonical order:\n%s\n%s",
				i, i+1, z.Records[i], z.Records[i+1])
		}
	}
}

func TestCanonicalizeIndependentOfInputOrder(t *testing.T) {
	f := func(seed int64) bool {
		z := SynthesizeRoot(DefaultRootConfig())
		shuffled := z.Clone()
		rng := rand.New(rand.NewSource(seed))
		rng.Shuffle(len(shuffled.Records), func(i, j int) {
			shuffled.Records[i], shuffled.Records[j] = shuffled.Records[j], shuffled.Records[i]
		})
		return z.Canonicalize().String() == shuffled.Canonicalize().String()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Error(err)
	}
}

func TestBumpSerial(t *testing.T) {
	z := SynthesizeRoot(DefaultRootConfig())
	z2 := z.BumpSerial(2023122400)
	if z2.Serial() != 2023122400 {
		t.Errorf("bumped serial = %d", z2.Serial())
	}
	if z.Serial() == z2.Serial() {
		t.Error("BumpSerial mutated the original")
	}
	if len(z2.Records) != len(z.Records) {
		t.Error("BumpSerial changed record count")
	}
}

func TestWithoutType(t *testing.T) {
	z := SynthesizeRoot(DefaultRootConfig())
	z2 := z.WithoutType(dnswire.TypeAAAA)
	if n := len(z2.Lookup(dnswire.MustName("a.root-servers.net."), dnswire.TypeAAAA)); n != 0 {
		t.Errorf("AAAA still present after WithoutType: %d", n)
	}
	if len(z2.Records) >= len(z.Records) {
		t.Error("WithoutType removed nothing")
	}
}

func TestSerialCompare(t *testing.T) {
	cases := []struct {
		a, b uint32
		want int
	}{
		{1, 1, 0},
		{1, 2, -1},
		{2, 1, 1},
		{0xFFFFFFFF, 0, -1}, // wraparound: 0 follows max
		{0, 0xFFFFFFFF, 1},
		{2023070300, 2023122400, -1},
	}
	for _, c := range cases {
		if got := SerialCompare(c.a, c.b); got != c.want {
			t.Errorf("SerialCompare(%d, %d) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestSerialForDate(t *testing.T) {
	if got := SerialForDate(2023, 11, 27, 0); got != 2023112700 {
		t.Errorf("SerialForDate = %d", got)
	}
}

func TestTLDNamesIncludesRuhr(t *testing.T) {
	// The paper's bitflip case corrupted .ruhr; keep it in the catalog.
	for _, n := range TLDNames(len(realTLDs)) {
		if n == "ruhr." {
			return
		}
	}
	t.Error("ruhr. missing from TLD catalog")
}

func TestWellKnownRootAddrAll(t *testing.T) {
	seen4 := map[string]bool{}
	for i := 0; i < 13; i++ {
		v4, v6 := WellKnownRootAddr(i)
		if !v4.Is4() || !v6.Is6() {
			t.Errorf("letter %c: bad families %v %v", 'a'+i, v4, v6)
		}
		if seen4[v4.String()] {
			t.Errorf("duplicate v4 %v", v4)
		}
		seen4[v4.String()] = true
	}
}

// conveniences is a hand-written zone that uses every convenience Parse
// supports beyond what Print emits.
const conveniences = `; a hand-written fragment
$ORIGIN example.
$TTL 3600
@   IN SOA ns1 hostmaster 7 1800 900 604800 300
    IN NS  ns1
ns1 300 IN A 192.0.2.1
www     A 192.0.2.80 ; trailing comment
alias   CNAME www
`

func TestParseMasterFileConveniences(t *testing.T) {
	z, err := Parse(strings.NewReader(conveniences), dnswire.MustName("example."))
	if err != nil {
		t.Fatal(err)
	}
	if z.Serial() != 7 {
		t.Errorf("serial = %d", z.Serial())
	}
	soa, _ := z.SOA()
	if got := soa.Data.(dnswire.SOARecord).MName; got != "ns1.example." {
		t.Errorf("SOA MName = %s", got)
	}
	if soa.TTL != 3600 {
		t.Errorf("SOA TTL = %d, want $TTL default", soa.TTL)
	}
	// Inherited owner: the NS line has no owner field.
	ns := z.Lookup(dnswire.MustName("example."), dnswire.TypeNS)
	if len(ns) != 1 || ns[0].Data.(dnswire.NSRecord).Host != "ns1.example." {
		t.Errorf("NS = %v", ns)
	}
	// Explicit TTL overrides the default.
	a := z.Lookup(dnswire.MustName("ns1.example."), dnswire.TypeA)
	if len(a) != 1 || a[0].TTL != 300 {
		t.Errorf("ns1 A = %v", a)
	}
	// Omitted class and TTL.
	www := z.Lookup(dnswire.MustName("www.example."), dnswire.TypeA)
	if len(www) != 1 || www[0].TTL != 3600 || www[0].Class != dnswire.ClassINET {
		t.Errorf("www A = %v", www)
	}
	// Relative CNAME target qualified against the origin.
	cn := z.Lookup(dnswire.MustName("alias.example."), dnswire.TypeCNAME)
	if len(cn) != 1 || cn[0].Data.(dnswire.CNAMERecord).Target != "www.example." {
		t.Errorf("alias CNAME = %v", cn)
	}
}

func TestParseInheritedOwnerWithoutOwnerLine(t *testing.T) {
	if _, err := Parse(strings.NewReader("   IN NS ns1.example.\n"), dnswire.Root); err == nil {
		t.Error("inherited owner before any owner line accepted")
	}
}

func TestParseOriginSwitch(t *testing.T) {
	input := `$ORIGIN com.
www A 192.0.2.1
$ORIGIN net.
www A 192.0.2.2
`
	z, err := Parse(strings.NewReader(input), dnswire.Root)
	if err != nil {
		t.Fatal(err)
	}
	if len(z.Lookup(dnswire.MustName("www.com."), dnswire.TypeA)) != 1 {
		t.Error("www.com. missing")
	}
	if len(z.Lookup(dnswire.MustName("www.net."), dnswire.TypeA)) != 1 {
		t.Error("www.net. missing")
	}
}
