package dnswire

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestNewName(t *testing.T) {
	cases := []struct {
		in      string
		want    Name
		wantErr bool
	}{
		{"", Root, false},
		{".", Root, false},
		{"com", "com.", false},
		{"com.", "com.", false},
		{"a.root-servers.net.", "a.root-servers.net.", false},
		{"Hostname.Bind", "Hostname.Bind.", false},
		{strings.Repeat("a", 63) + ".", Name(strings.Repeat("a", 63) + "."), false},
		{strings.Repeat("a", 64) + ".", "", true},
		{"a..b.", "", true},
		{strings.Repeat("abcdefg.", 40), "", true}, // 320 octets > 255
	}
	for _, c := range cases {
		got, err := NewName(c.in)
		if (err != nil) != c.wantErr {
			t.Errorf("NewName(%q) err=%v wantErr=%v", c.in, err, c.wantErr)
			continue
		}
		if err == nil && got != c.want {
			t.Errorf("NewName(%q)=%q want %q", c.in, got, c.want)
		}
	}
}

func TestNameLabels(t *testing.T) {
	if got := Root.Labels(); len(got) != 0 {
		t.Errorf("root labels = %v, want none", got)
	}
	got := MustName("a.root-servers.net.").Labels()
	want := []string{"a", "root-servers", "net"}
	if len(got) != len(want) {
		t.Fatalf("labels = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("label %d = %q, want %q", i, got[i], want[i])
		}
	}
}

func TestNameParent(t *testing.T) {
	n := MustName("a.root-servers.net.")
	if p := n.Parent(); p != "root-servers.net." {
		t.Errorf("parent = %q", p)
	}
	if p := MustName("net.").Parent(); p != Root {
		t.Errorf("parent of net. = %q, want root", p)
	}
	if p := Root.Parent(); p != Root {
		t.Errorf("parent of root = %q, want root", p)
	}
}

func TestSubdomainOf(t *testing.T) {
	cases := []struct {
		child, parent string
		want          bool
	}{
		{"a.root-servers.net.", "root-servers.net.", true},
		{"a.root-servers.net.", "net.", true},
		{"a.root-servers.net.", ".", true},
		{"root-servers.net.", "root-servers.net.", true},
		{"xroot-servers.net.", "root-servers.net.", false},
		{"net.", "root-servers.net.", false},
		{"A.ROOT-SERVERS.NET.", "root-servers.net.", true},
	}
	for _, c := range cases {
		if got := MustName(c.child).SubdomainOf(MustName(c.parent)); got != c.want {
			t.Errorf("SubdomainOf(%q, %q) = %v, want %v", c.child, c.parent, got, c.want)
		}
	}
}

func TestCompareCanonical(t *testing.T) {
	// Example ordering from RFC 4034 §6.1.
	ordered := []Name{
		MustName("example."),
		MustName("a.example."),
		MustName("yljkjljk.a.example."),
		MustName("Z.a.example."),
		MustName("z.example."),
	}
	for i := 0; i < len(ordered)-1; i++ {
		if CompareCanonical(ordered[i], ordered[i+1]) >= 0 {
			t.Errorf("expected %q < %q", ordered[i], ordered[i+1])
		}
		if CompareCanonical(ordered[i+1], ordered[i]) <= 0 {
			t.Errorf("expected %q > %q", ordered[i+1], ordered[i])
		}
	}
	if CompareCanonical(MustName("EXAMPLE."), MustName("example.")) != 0 {
		t.Error("case-insensitive compare failed")
	}
}

// randomName builds a valid random name for property tests.
func randomName(r *rand.Rand) Name {
	nLabels := r.Intn(5)
	labels := make([]string, 0, nLabels)
	const alphabet = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789-"
	for i := 0; i < nLabels; i++ {
		l := make([]byte, 1+r.Intn(12))
		for j := range l {
			l[j] = alphabet[r.Intn(len(alphabet))]
		}
		labels = append(labels, string(l))
	}
	if len(labels) == 0 {
		return Root
	}
	return Name(strings.Join(labels, ".") + ".")
}

func TestNameWireRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := randomName(r)
		wire := appendName(nil, n, 0, nil)
		got, end, err := decodeName(wire, 0)
		if err != nil {
			t.Logf("decode %q: %v", n, err)
			return false
		}
		return got == n && end == len(wire)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestNameCompressionRoundTrip(t *testing.T) {
	// Encode several names sharing suffixes into one buffer with a shared
	// compression map, then decode each.
	names := []Name{
		MustName("a.root-servers.net."),
		MustName("b.root-servers.net."),
		MustName("net."),
		MustName("m.root-servers.net."),
		Root,
		MustName("root-servers.net."),
	}
	cm := &compressor{offs: make(map[Name]int)}
	buf := make([]byte, headerLen) // simulate header so offsets are realistic
	offsets := make([]int, len(names))
	for i, n := range names {
		offsets[i] = len(buf)
		buf = appendName(buf, n, len(buf), cm)
	}
	for i, n := range names {
		got, _, err := decodeName(buf, offsets[i])
		if err != nil {
			t.Fatalf("decode %q: %v", n, err)
		}
		if got != n {
			t.Errorf("decode at %d = %q, want %q", offsets[i], got, n)
		}
	}
	// Compression must actually shrink the buffer vs uncompressed.
	var unc []byte
	for _, n := range names {
		unc = appendName(unc, n, 0, nil)
	}
	if len(buf)-headerLen >= len(unc) {
		t.Errorf("compressed %d >= uncompressed %d", len(buf)-headerLen, len(unc))
	}
}

func TestDecodeNameMalformed(t *testing.T) {
	cases := map[string][]byte{
		"empty":              {},
		"truncated label":    {5, 'a', 'b'},
		"missing terminator": {1, 'a'},
		"forward pointer":    {0xC0, 10, 0},
		"self pointer":       {0xC0, 0},
		"reserved bits":      {0x80, 0},
		"truncated pointer":  {0xC0},
	}
	for name, wire := range cases {
		if _, _, err := decodeName(wire, 0); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}
}

func TestDecodeNamePointerLoop(t *testing.T) {
	// Two pointers pointing at each other after an initial label: must not
	// loop forever. Pointer at offset 2 -> 0, and offset 0 is a pointer -> 2.
	wire := []byte{0xC0, 2, 0xC0, 0}
	if _, _, err := decodeName(wire, 2); err == nil {
		t.Error("expected error for pointer loop")
	}
}

func TestCanonicalLowercases(t *testing.T) {
	if got := MustName("A.Root-Servers.NET.").Canonical(); got != "a.root-servers.net." {
		t.Errorf("canonical = %q", got)
	}
}
