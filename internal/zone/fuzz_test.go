package zone

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/dnswire"
)

// FuzzParse feeds the master-file parser arbitrary text: it must never
// panic, and a zone it accepts must print to text that parses back to a zone
// that prints the same bytes.
func FuzzParse(f *testing.F) {
	f.Add(conveniences)
	var root bytes.Buffer
	if err := SynthesizeRoot(RootConfig{Serial: 2023070300, TLDCount: 3, NSPerTLD: 2, Seed: 1}).Print(&root); err != nil {
		f.Fatal(err)
	}
	f.Add(root.String())
	// One line of each remaining type Parse reads.
	f.Add(`$ORIGIN example.
@ TXT "v=spf1 -all" plain
@ DNSKEY 257 3 8 AwEAAQ==
@ RRSIG SOA 8 1 3600 1704067200 1701388800 12345 example. c2ln
@ DS 12345 8 2 ABCDEF0123
@ NSEC www.example. SOA NS RRSIG NSEC
@ ZONEMD 7 1 1 00FF
`)
	f.Fuzz(func(t *testing.T, text string) {
		z, err := Parse(strings.NewReader(text), dnswire.MustName("example."))
		if err != nil {
			return
		}
		var first, second bytes.Buffer
		if err := z.Print(&first); err != nil {
			t.Fatal(err)
		}
		again, err := Parse(bytes.NewReader(first.Bytes()), z.Apex)
		if err != nil {
			t.Fatalf("printed zone does not parse: %v\n%s", err, first.Bytes())
		}
		if err := again.Print(&second); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("print, parse, print changed the text:\n%s\nthen:\n%s", first.Bytes(), second.Bytes())
		}
	})
}
