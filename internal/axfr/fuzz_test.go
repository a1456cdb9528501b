package axfr

import (
	"bytes"
	"testing"

	"repro/internal/dnswire"
	"repro/internal/zone"
)

// FuzzReceiveLazy holds the lazy walk to the decoding one on any stream: a
// record the decoder reads has the same canonical bytes through the view,
// and a stream Receive takes whole ReceiveLazy takes too, with as many
// records, each with the canonical bytes of the decoded one. It is seeded
// with served transfers of one and of several messages, and with what the
// robustness tests feed Receive: a stream cut short, a refusal, a stream
// whose first record is not the SOA.
func FuzzReceiveLazy(f *testing.F) {
	const id = 7
	for _, tlds := range []int{3, 40} {
		cfg := zone.DefaultRootConfig()
		cfg.TLDCount = tlds
		var buf bytes.Buffer
		if err := Serve(&buf, zone.SynthesizeRoot(cfg), axfrQuery(id)); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
		f.Add(buf.Bytes()[:buf.Len()/2])
	}
	var refused bytes.Buffer
	if err := Refuse(&refused, axfrQuery(id)); err != nil {
		f.Fatal(err)
	}
	f.Add(refused.Bytes())
	var unbracketed bytes.Buffer
	if err := WriteMessage(&unbracketed, &dnswire.Message{
		Header:  dnswire.Header{ID: id, Response: true},
		Answers: []dnswire.RR{{Name: dnswire.Root, Class: dnswire.ClassINET, TTL: 60, Data: dnswire.NSRecord{Host: dnswire.MustName("a.root-servers.net.")}}},
	}); err != nil {
		f.Fatal(err)
	}
	f.Add(unbracketed.Bytes())

	f.Fuzz(func(t *testing.T, stream []byte) {
		var lazy [][]byte
		n, lazyErr := ReceiveLazy(bytes.NewReader(stream), id, func(v *dnswire.View, raw *dnswire.RawRR) error {
			canon, err := v.AppendCanonical(nil, raw)
			if rr, decErr := v.Unpack(raw); decErr == nil {
				if err != nil {
					t.Fatalf("record %d decodes as %s, and its lazy canonical form fails: %v", len(lazy), rr, err)
				}
				if want := dnswire.AppendCanonicalRR(nil, rr, rr.TTL); !bytes.Equal(canon, want) {
					t.Fatalf("record %d (%s): lazy canonical bytes %x, decoded %x", len(lazy), rr, canon, want)
				}
			}
			if err != nil {
				return err
			}
			lazy = append(lazy, canon)
			return nil
		})
		full, err := Receive(bytes.NewReader(stream), id)
		if err != nil {
			return
		}
		if lazyErr != nil || n != len(full.Records) {
			t.Fatalf("Receive takes %d records; ReceiveLazy counts %d and fails with %v", len(full.Records), n, lazyErr)
		}
		for i, rr := range full.Records {
			if !bytes.Equal(lazy[i], dnswire.AppendCanonicalRR(nil, rr, rr.TTL)) {
				t.Fatalf("record %d: lazy canonical bytes differ from decoded", i)
			}
		}
	})
}
