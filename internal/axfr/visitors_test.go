package axfr

import (
	"bytes"
	"encoding/binary"
	"errors"
	"strings"
	"testing"

	"repro/internal/dnswire"
)

// errClass names the class of a receive error: the sentinels callers branch
// on, the ID mismatch, and the "server never answered" read failure.
func errClass(err error) string {
	switch {
	case err == nil:
		return "ok"
	case errors.Is(err, ErrTruncatedTransfer):
		return "truncated"
	case errors.Is(err, ErrRefused):
		return "refused"
	case errors.Is(err, ErrEmpty):
		return "empty"
	case errors.Is(err, ErrNotBracketed):
		return "not-bracketed"
	case strings.Contains(err.Error(), "does not match query ID"):
		return "id"
	case strings.HasPrefix(err.Error(), "axfr: read:"):
		return "read"
	}
	return "other: " + err.Error()
}

// TestVisitorsAgreeOnErrorClass feeds the same streams to the three
// consumers of ReceiveLazy. They share its ID / rcode / SOA-bracket /
// truncation state machine, so each stream must put all three in the same
// error class.
func TestVisitorsAgreeOnErrorClass(t *testing.T) {
	const id = 7
	z := testZone(t, 200) // several frames
	var buf bytes.Buffer
	if err := Serve(&buf, z, axfrQuery(id)); err != nil {
		t.Fatal(err)
	}
	clean := buf.Bytes()
	ends := frameBoundaries(t, clean)
	if len(ends) < 3 {
		t.Fatalf("want at least three frames, got %d", len(ends))
	}
	frame := func(m *dnswire.Message) []byte {
		var b bytes.Buffer
		if err := WriteMessage(&b, m); err != nil {
			t.Fatal(err)
		}
		return b.Bytes()
	}
	// The second frame with its first record's RDLENGTH pointing past the
	// end of the message: structurally malformed, whatever the visitor reads.
	malformed := append([]byte(nil), clean...)
	msg := malformed[ends[0]+2 : ends[1]]
	v, err := dnswire.NewView(msg)
	if err != nil {
		t.Fatal(err)
	}
	cur := v.Records()
	var first dnswire.RawRR
	if !cur.Next(&first) {
		t.Fatal("second frame holds no record")
	}
	binary.BigEndian.PutUint16(msg[first.RDataOff-2:], 0xffff)

	ns := dnswire.RR{Name: dnswire.Root, Class: dnswire.ClassINET, TTL: 1,
		Data: dnswire.NSRecord{Host: dnswire.MustName("a.root-servers.net.")}}

	cases := []struct {
		name, want string
		stream     []byte
	}{
		{"clean", "ok", clean},
		{"cut after the first frame", "truncated", clean[:ends[0]]},
		{"cut after the second frame", "truncated", clean[:ends[1]]},
		{"short frame mid-stream", "truncated", clean[:ends[1]-5]},
		{"short frame at the start", "read", clean[:ends[0]-5]},
		{"nothing at all", "read", nil},
		{"wrong ID", "id", frame(&dnswire.Message{
			Header: dnswire.Header{ID: id + 1, Response: true}, Answers: []dnswire.RR{ns}})},
		{"REFUSED", "refused", frame(&dnswire.Message{
			Header: dnswire.Header{ID: id, Response: true, Rcode: dnswire.RcodeRefused}})},
		{"empty answer", "empty", frame(&dnswire.Message{
			Header: dnswire.Header{ID: id, Response: true}})},
		{"missing opening SOA", "not-bracketed", append(frame(&dnswire.Message{
			Header: dnswire.Header{ID: id, Response: true}, Answers: []dnswire.RR{ns}}), clean...)},
		{"malformed record mid-stream", "truncated", malformed},
	}
	for _, c := range cases {
		_, recvErr := Receive(bytes.NewReader(c.stream), id)
		_, countErr := ReceiveLazy(bytes.NewReader(c.stream), id, nil)
		_, cmpErr := ReceiveCompare(bytes.NewReader(c.stream), id, z)
		for _, got := range []struct {
			consumer string
			err      error
		}{{"Receive", recvErr}, {"ReceiveLazy(nil)", countErr}, {"ReceiveCompare", cmpErr}} {
			if class := errClass(got.err); class != c.want {
				t.Errorf("%s: %s is %q, want %q", c.name, got.consumer, class, c.want)
			}
		}
	}
}
