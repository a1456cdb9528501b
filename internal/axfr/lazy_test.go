package axfr

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/dnswire"
)

// serveToBuffer runs a full transfer of z into an in-memory stream.
func serveToBuffer(t *testing.T, tlds int, id uint16) (*bytes.Buffer, int) {
	t.Helper()
	z := testZone(t, tlds)
	var buf bytes.Buffer
	if err := Serve(&buf, z, axfrQuery(id)); err != nil {
		t.Fatal(err)
	}
	return &buf, len(z.Records)
}

// TestReceiveLazyMatchesReceive pins the lazy path against the decoding
// path on the same stream: same record count, and the canonical bytes of
// every lazily walked record equal the canonical form of the decoded one.
func TestReceiveLazyMatchesReceive(t *testing.T) {
	z := testZone(t, 40)
	var a, b bytes.Buffer
	if err := Serve(&a, z, axfrQuery(7)); err != nil {
		t.Fatal(err)
	}
	b.Write(a.Bytes())
	full, err := Receive(&a, 7)
	if err != nil {
		t.Fatal(err)
	}
	var canon [][]byte
	n, err := ReceiveLazy(&b, 7, func(v *dnswire.View, rr *dnswire.RawRR) error {
		w, err := v.AppendCanonical(nil, rr)
		if err != nil {
			return err
		}
		canon = append(canon, w)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if n != len(full.Records) {
		t.Fatalf("lazy count %d, decoded count %d", n, len(full.Records))
	}
	for i, rr := range full.Records {
		want := dnswire.AppendCanonicalRR(nil, rr, rr.TTL)
		if !bytes.Equal(canon[i], want) {
			t.Fatalf("record %d: lazy canonical bytes differ from decoded", i)
		}
	}
}

// TestReceiveCompareRoundTrip: a served transfer compares clean against its
// own zone, and a corrupted one is caught.
func TestReceiveCompareRoundTrip(t *testing.T) {
	z := testZone(t, 200) // multi-message
	var buf bytes.Buffer
	if err := Serve(&buf, z, axfrQuery(3)); err != nil {
		t.Fatal(err)
	}
	n, err := ReceiveCompare(&buf, 3, z)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(z.Records) {
		t.Fatalf("compared %d records, zone has %d", n, len(z.Records))
	}
}

func TestReceiveCompareDetectsMismatch(t *testing.T) {
	z := testZone(t, 40)
	var buf bytes.Buffer
	if err := Serve(&buf, z, axfrQuery(3)); err != nil {
		t.Fatal(err)
	}
	// Flip one bit inside some mid-stream frame payload (past the first
	// frame's header region so the stream still parses).
	raw := buf.Bytes()
	raw[len(raw)/2] ^= 0x01
	if _, err := ReceiveCompare(bytes.NewBuffer(raw), 3, z); err == nil {
		t.Fatal("corrupted transfer compared clean")
	}
}

// TestReceiveCountSemantics mirrors the Receive robustness table on the
// lazy path: ID mismatch, REFUSED, truncation classification, SOA bracket.
func TestReceiveCountSemantics(t *testing.T) {
	t.Run("count", func(t *testing.T) {
		buf, want := serveToBuffer(t, 40, 5)
		n, err := ReceiveLazy(buf, 5, nil)
		if err != nil {
			t.Fatal(err)
		}
		if n != want {
			t.Fatalf("counted %d records, zone has %d", n, want)
		}
	})
	t.Run("id-mismatch", func(t *testing.T) {
		buf, _ := serveToBuffer(t, 40, 5)
		if _, err := ReceiveLazy(buf, 6, nil); err == nil {
			t.Fatal("accepted mismatched ID")
		}
	})
	t.Run("refused", func(t *testing.T) {
		var buf bytes.Buffer
		if err := Refuse(&buf, axfrQuery(5)); err != nil {
			t.Fatal(err)
		}
		if _, err := ReceiveLazy(&buf, 5, nil); !errors.Is(err, ErrRefused) {
			t.Fatalf("got %v, want ErrRefused", err)
		}
	})
	t.Run("mid-transfer-disconnect", func(t *testing.T) {
		buf, _ := serveToBuffer(t, 200, 5)
		cut := buf.Bytes()[:buf.Len()*2/3]
		_, err := ReceiveLazy(bytes.NewBuffer(cut), 5, nil)
		if !errors.Is(err, ErrTruncatedTransfer) {
			t.Fatalf("got %v, want ErrTruncatedTransfer", err)
		}
	})
	t.Run("dead-server", func(t *testing.T) {
		_, err := ReceiveLazy(&bytes.Buffer{}, 5, nil)
		if err == nil || errors.Is(err, ErrTruncatedTransfer) {
			t.Fatalf("got %v, want a plain read error", err)
		}
	})
}
