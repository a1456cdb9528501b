// Package axfr implements DNS zone transfers (RFC 5936) over TCP with the
// standard 2-octet length framing (RFC 1035 §4.2.2). It provides both the
// serving side (splitting a zone into response messages) and the client side
// (requesting, reassembling, and SOA-bracket-checking a transfer), as used
// by the measurement battery's `dig AXFR .` step.
package axfr

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sync"

	"repro/internal/dnswire"
	"repro/internal/telemetry"
	"repro/internal/zone"
)

// Transfer errors.
var (
	ErrNotBracketed = errors.New("axfr: transfer not bracketed by SOA records")
	ErrRefused      = errors.New("axfr: transfer refused")
	ErrEmpty        = errors.New("axfr: empty transfer")
	// ErrTruncatedFrame classifies a TCP frame that ends before delivering
	// the bytes its length prefix declared (including a partial prefix) —
	// the wire signature of a connection cut mid-message.
	ErrTruncatedFrame = errors.New("axfr: truncated TCP frame")
	// ErrTruncatedTransfer classifies a transfer stream that ends after
	// some records but before the closing SOA bracket.
	ErrTruncatedTransfer = errors.New("axfr: transfer ended before closing SOA")
)

// MaxMessageBytes is the soft per-message payload budget when serving a
// transfer. Real servers pack close to 64 KiB; a smaller default exercises
// multi-message reassembly even for small test zones.
const MaxMessageBytes = 16 * 1024

// framePool recycles frame buffers across transfers: a message is packed
// directly behind its 2-octet length prefix and written in one call, so the
// steady-state serving path allocates nothing per message.
var framePool = sync.Pool{New: func() any {
	b := make([]byte, 0, MaxMessageBytes+1024)
	return &b
}}

// WriteMessage writes one DNS message with the TCP length prefix.
//
//rootlint:hotpath
func WriteMessage(w io.Writer, m *dnswire.Message) error {
	bp := framePool.Get().(*[]byte)
	defer framePool.Put(bp)
	buf, err := m.AppendPack(append((*bp)[:0], 0, 0))
	if err != nil {
		return err
	}
	*bp = buf[:0]
	wireLen := len(buf) - 2
	if wireLen > 0xFFFF {
		//rootlint:allow hotpath: cold error path — ResponseMessages chunks zones well under the frame limit
		return fmt.Errorf("axfr: message of %d bytes exceeds TCP frame limit", wireLen)
	}
	binary.BigEndian.PutUint16(buf, uint16(wireLen))
	_, err = w.Write(buf)
	return err
}

// ReadMessage reads one length-prefixed DNS message. The read buffer is
// pooled: Unpack copies every byte it retains, so the frame can be reused
// for the next message.
func ReadMessage(r io.Reader) (*dnswire.Message, error) {
	bp := framePool.Get().(*[]byte)
	defer framePool.Put(bp)
	wire, err := ReadFrame(r, bp)
	if err != nil {
		return nil, err
	}
	return dnswire.Unpack(wire)
}

// ReadFrame reads one length-prefixed frame into *bp, growing the buffer as
// needed. The returned slice aliases *bp and is valid until the next read.
func ReadFrame(r io.Reader, bp *[]byte) ([]byte, error) {
	var prefix [2]byte
	if _, err := io.ReadFull(r, prefix[:]); err != nil {
		if errors.Is(err, io.ErrUnexpectedEOF) {
			return nil, fmt.Errorf("%w: partial length prefix", ErrTruncatedFrame)
		}
		return nil, err // a clean EOF at a frame boundary stays io.EOF
	}
	n := int(binary.BigEndian.Uint16(prefix[:]))
	wire := *bp
	if cap(wire) < n {
		wire = make([]byte, 0, n)
		*bp = wire
	}
	wire = wire[:n]
	if _, err := io.ReadFull(r, wire); err != nil {
		return nil, fmt.Errorf("%w: frame declared %d bytes: %v", ErrTruncatedFrame, n, err)
	}
	return wire, nil
}

// ResponseMessages splits z into AXFR response messages answering query id:
// the zone's records with the SOA first and repeated last, chunked so each
// message stays under MaxMessageBytes.
func ResponseMessages(z *zone.Zone, id uint16, question dnswire.Question) ([]*dnswire.Message, error) {
	apex := z.Apex.Canonical()
	soaIdx := -1
	for i, rr := range z.Records {
		if rr.Type() == dnswire.TypeSOA && rr.Name.Canonical() == apex {
			soaIdx = i
			break
		}
	}
	if soaIdx < 0 {
		return nil, errors.New("axfr: zone has no SOA")
	}
	// Stream order: SOA, all non-SOA records, SOA again.
	stream := make([]int, 0, len(z.Records)+1)
	stream = append(stream, soaIdx)
	for i, rr := range z.Records {
		if rr.Type() == dnswire.TypeSOA && rr.Name.Canonical() == apex {
			continue
		}
		stream = append(stream, i)
	}
	stream = append(stream, soaIdx)

	newMsg := func(withQuestion bool) *dnswire.Message {
		m := &dnswire.Message{Header: dnswire.Header{
			ID: id, Response: true, Authoritative: true,
		}}
		if withQuestion {
			m.Questions = []dnswire.Question{question}
		}
		return m
	}

	var msgs []*dnswire.Message
	cur := newMsg(true)
	curBytes := 0
	for _, i := range stream {
		rrBytes := estimateRRSize(z, i)
		if curBytes > 0 && curBytes+rrBytes > MaxMessageBytes {
			msgs = append(msgs, cur)
			cur = newMsg(false)
			curBytes = 0
		}
		cur.Answers = append(cur.Answers, z.Records[i])
		curBytes += rrBytes
	}
	if len(cur.Answers) > 0 {
		msgs = append(msgs, cur)
	}
	return msgs, nil
}

// estimateRRSize upper-bounds the packed size of z.Records[i] without
// compression. It reads the sidecar's cached canonical wire form, whose
// length equals what a fresh canonical encode would produce — chunk
// boundaries (and so the transfer's framing bytes) are unchanged.
func estimateRRSize(z *zone.Zone, i int) int {
	return len(z.CanonicalWire(i)) + 16
}

// Serve writes a full AXFR response for z to w, answering the given query
// message. It is the serving half used by the dnsserver package's TCP path.
func Serve(w io.Writer, z *zone.Zone, query *dnswire.Message) error {
	if len(query.Questions) != 1 {
		return errors.New("axfr: query must have exactly one question")
	}
	mServes.Inc()
	timer := telemetry.StartTimer()
	defer timer.ObserveInto(mServeDur)
	span := telemetry.StartSpan("serve", "axfr", -1, 0)
	defer span.End()
	msgs, err := ResponseMessages(z, query.Header.ID, query.Questions[0])
	if err != nil {
		return err
	}
	for _, m := range msgs {
		if err := WriteMessage(w, m); err != nil {
			return err
		}
	}
	return nil
}

// Refuse writes a REFUSED response to an AXFR query, as root servers that do
// not offer transfers on an address would.
func Refuse(w io.Writer, query *dnswire.Message) error {
	resp := &dnswire.Message{
		Header: dnswire.Header{
			ID: query.Header.ID, Response: true, Rcode: dnswire.RcodeRefused,
		},
		Questions: query.Questions,
	}
	return WriteMessage(w, resp)
}

// Receive reads AXFR response messages from r until the transfer is complete
// (the SOA record appears a second time) and reassembles the zone. It is the
// decoding visitor over ReceiveLazy, which enforces the SOA bracket and
// matching message IDs.
func Receive(r io.Reader, id uint16) (*zone.Zone, error) {
	var records []dnswire.RR
	_, err := ReceiveLazy(r, id, func(v *dnswire.View, raw *dnswire.RawRR) error {
		rr, err := v.Unpack(raw)
		if err != nil {
			return cutErr(len(records), err)
		}
		records = append(records, rr)
		return nil
	})
	if err != nil {
		return nil, err
	}
	z := zone.New(records[0].Name)
	z.Add(records...)
	return z, nil
}

// cutErr classifies a stream that stopped making sense: once part of the
// zone has been delivered it is a mid-transfer disconnect (a malformed
// record counts as one), distinct from a server that never answered.
func cutErr(records int, err error) error {
	if records > 0 {
		return fmt.Errorf("%w after %d records (%v)", ErrTruncatedTransfer, records, err)
	}
	return fmt.Errorf("axfr: read: %w", err)
}

// ReceiveLazy reads an AXFR response stream, enforcing message IDs, Rcodes
// and the SOA bracket, and walks the records through the lazy wire view
// (dnswire.View) instead of decoding them, so no Name strings or RData
// values are materialized unless the visitor asks. visit is called once per
// zone record in stream order (the opening SOA included, the closing SOA
// excluded); a nil visit just counts. It returns the number of zone records
// seen. Receive and ReceiveCompare are its two visitors.
func ReceiveLazy(r io.Reader, id uint16, visit func(v *dnswire.View, rr *dnswire.RawRR) error) (int, error) {
	bp := framePool.Get().(*[]byte)
	defer framePool.Put(bp)
	records := 0
	soaSeen := 0
	var v dnswire.View
	var raw dnswire.RawRR
	for soaSeen < 2 {
		frame, err := ReadFrame(r, bp)
		if err == nil {
			v, err = dnswire.NewView(frame)
		}
		if err != nil {
			return records, cutErr(records, err)
		}
		if v.ID() != id {
			return records, fmt.Errorf("axfr: response ID %d does not match query ID %d", v.ID(), id)
		}
		if v.Rcode() == dnswire.RcodeRefused {
			return records, ErrRefused
		}
		if v.Rcode() != dnswire.RcodeNoError {
			return records, fmt.Errorf("axfr: server returned %s", v.Rcode())
		}
		if _, an, _, _ := v.Counts(); an == 0 {
			return records, ErrEmpty
		}
		cur := v.Records()
		done := false
		for cur.Next(&raw) {
			if raw.Section != dnswire.SectionAnswer {
				break
			}
			if raw.Type == dnswire.TypeSOA {
				soaSeen++
				if soaSeen == 2 {
					done = true
					break
				}
			} else if records == 0 {
				// The bracket opens with the SOA or the stream is not a
				// transfer; no visitor sees a record of it.
				return 0, ErrNotBracketed
			}
			if visit != nil {
				if err := visit(&v, &raw); err != nil {
					return records, err
				}
			}
			records++
		}
		if err := cur.Err(); err != nil && !done {
			return records, cutErr(records, err)
		}
	}
	return records, nil
}

// ReceiveCompare reads an AXFR stream and compares every record's
// canonical wire form byte-for-byte against the reference zone's cached
// canonical sidecar, in serving stream order (opening SOA first, then
// non-SOA records in zone order). This is the compare-only consumer for
// zone diffing: the received transfer is verified against the reference
// without materializing one decoded record. It returns the number of
// records compared.
func ReceiveCompare(r io.Reader, id uint16, ref *zone.Zone) (int, error) {
	// Mirror ResponseMessages' stream order: the first apex SOA opens the
	// transfer; every record that is not an apex SOA follows in zone order.
	apex := ref.Apex.Canonical()
	soaIdx := -1
	for i, rr := range ref.Records {
		if rr.Type() == dnswire.TypeSOA && rr.Name.Canonical() == apex {
			soaIdx = i
			break
		}
	}
	if soaIdx < 0 {
		return 0, errors.New("axfr: reference zone has no SOA")
	}
	stream := make([]int, 0, len(ref.Records))
	stream = append(stream, soaIdx)
	for i, rr := range ref.Records {
		if rr.Type() == dnswire.TypeSOA && rr.Name.Canonical() == apex {
			continue
		}
		stream = append(stream, i)
	}
	buf := make([]byte, 0, 512)
	k := 0
	got, err := ReceiveLazy(r, id, func(v *dnswire.View, raw *dnswire.RawRR) error {
		if k >= len(stream) {
			return fmt.Errorf("axfr: transfer delivered more than the %d reference records", len(stream))
		}
		var cmpErr error
		buf, cmpErr = v.AppendCanonical(buf[:0], raw)
		if cmpErr != nil {
			return cmpErr
		}
		if !bytes.Equal(buf, ref.CanonicalWire(stream[k])) {
			return fmt.Errorf("axfr: transfer record %d differs from reference record %d", k, stream[k])
		}
		k++
		return nil
	})
	if err != nil {
		return got, err
	}
	if got != len(stream) {
		return got, fmt.Errorf("axfr: transfer delivered %d records, reference zone serves %d", got, len(stream))
	}
	return got, nil
}
