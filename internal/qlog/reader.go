package qlog

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"sort"

	"repro/internal/segment"
)

// Event is one decoded flight-recorder record.
type Event struct {
	// Kind indexes Registry.
	Kind int
	// Key is the 64-bit sampling/join key.
	Key uint64
	// Subject is the event's identifying bytes: the query prefix
	// (ID + flags + question) for wire events, the target key for campaign
	// events.
	Subject []byte
	// Vals are the schema fields, in registry order.
	Vals []uint64
}

// Def returns the event's registry entry.
func (e Event) Def() *Def { return &Registry[e.Kind] }

// Val returns the named field's value (0 when the schema lacks the name —
// callers filter against the registry first).
func (e Event) Val(field string) uint64 {
	for i, f := range Registry[e.Kind].Fields {
		if f.Name == field {
			return e.Vals[i]
		}
	}
	return 0
}

// Reader decodes a qlog segment, tolerating a torn trailing block exactly
// like the dataset reader (Torn/TornReason report a recovered tail).
type Reader struct {
	*segment.Reader
}

// NewReader opens a qlog segment stream.
func NewReader(in io.Reader) (*Reader, error) {
	sr, err := segment.NewReader(in, Magic, Version)
	if err != nil {
		if errors.Is(err, segment.ErrBadMagic) {
			return nil, errors.New("qlog: bad magic (not a flight-recorder segment)")
		}
		return nil, err
	}
	return &Reader{Reader: sr}, nil
}

// Events decodes the whole stream. A torn trailing block truncates cleanly
// (check Torn()); a format error inside CRC-verified bytes fails after the
// decoded prefix.
func (r *Reader) Events() ([]Event, error) {
	var out []Event
	for {
		f, err := r.NextFrame()
		if err != nil {
			if errors.Is(err, io.EOF) {
				return out, nil
			}
			return out, err
		}
		payload, err := segment.Decompress(f)
		if err != nil {
			r.Tear(err)
			return out, nil
		}
		evs, err := decodeBlock(payload, f.Count)
		out = append(out, evs...)
		if err != nil {
			return out, err
		}
	}
}

// decodeBlock decodes one decompressed block's records, enforcing the
// declared count in both directions.
func decodeBlock(payload []byte, count uint32) ([]Event, error) {
	rr := segment.NewRecordReader(payload)
	// The count is whatever the file says: size by it no further than the
	// payload could bear it out (a record takes at least a byte).
	out := make([]Event, 0, min(int(count), len(payload)))
	left := count
	for rr.Len() > 0 {
		if left == 0 {
			return out, errors.New("qlog: more records than block header declared")
		}
		left--
		e, err := decodeRecord(rr)
		if err != nil {
			return out, err
		}
		out = append(out, e)
	}
	if left != 0 {
		return out, fmt.Errorf("qlog: block ended with %d records unread", left)
	}
	return out, nil
}

// decodeRecord decodes one event.
func decodeRecord(rr *segment.RecordReader) (Event, error) {
	var e Event
	kind, err := rr.Uvarint()
	if err != nil {
		return e, fmt.Errorf("qlog: record kind: %w", err)
	}
	if kind >= uint64(len(Registry)) {
		return e, fmt.Errorf("qlog: unknown event kind %d", kind)
	}
	e.Kind = int(kind)
	if e.Key, err = rr.Uvarint(); err != nil {
		return e, err
	}
	if e.Subject, err = rr.Bytes(); err != nil {
		return e, err
	}
	e.Vals = make([]uint64, len(Registry[e.Kind].Fields))
	for i := range e.Vals {
		if e.Vals[i], err = rr.Uvarint(); err != nil {
			return e, err
		}
	}
	return e, nil
}

// Compare orders two events by their full logical content: kind, key,
// field values, subject bytes. It is the canonical order of a flight log —
// append order varies with shard scheduling, content does not.
func Compare(a, b Event) int {
	switch {
	case a.Kind != b.Kind:
		if a.Kind < b.Kind {
			return -1
		}
		return 1
	case a.Key != b.Key:
		if a.Key < b.Key {
			return -1
		}
		return 1
	}
	for i := range a.Vals {
		if a.Vals[i] != b.Vals[i] {
			if a.Vals[i] < b.Vals[i] {
				return -1
			}
			return 1
		}
	}
	return bytes.Compare(a.Subject, b.Subject)
}

// SortCanonical sorts events into canonical (logical) order. The sort is
// stable so events with identical content keep their single-shard append
// order, which is itself deterministic.
func SortCanonical(evs []Event) {
	sort.SliceStable(evs, func(i, j int) bool { return Compare(evs[i], evs[j]) < 0 })
}

// String renders an event for humans: kind, key, and name=value fields with
// enums resolved.
func (e Event) String() string {
	d := e.Def()
	buf := make([]byte, 0, 96)
	buf = append(buf, d.Kind...)
	buf = append(buf, fmt.Sprintf(" key=%016x", e.Key)...)
	for i, f := range d.Fields {
		v := e.Vals[i]
		buf = append(buf, ' ')
		buf = append(buf, f.Name...)
		buf = append(buf, '=')
		if int(v) < len(f.Enum) {
			buf = append(buf, f.Enum[v]...)
		} else {
			buf = append(buf, fmt.Sprintf("%d", v)...)
		}
	}
	return string(buf)
}
