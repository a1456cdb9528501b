// Checkpoint support: every accumulator in this package is a checkpoint.Part.
// It seals its state into a deterministic JSON blob and restores from one,
// which is what lets rootanalyze ride the replay checkpoint/resume machinery
// (dataset.ReplayWith). Determinism matters more than compactness here: the
// same logical state must always seal to the same bytes, so that
// resumed-vs-uninterrupted comparisons are byte-exact. encoding/json already
// orders maps keyed by strings or integers; the struct-keyed maps go through
// sorted, the one helper below. An accumulator's seal is then nothing but
// the list of its fields.
package analysis

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sort"
)

// sorted is a struct-keyed map that seals as a JSON array of {k, v} entries.
// Entries are ordered by their encoding, and since every entry opens with
// its key and keys are distinct, that is the order of the keys' own
// encodings: a total order that depends on the map's content alone, never on
// iteration order. (A set is a sorted[K, bool].)
type sorted[K comparable, V any] map[K]V

type entry[K comparable, V any] struct {
	K K `json:"k"`
	V V `json:"v"`
}

// sortedMap views an accumulator's map field as a sorted, for both sealing
// and restoring in place.
func sortedMap[K comparable, V any](m *map[K]V) *sorted[K, V] { return (*sorted[K, V])(m) }

// MarshalJSON implements json.Marshaler.
func (m sorted[K, V]) MarshalJSON() ([]byte, error) {
	entries := make([][]byte, 0, len(m))
	for k, v := range m {
		b, err := json.Marshal(entry[K, V]{k, v})
		if err != nil {
			return nil, err
		}
		entries = append(entries, b)
	}
	sort.Slice(entries, func(a, b int) bool { return bytes.Compare(entries[a], entries[b]) < 0 })
	out := append([]byte{'['}, bytes.Join(entries, []byte{','})...)
	return append(out, ']'), nil
}

// UnmarshalJSON implements json.Unmarshaler; it always leaves a fresh,
// non-nil map behind.
func (m *sorted[K, V]) UnmarshalJSON(data []byte) error {
	var entries []entry[K, V]
	if err := json.Unmarshal(data, &entries); err != nil {
		return err
	}
	*m = make(sorted[K, V], len(entries))
	for _, e := range entries {
		(*m)[e.K] = e.V
	}
	return nil
}

// restore decodes a blob sealed as json.Marshal(fields) back into the same
// field pointers, refusing a blob with another field count.
func restore(state []byte, fields []any) error {
	var raw []json.RawMessage
	if err := json.Unmarshal(state, &raw); err != nil {
		return err
	}
	if len(raw) != len(fields) {
		return fmt.Errorf("analysis: sealed state has %d fields, accumulator has %d", len(raw), len(fields))
	}
	for i, f := range fields {
		if err := json.Unmarshal(raw[i], f); err != nil {
			return err
		}
	}
	return nil
}

func (c *Coverage) sealed() []any { return []any{&c.observedIdentifiers} }

// CheckpointSeal implements checkpoint.Part.
func (c *Coverage) CheckpointSeal() ([]byte, error) { return json.Marshal(c.sealed()) }

// RestoreCheckpoint implements checkpoint.Part.
func (c *Coverage) RestoreCheckpoint(state []byte) error { return restore(state, c.sealed()) }

func (s *Stability) sealed() []any {
	return []any{sortedMap(&s.last), sortedMap(&s.changes), sortedMap(&s.seen)}
}

// CheckpointSeal implements checkpoint.Part.
func (s *Stability) CheckpointSeal() ([]byte, error) { return json.Marshal(s.sealed()) }

// RestoreCheckpoint implements checkpoint.Part.
func (s *Stability) RestoreCheckpoint(state []byte) error { return restore(state, s.sealed()) }

// The in-progress tick state (current) is part of the snapshot: a checkpoint
// can land mid-tick, and the resumed run must fold that tick exactly as the
// uninterrupted one would.
func (c *Colocation) sealed() []any {
	return []any{sortedMap(&c.current), sortedMap(&c.series)}
}

// CheckpointSeal implements checkpoint.Part.
func (c *Colocation) CheckpointSeal() ([]byte, error) { return json.Marshal(c.sealed()) }

// RestoreCheckpoint implements checkpoint.Part.
func (c *Colocation) RestoreCheckpoint(state []byte) error { return restore(state, c.sealed()) }

// The closest-global-site cache is deliberately excluded: it is a pure
// function of the system and population the accumulator was constructed
// with, and rebuilds on demand.
func (d *Distance) sealed() []any {
	return []any{sortedMap(&d.samples), sortedMap(&d.extraSum), sortedMap(&d.extraCount)}
}

// CheckpointSeal implements checkpoint.Part.
func (d *Distance) CheckpointSeal() ([]byte, error) { return json.Marshal(d.sealed()) }

// RestoreCheckpoint implements checkpoint.Part.
func (d *Distance) RestoreCheckpoint(state []byte) error { return restore(state, d.sealed()) }

func (r *RTT) sealed() []any {
	return []any{sortedMap(&r.samples), sortedMap(&r.viaCarrier), sortedMap(&r.carrierCount), sortedMap(&r.totalCount)}
}

// CheckpointSeal implements checkpoint.Part.
func (r *RTT) CheckpointSeal() ([]byte, error) { return json.Marshal(r.sealed()) }

// RestoreCheckpoint implements checkpoint.Part.
func (r *RTT) RestoreCheckpoint(state []byte) error { return restore(state, r.sealed()) }

// The retained bitflip is order-sensitive (first observed wins), so it rides
// the snapshot verbatim.
func (i *Integrity) sealed() []any {
	return []any{sortedMap(&i.rows), &i.flip, &i.Transfers, &i.Failures}
}

// CheckpointSeal implements checkpoint.Part.
func (i *Integrity) CheckpointSeal() ([]byte, error) { return json.Marshal(i.sealed()) }

// RestoreCheckpoint implements checkpoint.Part.
func (i *Integrity) RestoreCheckpoint(state []byte) error { return restore(state, i.sealed()) }
