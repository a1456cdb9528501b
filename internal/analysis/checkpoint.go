// Checkpoint support: every accumulator in this package is a checkpoint.Part.
// It seals its state into a deterministic JSON blob and restores from one,
// which is what lets rootanalyze ride the replay checkpoint/resume machinery
// (dataset.ReplayWith). Determinism matters more than compactness here: the
// same logical state must always seal to the same bytes, so that
// resumed-vs-uninterrupted comparisons are byte-exact. The dense tables seal
// as plain JSON arrays, which are ordered by construction, and encoding/json
// already orders maps keyed by strings or integers, so an accumulator's seal
// is nothing but the list of its fields; the one struct-keyed map left,
// Integrity's sparse rows, seals as its sorted row list.
package analysis

import (
	"encoding/json"
	"fmt"
)

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

// RestoreCheckpoint implements checkpoint.Part. The memo goes with the state
// it stood for.
func (c *Coverage) RestoreCheckpoint(state []byte) error {
	c.seen = nil
	return restore(state, c.sealed())
}

func (s *Stability) sealed() []any { return []any{&s.cells} }

// CheckpointSeal implements checkpoint.Part.
func (s *Stability) CheckpointSeal() ([]byte, error) { return json.Marshal(s.sealed()) }

// RestoreCheckpoint implements checkpoint.Part.
func (s *Stability) RestoreCheckpoint(state []byte) error { return restore(state, s.sealed()) }

// The in-progress tick state (current) is part of the snapshot: a checkpoint
// can land mid-tick, and the resumed run must fold that tick exactly as the
// uninterrupted one would.
func (c *Colocation) sealed() []any { return []any{&c.current, &c.counts} }

// CheckpointSeal implements checkpoint.Part.
func (c *Colocation) CheckpointSeal() ([]byte, error) { return json.Marshal(c.sealed()) }

// RestoreCheckpoint implements checkpoint.Part.
func (c *Colocation) RestoreCheckpoint(state []byte) error { return restore(state, c.sealed()) }

// The closest-global-site caches and the site memo are deliberately
// excluded: they are pure functions of the system the accumulator was
// constructed with and of the VPs and sites its events name, and rebuild on
// demand.
func (d *Distance) sealed() []any { return []any{&d.optimal, &d.extra} }

// CheckpointSeal implements checkpoint.Part.
func (d *Distance) CheckpointSeal() ([]byte, error) { return json.Marshal(d.sealed()) }

// RestoreCheckpoint implements checkpoint.Part.
func (d *Distance) RestoreCheckpoint(state []byte) error { return restore(state, d.sealed()) }

func (r *RTT) sealed() []any { return []any{&r.samples, &r.carrierCount, &r.totalCount} }

// CheckpointSeal implements checkpoint.Part.
func (r *RTT) CheckpointSeal() ([]byte, error) { return json.Marshal(r.sealed()) }

// RestoreCheckpoint implements checkpoint.Part.
func (r *RTT) RestoreCheckpoint(state []byte) error { return restore(state, r.sealed()) }

// The rows seal as Rows(), ordered by reason and VP, and a row names its own
// key. The retained bitflip is order-sensitive (first observed wins), so it
// rides the snapshot verbatim.
func (i *Integrity) CheckpointSeal() ([]byte, error) {
	return json.Marshal([]any{i.Rows(), i.flip, i.Transfers, i.Failures})
}

// RestoreCheckpoint implements checkpoint.Part.
func (i *Integrity) RestoreCheckpoint(state []byte) error {
	var rows []*IntegrityRow
	if err := restore(state, []any{&rows, &i.flip, &i.Transfers, &i.Failures}); err != nil {
		return err
	}
	i.rows = make(map[integrityKey]*IntegrityRow, len(rows))
	for _, r := range rows {
		i.rows[integrityKey{r.Reason, r.VPIdx}] = r
	}
	return nil
}
