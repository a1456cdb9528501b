package measure

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/failpoint"
	"repro/internal/telemetry"
)

// The campaign as a checkpoint owner (DESIGN.md, "Checkpoint & resume"). It
// is a pure function of (seed, config) per tick — probes, transfers, jitter
// and the loss model are stateless hashes, and the zone/validation/battery
// caches rebuild on demand — so a resume needs only the next tick position,
// the wire-check accumulators that cross ticks, and the parts: every handler
// that is a checkpoint.Part and, last, the stream-class telemetry.

// DefaultCheckpointEvery is the checkpoint cadence when Config.CheckpointEvery
// is zero.
const DefaultCheckpointEvery = 32

// progress is the campaign's own position in the checkpoint sidecar.
type progress struct {
	// TickPos is the index of the next tick to run; TickCount cross-checks
	// the schedule length.
	TickPos   int `json:"tick_pos"`
	TickCount int `json:"tick_count"`
	// WireQueries and WireFailures restore the wire-check accumulators.
	WireQueries  int      `json:"wire_queries"`
	WireFailures []string `json:"wire_failures,omitempty"`
}

// checkpointParts lists what rides the campaign's checkpoints: the handlers
// with resumable state, in handler order, then the stream-class telemetry —
// last, so its snapshot includes what sealing the handlers counted.
func checkpointParts(handlers []Handler) []checkpoint.Part {
	var parts []checkpoint.Part
	for _, h := range handlers {
		if p, ok := h.(checkpoint.Part); ok {
			parts = append(parts, p)
		}
	}
	return append(parts, telemetry.StreamState{})
}

// checkpointSig spells out everything that shapes the campaign's output
// bytes: schedule, seed, zone size, world population size, and the effective
// checkpoint cadence (every checkpoint also seals a dataset block). Worker
// count and error budget are deliberately excluded: both may change across
// restarts without affecting output bytes. It is kept in the clear, so a
// refused resume shows which value differs.
func (c *Campaign) checkpointSig(every int) string {
	return fmt.Sprintf("seed=%d|scale=%d|tld=%d|start=%s|end=%s|wire=%t|vps=%d|every=%d",
		c.Cfg.Seed, c.Cfg.Scale, c.Cfg.TLDCount,
		c.Cfg.Start.UTC().Format(time.RFC3339), c.Cfg.End.UTC().Format(time.RFC3339),
		c.Cfg.WireCheck, len(c.World.Population.VPs), every)
}

// loadResume validates the checkpoint against this campaign (sig), restores
// the parts and the campaign-side accumulators, and returns the tick
// position to resume at.
func (c *Campaign) loadResume(parts []checkpoint.Part, sig string, nticks int) (int, error) {
	var p progress
	f, err := checkpoint.Load(c.Cfg.CheckpointPath, &p)
	if err != nil {
		return 0, fmt.Errorf("measure: %w", err)
	}
	if err := f.Restore(sig, parts); err != nil {
		return 0, fmt.Errorf("measure: checkpoint %s: %w", c.Cfg.CheckpointPath, err)
	}
	if p.TickCount != nticks || p.TickPos < 0 || p.TickPos > nticks {
		return 0, fmt.Errorf("measure: checkpoint tick position %d/%d does not fit schedule of %d ticks",
			p.TickPos, p.TickCount, nticks)
	}
	c.WireQueries = p.WireQueries
	c.WireFailures = append([]string(nil), p.WireFailures...)
	return p.TickPos, nil
}

// saveCheckpoint seals every part and atomically replaces the checkpoint
// sidecar. A seal or write failure is a degraded outcome: within the error
// budget it is counted and the step retried once (sealing is repeatable);
// past the budget, or on retry failure, the campaign aborts. A simulated
// kill (failpoint) propagates immediately, skipping the checkpoint write as
// a real SIGKILL would.
func (c *Campaign) saveCheckpoint(parts []checkpoint.Part, sig string, pos, total int) error {
	timer := telemetry.StartTimer()
	defer timer.ObserveInto(mCheckpointDur)
	span := telemetry.StartSpan("campaign", "checkpoint", pos-1, 0)
	defer span.End()
	// Count the checkpoint before sealing, so the telemetry part's snapshot
	// includes it: an uninterrupted run's campaign/checkpoints total then
	// equals the resumed run's (restored N, plus one per later checkpoint),
	// keeping the counter stream-class under kills.
	mCheckpoints.Inc()
	prog := progress{TickPos: pos, TickCount: total, WireQueries: c.WireQueries, WireFailures: c.WireFailures}
	f, err := checkpoint.Seal(sig, prog, parts)
	if err != nil {
		if errors.Is(err, failpoint.ErrKilled) {
			return err
		}
		if aerr := c.noteDegraded(degWriteError, fmt.Sprintf("seal at tick %d: %v", pos, err)); aerr != nil {
			return aerr
		}
		if f, err = checkpoint.Seal(sig, prog, parts); err != nil {
			return fmt.Errorf("measure: checkpoint seal retry failed: %w", err)
		}
	}
	// Chaos kill-point between sealing the dataset and writing the
	// checkpoint: resume must tolerate sealed-but-uncheckpointed blocks by
	// truncating back to the recorded offset.
	if err := failpoint.Eval("campaign/checkpoint"); err != nil {
		return err
	}
	if err := f.Save(c.Cfg.CheckpointPath); err != nil {
		if aerr := c.noteDegraded(degWriteError, fmt.Sprintf("checkpoint write at tick %d: %v", pos, err)); aerr != nil {
			return aerr
		}
		if err := f.Save(c.Cfg.CheckpointPath); err != nil {
			return fmt.Errorf("measure: checkpoint write retry failed: %w", err)
		}
	}
	return nil
}
