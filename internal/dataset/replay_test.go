package dataset

// Replay determinism and crash-safety matrix. Everything here pivots on one
// invariant: ReplayWith's observable behavior — handler deliveries, returned
// counts, torn-tail handling, stream-class telemetry — is a pure function of
// the dataset bytes, independent of worker count and of kill/resume cycles.

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/analysis"
	"repro/internal/checkpoint"
	"repro/internal/dnssec"
	"repro/internal/failpoint"
	"repro/internal/faults"
	"repro/internal/measure"
	"repro/internal/rss"
	"repro/internal/telemetry"
)

// synthTransfer builds a deterministic transfer stream with enough failure
// variety to exercise the integrity taxonomy (reasons, bitflips, serials).
func synthTransfer(i int) measure.TransferEvent {
	targets := rss.AllServiceAddrs()
	e := measure.TransferEvent{
		Tick:   measure.Tick{Index: i, Time: time.Unix(int64(1696118400+60*i), 0).UTC()},
		VPIdx:  i % 8,
		Target: targets[(i*3)%len(targets)],
		Serial: uint32(2023100200 + i/10),
	}
	switch i % 7 {
	case 1:
		e.DNSSECErr = dnssec.ErrSignatureExpired
	case 3:
		e.ZonemdErr = errors.New("synthetic digest mismatch")
		e.Fault = faults.Kind(1)
		e.Bitflip = &faults.Bitflip{RecordIndex: i, Before: "a.tld. A 1.2.3.4", After: "a.tld. A 1.2.3.5"}
	case 5:
		e.Lost = true
	}
	return e
}

// writeMixedFile interleaves probes and transfers with a small block size so
// replays span many sealed blocks. It carries no description: what a library
// caller writes through NewWriter alone replays all the same.
func writeMixedFile(t testing.TB, n, blockBytes int) []byte {
	return writeDescribedFile(t, nil, n, blockBytes)
}

// writeDescribedFile is writeMixedFile behind a description of run, when
// there is one.
func writeDescribedFile(t testing.TB, run any, n, blockBytes int) []byte {
	t.Helper()
	var buf bytes.Buffer
	w, err := NewWriter(&buf)
	if err == nil && run != nil {
		err = w.Describe(run)
	}
	if err != nil {
		t.Fatal(err)
	}
	w.BlockBytes = blockBytes
	for i := 0; i < n; i++ {
		w.HandleProbe(synthProbe(i))
		if i%3 == 0 {
			w.HandleTransfer(synthTransfer(i))
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// replaySys caches one modeled root system for handler construction; the
// accumulators only read it, so sharing across subtests is safe.
var (
	replaySysOnce sync.Once
	replaySysVal  *rss.System
)

func replaySys(t *testing.T) *rss.System {
	replaySysOnce.Do(func() { replaySysVal = testWorld(t).System })
	return replaySysVal
}

// replayHandlers builds the full rootanalyze accumulator set over the synth
// population — the same six handlers the CLI wires up, so the determinism
// matrix tests exactly what production replays.
func replayHandlers(t *testing.T) []measure.Handler {
	t.Helper()
	sys := replaySys(t)
	pop := synthPop()
	return []measure.Handler{
		analysis.NewCoverage(sys),
		analysis.NewStability(),
		analysis.NewColocation(pop),
		analysis.NewDistance(sys, pop),
		analysis.NewRTT(),
		analysis.NewIntegrity(),
	}
}

// streamState seals the stream-class telemetry, the blob a checkpoint carries.
func streamState(t *testing.T) []byte {
	t.Helper()
	blob, err := telemetry.StreamState{}.CheckpointSeal()
	if err != nil {
		t.Fatal(err)
	}
	return blob
}

// sealAll snapshots every handler's state for byte comparison.
func sealAll(t *testing.T, handlers []measure.Handler) [][]byte {
	t.Helper()
	out := make([][]byte, len(handlers))
	for i, h := range handlers {
		blob, err := h.(checkpoint.Part).CheckpointSeal()
		if err != nil {
			t.Fatalf("handler %T seal: %v", h, err)
		}
		out[i] = blob
	}
	return out
}

// TestReplayWorkersByteIdentical is the tentpole acceptance test: the same
// dataset replayed at worker counts {1, 4, 8} (plus the zero-value serial
// path) must produce byte-identical accumulator state, identical counts,
// and identical stream-class telemetry.
func TestReplayWorkersByteIdentical(t *testing.T) {
	data := writeMixedFile(t, 600, 1024)
	pop := synthPop()

	type result struct {
		probes, transfers int
		states            [][]byte
		tel               []byte
	}
	run := func(workers int) result {
		telemetry.Reset()
		r, err := NewReader(bytes.NewReader(data), pop)
		if err != nil {
			t.Fatal(err)
		}
		handlers := replayHandlers(t)
		probes, transfers, err := r.ReplayWith(ReplayOptions{Workers: workers}, handlers...)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if r.Torn() {
			t.Fatalf("workers=%d: intact dataset reported torn: %v", workers, r.TornReason())
		}
		return result{probes, transfers, sealAll(t, handlers), streamState(t)}
	}

	ref := run(0)
	if ref.probes == 0 || ref.transfers == 0 {
		t.Fatalf("reference replay saw %d probes, %d transfers; want both > 0", ref.probes, ref.transfers)
	}
	for _, workers := range []int{1, 4, 8} {
		got := run(workers)
		if got.probes != ref.probes || got.transfers != ref.transfers {
			t.Errorf("workers=%d: counts %d/%d, want %d/%d",
				workers, got.probes, got.transfers, ref.probes, ref.transfers)
		}
		for i := range ref.states {
			if !bytes.Equal(got.states[i], ref.states[i]) {
				t.Errorf("workers=%d: handler %d state diverged from serial", workers, i)
			}
		}
		if !bytes.Equal(got.tel, ref.tel) {
			t.Errorf("workers=%d: stream-class telemetry diverged from serial", workers)
		}
	}
}

// TestReplayParallelTornAndCorrupt pins that tear handling is position-exact
// under parallel decode: a torn tail and a corrupt mid-file block must
// truncate at the same record count, with the same torn reason class, at
// every worker count.
func TestReplayParallelTornAndCorrupt(t *testing.T) {
	data := writeMixedFile(t, 600, 1024)
	starts, _ := walkFrames(t, data)
	if len(starts) < 6 {
		t.Fatalf("want >= 6 blocks, got %d", len(starts))
	}
	pop := synthPop()

	cases := []struct {
		name string
		data []byte
	}{
		// Cut mid-payload of the final block.
		{"torn-tail", data[:starts[len(starts)-1]+frameHeaderLen+3]},
		// Flip a payload byte in the third block: CRC catches it and replay
		// must truncate there even though later blocks are intact.
		{"corrupt-mid", func() []byte {
			d := append([]byte(nil), data...)
			d[starts[2]+frameHeaderLen] ^= 0x40
			return d
		}()},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			type result struct {
				probes, transfers int
				reason            string
			}
			run := func(workers int) result {
				r, err := NewReader(bytes.NewReader(tc.data), pop)
				if err != nil {
					t.Fatal(err)
				}
				h := &countingHandler{}
				probes, transfers, err := r.ReplayWith(ReplayOptions{Workers: workers}, h)
				if err != nil {
					t.Fatalf("workers=%d: replay error %v (tears must truncate cleanly)", workers, err)
				}
				if !r.Torn() || r.TornReason() == nil {
					t.Fatalf("workers=%d: damage not flagged as torn", workers)
				}
				if probes != h.probes || transfers != h.transfers {
					t.Fatalf("workers=%d: counts %d/%d disagree with handler %d/%d",
						workers, probes, transfers, h.probes, h.transfers)
				}
				return result{probes, transfers, r.TornReason().Error()}
			}
			ref := run(0)
			for _, workers := range []int{1, 4, 8} {
				got := run(workers)
				if got != ref {
					t.Errorf("workers=%d: %+v, serial %+v", workers, got, ref)
				}
			}
		})
	}
}

// TestResumeReplayKillMatrix is the crash-safety acceptance: kill the replay
// at the dataset/replay failpoint (between handler seal and sidecar write),
// restart with Resume, and demand byte-identical accumulator state and
// stream-class telemetry versus an uninterrupted checkpointing run — at
// serial and parallel worker counts.
func TestResumeReplayKillMatrix(t *testing.T) {
	data := writeMixedFile(t, 600, 1024)
	pop := synthPop()
	dir := t.TempDir()

	runRef := func(workers int, ckpt string) (int, int, [][]byte, []byte) {
		telemetry.Reset()
		r, err := NewReader(bytes.NewReader(data), pop)
		if err != nil {
			t.Fatal(err)
		}
		handlers := replayHandlers(t)
		probes, transfers, err := r.ReplayWith(ReplayOptions{
			Workers: workers, CheckpointPath: ckpt, CheckpointEvery: 2,
		}, handlers...)
		if err != nil {
			t.Fatal(err)
		}
		return probes, transfers, sealAll(t, handlers), streamState(t)
	}
	refProbes, refTransfers, refStates, refTel := runRef(1, filepath.Join(dir, "ref.ckpt"))

	for _, workers := range []int{1, 4} {
		for _, killAt := range []int{1, 3} {
			t.Run(fmt.Sprintf("workers=%d/kill=%d", workers, killAt), func(t *testing.T) {
				ckpt := filepath.Join(dir, fmt.Sprintf("w%dk%d.ckpt", workers, killAt))
				opts := ReplayOptions{Workers: workers, CheckpointPath: ckpt, CheckpointEvery: 2}

				telemetry.Reset()
				r, err := NewReader(bytes.NewReader(data), pop)
				if err != nil {
					t.Fatal(err)
				}
				if err := failpoint.Enable(fmt.Sprintf("dataset/replay=kill@%d", killAt)); err != nil {
					t.Fatal(err)
				}
				killed := replayHandlers(t)
				probes, _, runErr := r.ReplayWith(opts, killed...)
				failpoint.Disable()
				if !errors.Is(runErr, failpoint.ErrKilled) {
					t.Fatalf("killed run error = %v, want ErrKilled", runErr)
				}
				if probes >= refProbes {
					t.Fatalf("kill did not interrupt: %d probes >= reference %d", probes, refProbes)
				}
				if killAt > 1 {
					if _, err := os.Stat(ckpt); err != nil {
						t.Fatalf("no sidecar survived the kill: %v", err)
					}
				}

				// "Restart the process": fresh reader, fresh accumulators,
				// zeroed telemetry (SIGKILL loses in-memory counters), resume
				// from whatever sidecar the kill left behind — with kill@1,
				// that is none, and resume must cold-start cleanly.
				telemetry.Reset()
				r2, err := NewReader(bytes.NewReader(data), pop)
				if err != nil {
					t.Fatal(err)
				}
				opts.Resume = true
				resumed := replayHandlers(t)
				gotProbes, gotTransfers, err := r2.ReplayWith(opts, resumed...)
				if err != nil {
					t.Fatalf("resumed run: %v", err)
				}
				if gotProbes != refProbes || gotTransfers != refTransfers {
					t.Errorf("resumed counts %d/%d, want %d/%d",
						gotProbes, gotTransfers, refProbes, refTransfers)
				}
				states := sealAll(t, resumed)
				for i := range refStates {
					if !bytes.Equal(states[i], refStates[i]) {
						t.Errorf("handler %d state differs from uninterrupted run", i)
					}
				}
				if got := streamState(t); !bytes.Equal(got, refTel) {
					t.Error("stream-class telemetry differs from uninterrupted run")
				}
			})
		}
	}
}

// TestReplayResumeGuards pins the resume failure modes: a fingerprint
// mismatch (different dataset, or another checkpoint cadence), a
// handler-count mismatch, Resume without a sidecar path, and a
// non-checkpointable handler are all refused loudly.
func TestReplayResumeGuards(t *testing.T) {
	data := writeMixedFile(t, 300, 1024)
	pop := synthPop()
	dir := t.TempDir()
	ckpt := filepath.Join(dir, "replay.ckpt")

	// Produce a sidecar from a partial (killed) run.
	r, err := NewReader(bytes.NewReader(data), pop)
	if err != nil {
		t.Fatal(err)
	}
	if err := failpoint.Enable("dataset/replay=kill@2"); err != nil {
		t.Fatal(err)
	}
	_, _, runErr := r.ReplayWith(ReplayOptions{CheckpointPath: ckpt, CheckpointEvery: 2}, replayHandlers(t)...)
	failpoint.Disable()
	if !errors.Is(runErr, failpoint.ErrKilled) {
		t.Fatalf("setup kill: %v", runErr)
	}

	t.Run("wrong-dataset", func(t *testing.T) {
		// A probes-only recording frames differently from the first block on
		// (a longer recording of the SAME stream would share its sealed
		// prefix, which resume rightly accepts).
		other := writeSynthFile(t, 300, 1024)
		r, err := NewReader(bytes.NewReader(other), pop)
		if err != nil {
			t.Fatal(err)
		}
		_, _, err = r.ReplayWith(ReplayOptions{CheckpointPath: ckpt, CheckpointEvery: 2, Resume: true}, replayHandlers(t)...)
		if err == nil || !strings.Contains(err.Error(), "fingerprint") {
			t.Errorf("resume over wrong dataset: err = %v, want fingerprint refusal", err)
		}
	})
	t.Run("handler-count", func(t *testing.T) {
		r, err := NewReader(bytes.NewReader(data), pop)
		if err != nil {
			t.Fatal(err)
		}
		_, _, err = r.ReplayWith(ReplayOptions{CheckpointPath: ckpt, CheckpointEvery: 2, Resume: true}, replayHandlers(t)[:3]...)
		if err == nil || !errors.Is(err, checkpoint.ErrParts) || !strings.Contains(err.Error(), "handler") {
			t.Errorf("resume with fewer handlers: err = %v, want handler-count refusal", err)
		}
	})
	t.Run("cadence", func(t *testing.T) {
		// Same dataset, same handlers, another cadence: the resumed run
		// would end with a different replay/checkpoints total than an
		// uninterrupted one, so the sidecar's signature refuses it.
		r, err := NewReader(bytes.NewReader(data), pop)
		if err != nil {
			t.Fatal(err)
		}
		_, _, err = r.ReplayWith(ReplayOptions{CheckpointPath: ckpt, CheckpointEvery: 1, Resume: true}, replayHandlers(t)...)
		if !errors.Is(err, checkpoint.ErrSig) {
			t.Errorf("resume at another cadence: err = %v, want checkpoint.ErrSig", err)
		}
	})
	t.Run("older-sidecar", func(t *testing.T) {
		// The same sidecar as a version-2 build would have stamped it: its
		// accumulator seals are struct-keyed entry lists, which the dense
		// tables must never be handed.
		blob, err := os.ReadFile(ckpt)
		if err != nil {
			t.Fatal(err)
		}
		stamp := []byte(fmt.Sprintf(`"version":%d`, checkpoint.Version))
		if !bytes.Contains(blob, stamp) {
			t.Fatalf("sidecar carries no %s", stamp)
		}
		old := filepath.Join(dir, "v2.ckpt")
		if err := os.WriteFile(old, bytes.Replace(blob, stamp, []byte(`"version":2`), 1), 0o644); err != nil {
			t.Fatal(err)
		}
		r, err := NewReader(bytes.NewReader(data), pop)
		if err != nil {
			t.Fatal(err)
		}
		handlers := replayHandlers(t)
		fresh := sealAll(t, handlers)
		_, _, err = r.ReplayWith(ReplayOptions{CheckpointPath: old, CheckpointEvery: 2, Resume: true}, handlers...)
		if !errors.Is(err, checkpoint.ErrVersion) {
			t.Errorf("resume from a version-2 sidecar: err = %v, want checkpoint.ErrVersion", err)
		}
		for i, state := range sealAll(t, handlers) {
			if !bytes.Equal(state, fresh[i]) {
				t.Errorf("handler %d was touched by a refused sidecar", i)
			}
		}
	})
	t.Run("resume-without-path", func(t *testing.T) {
		r, err := NewReader(bytes.NewReader(data), pop)
		if err != nil {
			t.Fatal(err)
		}
		_, _, err = r.ReplayWith(ReplayOptions{Resume: true}, replayHandlers(t)...)
		if err == nil || !strings.Contains(err.Error(), "CheckpointPath") {
			t.Errorf("Resume without CheckpointPath: err = %v, want a refusal", err)
		}
	})
	t.Run("not-checkpointable", func(t *testing.T) {
		r, err := NewReader(bytes.NewReader(data), pop)
		if err != nil {
			t.Fatal(err)
		}
		_, _, err = r.ReplayWith(ReplayOptions{CheckpointPath: ckpt}, &countingHandler{})
		if err == nil || !strings.Contains(err.Error(), "CheckpointSeal") {
			t.Errorf("checkpointing a plain handler: err = %v, want capability refusal", err)
		}
	})
	t.Run("cold-start", func(t *testing.T) {
		// Resume with no sidecar on disk is a cold start, not an error.
		r, err := NewReader(bytes.NewReader(data), pop)
		if err != nil {
			t.Fatal(err)
		}
		handlers := replayHandlers(t)
		probes, _, err := r.ReplayWith(ReplayOptions{
			CheckpointPath: filepath.Join(dir, "missing.ckpt"), Resume: true,
		}, handlers...)
		if err != nil || probes == 0 {
			t.Errorf("cold-start resume: probes=%d err=%v", probes, err)
		}
	})
}

// TestAnalysisCheckpointRoundTrip seals every accumulator mid-stream,
// restores the blobs into fresh accumulators, finishes the stream on both,
// and demands byte-identical final state — including in-progress
// per-tick colocation state, which must survive the round trip.
func TestAnalysisCheckpointRoundTrip(t *testing.T) {
	const n = 400
	orig := replayHandlers(t)
	restored := replayHandlers(t)

	feed := func(handlers []measure.Handler, from, to int) {
		pop := synthPop()
		for i := from; i < to; i++ {
			e := synthProbe(i)
			e.VP = &pop.VPs[e.VPIdx]
			for _, h := range handlers {
				h.HandleProbe(e)
			}
			if i%3 == 0 {
				te := synthTransfer(i)
				te.VP = &pop.VPs[te.VPIdx]
				for _, h := range handlers {
					h.HandleTransfer(te)
				}
			}
		}
	}

	// Cut deliberately mid-tick-group so Colocation has in-progress state.
	cut := n/2 + 1
	feed(orig, 0, cut)
	mid := sealAll(t, orig)
	for i, h := range restored {
		if err := h.(checkpoint.Part).RestoreCheckpoint(mid[i]); err != nil {
			t.Fatalf("handler %T restore: %v", h, err)
		}
	}
	// A sealed-and-restored accumulator must itself re-seal identically.
	for i, blob := range sealAll(t, restored) {
		if !bytes.Equal(blob, mid[i]) {
			t.Errorf("handler %d: restore+seal not idempotent", i)
		}
	}
	feed(orig, cut, n)
	feed(restored, cut, n)
	finalOrig := sealAll(t, orig)
	finalRestored := sealAll(t, restored)
	for i := range finalOrig {
		if !bytes.Equal(finalOrig[i], finalRestored[i]) {
			t.Errorf("handler %d: final state differs after mid-stream restore", i)
		}
	}
	// The blobs must be valid JSON (the sidecar embeds them verbatim).
	for i, blob := range finalOrig {
		if !json.Valid(blob) {
			t.Errorf("handler %d seal is not valid JSON", i)
		}
	}
}
