package dataset

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"hash"
	"io"
	"os"
	"sync"

	"repro/internal/checkpoint"
	"repro/internal/failpoint"
	"repro/internal/measure"
	"repro/internal/segment"
	"repro/internal/telemetry"
)

// ReplayOptions configures ReplayWith. The zero value is a plain serial
// replay, identical to Replay.
type ReplayOptions struct {
	// Workers is the number of block-decode workers; <= 1 decodes inline.
	// Delivery order (and thus every handler's output and every
	// stream-class metric) is byte-identical at any worker count: frames
	// are scanned sequentially, decoded in parallel, and drained in frame
	// order by the calling goroutine.
	Workers int
	// CheckpointPath, when set, makes the replay crash-safe: after every
	// CheckpointEvery delivered blocks the accumulated handler state is
	// sealed and written atomically to this sidecar path. Every handler
	// must then be a checkpoint.Part.
	CheckpointPath string
	// CheckpointEvery is the number of delivered blocks between
	// checkpoints; 0 means DefaultReplayCheckpointEvery. A resume must use
	// the cadence the sidecar was written at: it moves the stream-class
	// replay/checkpoints counter, so it is part of the sidecar's signature.
	CheckpointEvery int
	// Resume loads CheckpointPath (if it exists), restores handler and
	// telemetry state, and fast-forwards past the checkpointed blocks
	// after verifying the dataset's frame fingerprint still matches.
	Resume bool
}

// DefaultReplayCheckpointEvery is the checkpoint cadence when
// ReplayOptions.CheckpointEvery is zero.
const DefaultReplayCheckpointEvery = 8

// replayProgress counts what a replay has delivered; it is also the replay's
// own position in the checkpoint sidecar.
type replayProgress struct {
	Blocks    int `json:"blocks"`
	Probes    int `json:"probes"`
	Transfers int `json:"transfers"`
}

// ReplayWith streams every event into the handlers like Replay, with
// block-parallel decode, optional crash-safe checkpoints, and resume. The
// returned counts include fast-forwarded events when resuming (they count
// from the start of the dataset, as an uninterrupted run would report).
func (d *Reader) ReplayWith(opts ReplayOptions, handlers ...measure.Handler) (probes, transfers int, err error) {
	st := &replayState{d: d, handlers: handlers, opts: opts, sig: sha256.New()}
	if opts.Resume && opts.CheckpointPath == "" {
		return 0, 0, errors.New("dataset: ReplayOptions.Resume requires ReplayOptions.CheckpointPath")
	}
	if opts.CheckpointPath != "" {
		for _, h := range handlers {
			p, ok := h.(checkpoint.Part)
			if !ok {
				return 0, 0, fmt.Errorf("dataset: handler %T cannot ride a replay checkpoint (wants CheckpointSeal + RestoreCheckpoint)", h)
			}
			st.parts = append(st.parts, p)
		}
		// Telemetry last: its snapshot then includes what sealing the
		// handlers counted.
		st.parts = append(st.parts, telemetry.StreamState{})
		if opts.CheckpointEvery <= 0 {
			st.opts.CheckpointEvery = DefaultReplayCheckpointEvery
		}
		// The signature opens with the cadence and then absorbs the frame
		// header (length, CRC, count) of every delivered block, so a resume
		// at another cadence, or over a different or rewritten dataset, is
		// refused instead of producing silently wrong analyses.
		fmt.Fprintf(st.sig, "every=%d\n", st.opts.CheckpointEvery)
		if opts.Resume {
			if err := st.resume(); err != nil {
				return 0, 0, err
			}
		}
	}
	if opts.Workers <= 1 {
		err = st.runSerial()
	} else {
		err = st.runParallel()
	}
	return st.pos.Probes, st.pos.Transfers, err
}

// replayState is the per-ReplayWith bookkeeping shared by the serial and
// parallel paths. Everything here is touched only by the calling goroutine
// (the ordered drain); workers see just the Reader's read-only tables.
type replayState struct {
	d        *Reader
	handlers []measure.Handler
	parts    []checkpoint.Part // handlers + telemetry; nil without a CheckpointPath
	opts     ReplayOptions

	sig hash.Hash      // cadence, then the frame header of every delivered block
	pos replayProgress // what has been delivered so far
}

// drainBlock delivers one decoded block in order: events to handlers,
// counters, fingerprint, checkpoint cadence. Each event is built from its
// record as it is delivered, and handed to every handler by value. A torn
// block converts to a clean end-of-stream (io.EOF) after marking the Reader
// torn — nothing from the torn block, or after it, is ever delivered.
func (st *replayState) drainBlock(f *segment.Frame, b *block) error {
	if b.tearErr != nil {
		return st.d.Tear(b.tearErr)
	}
	probes := 0
	for i := range b.recs {
		r := &b.recs[i]
		if r.kind == recProbe {
			e := st.d.probe(b, r)
			for _, h := range st.handlers {
				h.HandleProbe(e)
			}
			probes++
		} else {
			e := st.d.transfer(b, r)
			for _, h := range st.handlers {
				h.HandleTransfer(e)
			}
		}
	}
	// Counted per block: checkpoints fall on block boundaries.
	st.pos.Probes += probes
	st.pos.Transfers += len(b.recs) - probes
	mReplayed.Add(int64(len(b.recs)))
	if b.decodeErr != nil {
		// Real format error inside CRC-verified bytes: the prefix was
		// delivered (matching the old record-interleaved loop), now fail.
		return b.decodeErr
	}
	st.pos.Blocks++
	st.sig.Write(f.Hdr[:])
	mReplayBlocks.Inc()
	if st.opts.CheckpointPath != "" && st.pos.Blocks%st.opts.CheckpointEvery == 0 {
		if err := st.checkpoint(); err != nil {
			return err
		}
	}
	return nil
}

// runSerial is runParallel with no goroutine: one decoder, one block.
func (st *replayState) runSerial() error {
	dec := st.d.newDecoder()
	var b block
	for {
		f, err := st.d.NextFrame()
		if err != nil {
			if errors.Is(err, io.EOF) {
				return nil
			}
			return err
		}
		dec.decode(f, &b)
		if err := st.drainBlock(&f, &b); err != nil {
			if errors.Is(err, io.EOF) {
				return nil // torn block: truncated cleanly
			}
			return err
		}
	}
}

// replayJob carries one scanned frame to a decode worker and its decoded
// block to the drain, then goes back on the free list with its records.
// scanErr marks the scanner's terminal tear, delivered in order like any
// block so truncation lands at the right position.
type replayJob struct {
	f       segment.Frame
	b       block
	decoded chan struct{} // one token per trip, sent by the worker that decoded b
	scanErr error
}

// runParallel mirrors the campaign engine's pool: a sequential scanner
// (frame reads must happen in file order), a bounded worker pool doing the
// CPU work (CRC, DEFLATE, record decode), and a serial ordered drain in the
// calling goroutine so handler delivery is byte-identical to runSerial.
//
// The jobs are made once and go round: free list → scanner → work and
// pending → a worker and the drain → free list. Their number is the window
// (two queued per worker, one in each worker's hands, one being drained), so
// every channel has room for all of them and only the scanner ever waits for
// a job — in a select that stop() ends.
func (st *replayState) runParallel() error {
	window := st.opts.Workers*3 + 1
	free := make(chan *replayJob, window)
	work := make(chan *replayJob, window)
	pending := make(chan *replayJob, window)
	for i := 0; i < window; i++ {
		free <- &replayJob{decoded: make(chan struct{}, 1)}
	}
	quit := make(chan struct{})
	var quitOnce sync.Once
	stop := func() { quitOnce.Do(func() { close(quit) }) }
	// Join the pool on every exit path, including early error returns: the
	// caller owns the Reader (byte stream and tear state) the moment this
	// function returns, so no scanner or worker may outlive it. stop() is
	// registered after wg.Wait so it runs first and unblocks the scanner's
	// wait for a free job; workers then drain `work` (closed by the scanner)
	// and exit — their token sends never block because decoded is buffered.
	var wg sync.WaitGroup
	defer wg.Wait()
	defer stop()

	// Scanner: owns the Reader's byte stream, never mutates tear state —
	// truncation is applied by the drain at the torn block's position.
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(work)
		defer close(pending)
		for {
			var j *replayJob
			select {
			case j = <-free:
			case <-quit:
				return
			}
			j.f, j.scanErr = st.d.ScanFrame()
			if errors.Is(j.scanErr, io.EOF) {
				return
			}
			pending <- j
			if j.scanErr != nil {
				return
			}
			work <- j
		}
	}()
	for i := 0; i < st.opts.Workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			dec := st.d.newDecoder()
			for j := range work {
				dec.decode(j.f, &j.b)
				j.decoded <- struct{}{}
			}
		}()
	}
	for j := range pending {
		if j.scanErr != nil {
			st.d.Tear(j.scanErr)
			return nil
		}
		<-j.decoded
		if err := st.drainBlock(&j.f, &j.b); err != nil {
			if errors.Is(err, io.EOF) {
				return nil // torn block: truncated cleanly
			}
			return err
		}
		free <- j
	}
	return nil
}

// checkpoint seals every part and replaces the sidecar. The checkpoint
// counter increments before the seals so the telemetry part's snapshot
// includes this checkpoint, mirroring the campaign's convention.
func (st *replayState) checkpoint() error {
	mReplayCheckpoints.Inc()
	f, err := checkpoint.Seal(hex.EncodeToString(st.sig.Sum(nil)), st.pos, st.parts)
	if err != nil {
		return fmt.Errorf("dataset: replay checkpoint: %w", err)
	}
	// The kill site sits between seal and write, the window where a crash
	// proves the previous sidecar (not the in-memory state) is what resume
	// trusts.
	if err := failpoint.Eval("dataset/replay"); err != nil {
		return err
	}
	return f.Save(st.opts.CheckpointPath)
}

// resume loads the sidecar (a missing file is a cold start), fast-forwards
// the Reader past the checkpointed blocks, re-hashing frame headers to prove
// the dataset is the one the checkpoint describes, and restores every part.
func (st *replayState) resume() error {
	var p replayProgress
	f, err := checkpoint.Load(st.opts.CheckpointPath, &p)
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return nil
		}
		return fmt.Errorf("dataset: resume: %w", err)
	}
	for i := 0; i < p.Blocks; i++ {
		fr, err := st.d.NextFrame()
		if err != nil {
			return fmt.Errorf("dataset: resume: dataset ends before checkpointed block %d/%d", i+1, p.Blocks)
		}
		st.sig.Write(fr.Hdr[:])
	}
	if err := f.Restore(hex.EncodeToString(st.sig.Sum(nil)), st.parts); err != nil {
		return fmt.Errorf("dataset: resume: sidecar does not fit this replay (dataset fingerprint, cadence, handlers): %w", err)
	}
	st.pos = p
	return nil
}
