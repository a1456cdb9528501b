package measure

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/failpoint"
	"repro/internal/rss"
	"repro/internal/telemetry"
	"repro/internal/vantage"
)

// The parallel campaign engine shards each tick's VP loop across a bounded
// worker pool. Workers only *compute* events — every probe and transfer is
// a pure function of (seed, tick, vp, target) plus the single-flight zone
// and validation caches — while handler delivery happens on the calling
// goroutine in exactly the serial engine's order (tick, then VP index, then
// target index, probe before transfer). Analyses therefore never see
// concurrency, need no merge step, and the same seed produces byte-identical
// reports at any worker count.
//
// Each worker is supervised: a panic or injected fault while computing one
// (tick, VP, target) pair is recovered in place and replaced with a
// classified degraded outcome (Lost+Degraded events) counted against
// Config.ErrorBudget, so a single bad pair can never tear down a
// long-horizon campaign. Named failpoint sites ("campaign/tick",
// "campaign/checkpoint", "dataset/seal", "measure/worker/probe",
// "measure/worker/transfer") let the chaos harness drive kills, panics, and
// errors through the exact production paths.

// eventPair carries one target's probe (and, after AXFRStart, transfer)
// from a worker to the ordered drain.
type eventPair struct {
	probe       ProbeEvent
	transfer    TransferEvent
	hasTransfer bool
}

// vpShard buffers one VP's events for the current tick. Shards are owned by
// exactly one worker while a tick is in flight and re-used across ticks.
type vpShard struct {
	pairs []eventPair
}

// workerCount resolves Config.Workers: 0 (or negative) means one worker per
// available CPU.
func (c *Campaign) workerCount() int {
	if c.Cfg.Workers > 0 {
		return c.Cfg.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// Run walks the schedule, emitting events to the handlers. The tick×VP×target
// loop is sharded across Config.Workers goroutines; handlers receive events
// in deterministic serial order regardless of the worker count.
//
// With Config.CheckpointPath set, Run seals every handler that is a
// checkpoint.Part and writes a progress checkpoint every CheckpointEvery
// ticks; with Config.Resume it first restores those handlers (built over the
// interrupted run's output files) and fast-forwards to the checkpointed
// tick. A run killed at any point and restarted with Resume produces
// byte-identical handler output to an uninterrupted run with the same
// checkpoint settings.
func (c *Campaign) Run(handlers ...Handler) error {
	ticks := Ticks(c.Cfg.Start, c.Cfg.End, c.Cfg.Scale)
	targets := rss.AllServiceAddrs()
	nVPs := len(c.World.Population.VPs)
	workers := c.workerCount()
	if workers > nVPs {
		workers = nVPs
	}
	every := c.Cfg.CheckpointEvery
	if every <= 0 {
		every = DefaultCheckpointEvery
	}
	ckptOn := c.Cfg.CheckpointPath != ""
	parts, sig := checkpointParts(handlers), c.checkpointSig(every)
	startPos := 0
	if c.Cfg.Resume {
		if !ckptOn {
			return errors.New("measure: Config.Resume requires Config.CheckpointPath")
		}
		pos, err := c.loadResume(parts, sig, len(ticks))
		if err != nil {
			return err
		}
		startPos = pos
	}
	mWorkers.Set(int64(workers))
	shards := make([]vpShard, nVPs)
	for ti := startPos; ti < len(ticks); ti++ {
		// Chaos kill-point at the tick boundary: a kill here simulates
		// SIGKILL before any of this tick's work, the cleanest crash window.
		if err := failpoint.Eval("campaign/tick"); err != nil {
			return err
		}
		tick := ticks[ti]
		tickTimer := telemetry.StartTimer()
		tickSpan := telemetry.StartSpan("campaign", "tick", tick.Index, 0)
		if c.Cfg.WireCheck {
			if err := c.runWireCheck(tick); err != nil {
				return err
			}
		}
		// The queue-depth gauge counts VP shards still owed to the tick; a
		// live /metrics poll watches it fall from nVPs to 0 as workers drain
		// the index counter.
		mTickQueue.Set(int64(nVPs))
		if workers <= 1 {
			for i := 0; i < nVPs; i++ {
				c.collectVP(tick, i, targets, &shards[i], 0)
			}
		} else {
			var next atomic.Int64
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for {
						i := int(next.Add(1)) - 1
						if i >= nVPs {
							return
						}
						c.collectVP(tick, i, targets, &shards[i], w)
					}
				}(w)
			}
			wg.Wait()
		}
		drainSpan := telemetry.StartSpan("campaign", "record", tick.Index, 0)
		for i := range shards {
			for pi := range shards[i].pairs {
				p := &shards[i].pairs[pi]
				recordPairMetrics(p)
				for _, h := range handlers {
					h.HandleProbe(p.probe)
				}
				if p.hasTransfer {
					for _, h := range handlers {
						h.HandleTransfer(p.transfer)
					}
				}
			}
		}
		drainSpan.End()
		mTicks.Inc()
		tickSpan.End()
		tickTimer.ObserveInto(mTickDur)
		// The tick is fully drained before the budget verdict, so an abort
		// never leaves a handler with a partial tick.
		if err := c.budgetAbort(); err != nil {
			return err
		}
		if ckptOn && ((ti+1)%every == 0 || ti == len(ticks)-1) {
			if err := c.saveCheckpoint(parts, sig, ti+1, len(ticks)); err != nil {
				return err
			}
		}
	}
	return nil
}

// collectVP computes one VP's full probe+transfer battery for the tick into
// out, preserving the serial engine's per-target event order. wid is the
// computing worker's index: pair counts shard by it (contention-free, and
// the sum is worker-count-independent), and spans lane by it.
func (c *Campaign) collectVP(tick Tick, vpIdx int, targets []rss.ServiceAddr, out *vpShard, wid int) {
	out.pairs = out.pairs[:0]
	vp := &c.World.Population.VPs[vpIdx]
	axfr := !tick.Time.Before(AXFRStart)
	for tIdx, target := range targets {
		out.pairs = append(out.pairs, c.collectPair(tick, vp, vpIdx, tIdx, target, axfr, wid))
		mPairs.ShardInc(wid)
	}
	mTickQueue.Add(-1)
}

// collectPair computes one (tick, VP, target) pair under supervision. A
// panic in either stage is recovered and classified; an injected failpoint
// error is converted in place. Both yield Lost+Degraded events for the
// stages they spoiled (a transfer-stage fault keeps the good probe) and
// count against the error budget.
func (c *Campaign) collectPair(tick Tick, vp *vantage.VP, vpIdx, tIdx int, target rss.ServiceAddr, axfr bool, wid int) (pair eventPair) {
	stage := "probe"
	defer func() {
		if r := recover(); r != nil {
			kind := degProbePanic
			if stage == "transfer" {
				kind = degTransferPanic
			}
			c.noteDegraded(kind, fmt.Sprintf("recovered %s panic at %s vp=%d target=%d: %v",
				stage, tick.Time.Format(time.RFC3339), vpIdx, tIdx, r))
			if stage == "probe" {
				pair.probe = degradedProbe(tick, vp, vpIdx, target)
			}
			if axfr {
				pair.transfer = degradedTransfer(tick, vp, vpIdx, target)
				pair.hasTransfer = true
			}
		}
	}()
	if err := failpoint.Eval("measure/worker/probe"); err != nil {
		c.noteDegraded(degProbeError, fmt.Sprintf("probe error at %s vp=%d target=%d: %v",
			tick.Time.Format(time.RFC3339), vpIdx, tIdx, err))
		pair.probe = degradedProbe(tick, vp, vpIdx, target)
		if axfr {
			pair.transfer = degradedTransfer(tick, vp, vpIdx, target)
			pair.hasTransfer = true
		}
		return pair
	}
	probeTimer := telemetry.StartTimer()
	probeSpan := telemetry.StartSpan("worker", "probe", tick.Index, wid)
	pe, route, ok := c.probe(tick, vp, vpIdx, tIdx, target)
	probeSpan.End()
	probeTimer.ObserveInto(mProbeDur)
	pair.probe = pe
	if !axfr {
		return pair
	}
	stage = "transfer"
	if err := failpoint.Eval("measure/worker/transfer"); err != nil {
		c.noteDegraded(degTransferError, fmt.Sprintf("transfer error at %s vp=%d target=%d: %v",
			tick.Time.Format(time.RFC3339), vpIdx, tIdx, err))
		pair.transfer = degradedTransfer(tick, vp, vpIdx, target)
		pair.hasTransfer = true
		return pair
	}
	transferTimer := telemetry.StartTimer()
	transferSpan := telemetry.StartSpan("worker", "transfer", tick.Index, wid)
	pair.transfer = c.transfer(tick, vp, vpIdx, tIdx, target, route, ok && !pe.Lost)
	transferSpan.End()
	transferTimer.ObserveInto(mTransferDur)
	pair.hasTransfer = true
	return pair
}
