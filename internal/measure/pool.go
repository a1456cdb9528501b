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

// The campaign engine is a two-stage pipeline with a lookahead of one tick
// (DESIGN.md §7): produce computes tick t+1 — the wire check, then the VP
// loop across Config.Workers goroutines — while deliver, on the goroutine
// that called Run, commits tick t and calls the handlers in exactly the
// serial order (tick, VP index, target index, probe before transfer).
// Producing only computes, as a pure function of (seed, tick, vp, target)
// plus the single-flight caches; what it leaves that the campaign owns rides
// in the tick's tickResult. Analyses therefore never see concurrency, and
// the same seed produces byte-identical reports at any worker count. With
// one worker there is no goroutine: each tick is produced, then delivered.
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

// vpShard buffers one VP's events for a tick and the degraded outcomes behind
// them. One worker owns it while the tick is produced; ticks re-use it.
type vpShard struct {
	pairs []eventPair
	notes []degradedNote
}

// degradedNote is one degraded outcome on its way to Campaign.noteDegraded.
type degradedNote struct {
	kind degKind
	desc string
}

// tickResult is everything producing one tick leaves behind that the
// campaign owns. None of it reaches Campaign's accumulators, the error budget
// or a campaign/* counter until deliver commits it: a tick computed ahead of
// a kill or an abort leaves no trace.
type tickResult struct {
	tick   Tick
	shards []vpShard
	wire   BatteryResult // the tick's wire check
	err    error         // a wire check that could not be set up ends the run at this tick
}

// workerCount resolves Config.Workers: 0 (or negative) means one worker per
// available CPU.
func (cfg Config) workerCount() int {
	if cfg.Workers > 0 {
		return cfg.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// Run walks the schedule, emitting events to the handlers. Each tick's VP
// loop is sharded across Config.Workers goroutines, a tick ahead of the
// handlers, which are called on the calling goroutine in deterministic
// serial order regardless of the worker count.
//
// With Config.CheckpointPath set, Run seals every handler that is a
// checkpoint.Part and writes a progress checkpoint every CheckpointEvery
// ticks; with Config.Resume it first restores those handlers (built over the
// interrupted run's output files) and fast-forwards to the checkpointed
// tick. A run killed at any point and restarted with Resume produces
// byte-identical handler output to an uninterrupted run with the same
// checkpoint settings.
func (c *Campaign) Run(handlers ...Handler) error {
	var err error
	if c.probes, err = c.buildPlan(); err != nil {
		return err
	}
	ticks := Ticks(c.Cfg.Start, c.Cfg.End, c.Cfg.Scale)
	nVPs, nTargets := len(c.World.Population.VPs), len(c.probes.targets)
	workers := max(1, min(c.Cfg.workerCount(), nVPs))
	every := c.Cfg.CheckpointEvery
	if every <= 0 {
		every = DefaultCheckpointEvery
	}
	ckptOn := c.Cfg.CheckpointPath != ""
	parts, sig := checkpointParts(handlers), c.checkpointSig(every)
	pos := 0
	if c.Cfg.Resume {
		if !ckptOn {
			return errors.New("measure: Config.Resume requires Config.CheckpointPath")
		}
		if pos, err = c.loadResume(parts, sig, len(ticks)); err != nil {
			return err
		}
	}
	mWorkers.Set(int64(workers))
	// One buffer is delivered while the other is produced; serially, one.
	bufs := make([]tickResult, min(workers, 2))
	for i := range bufs {
		bufs[i].shards = make([]vpShard, nVPs)
		// A VP fills one pair per target every tick: cut them from one array.
		pairs := make([]eventPair, nVPs*nTargets)
		for j := range bufs[i].shards {
			bufs[i].shards[j].pairs = pairs[j*nTargets : j*nTargets : (j+1)*nTargets]
		}
	}
	// One checkpoint interval at a time: a checkpoint snapshots state that
	// producing a tick moves (dns/queries in the battery's server, cache/*),
	// so no tick past it may be computed before saveCheckpoint has returned.
	for pos < len(ticks) {
		end := len(ticks)
		if ckptOn {
			end = min(end, (pos/every+1)*every)
		}
		if err := c.runTicks(ticks[pos:end], bufs, workers, handlers); err != nil {
			return err
		}
		if ckptOn {
			if err := c.saveCheckpoint(parts, sig, end, len(ticks)); err != nil {
				return err
			}
		}
		pos = end
	}
	return nil
}

// runTicks produces and delivers ticks in order. With one buffer each tick
// is produced inline when its turn comes. With two, a producer goroutine
// works one tick ahead: tick i+1 is ordered — into the buffer tick i-1 was
// delivered from — the moment tick i is taken, so neither channel ever holds
// more than one buffer and neither side blocks sending. The producer is
// joined on every return path: nothing computes or counts after the return.
func (c *Campaign) runTicks(ticks []Tick, bufs []tickResult, workers int, handlers []Handler) error {
	take := func(i int) *tickResult {
		bufs[0].tick = ticks[i]
		c.produce(&bufs[0], workers)
		return &bufs[0]
	}
	if len(bufs) > 1 {
		orders, ready := make(chan *tickResult, 1), make(chan *tickResult, 1)
		go func() {
			defer close(ready)
			for res := range orders {
				c.produce(res, workers)
				ready <- res
			}
		}()
		defer func() {
			close(orders)
			for range ready {
			}
		}()
		order := func(i int) {
			bufs[i%2].tick = ticks[i]
			orders <- &bufs[i%2]
		}
		order(0)
		take = func(i int) *tickResult {
			res := <-ready
			if res.err == nil && i+1 < len(ticks) {
				order(i + 1)
			}
			return res
		}
	}
	for i := range ticks {
		// A tick's span and timer run from the end of the last delivery to
		// the end of this one, the wait for the producer included.
		tickTimer := telemetry.StartTimer()
		tickSpan := telemetry.StartSpan("campaign", "tick", ticks[i].Index, 0)
		// Chaos kill-point at the tick boundary: a kill here simulates SIGKILL
		// before any of this tick is delivered, the cleanest crash window.
		if err := failpoint.Eval("campaign/tick"); err != nil {
			return err
		}
		err := c.deliver(take(i), handlers)
		tickSpan.End()
		tickTimer.ObserveInto(mTickDur)
		if err != nil {
			return err
		}
	}
	return nil
}

// produce computes res.tick into res: the wire check, then the VP loop. The
// calling goroutine is the first worker and starts the others (none, with
// one worker); they split the VPs through a shared index. Trace lanes
// 1..workers are theirs, lane 0 is delivery's.
func (c *Campaign) produce(res *tickResult, workers int) {
	tick := res.tick
	// Ticks walk time forwards and a zone version's serial moves forwards
	// with it, so no key of an earlier serial is asked for again.
	serial := SerialAt(tick.Time)
	c.signedZones.forget(func(k zoneKey) bool { return k.serial < serial })
	c.validations.forget(func(k valKey) bool { return k.serial < serial })
	targets := c.probes.targets
	nVPs := len(res.shards)
	// The queue-depth gauge counts VP shards still owed to the tick: a live
	// /metrics poll watches it fall from nVPs to 0.
	mTickQueue.Set(int64(nVPs))
	var next atomic.Int64
	// One span and one timing per (tick, lane): a probe is some 100 ns, too
	// short to time on its own and too many to trace.
	collect := func(wid int) {
		timer := telemetry.StartTimer()
		span := telemetry.StartSpan("worker", "vploop", tick.Index, wid)
		for i := int(next.Add(1)) - 1; i < nVPs; i = int(next.Add(1)) - 1 {
			c.collectVP(tick, i, targets, &res.shards[i])
		}
		span.End()
		timer.ObserveInto(mVPLoopDur)
	}
	var wg sync.WaitGroup
	for wid := 2; wid <= workers; wid++ {
		wg.Add(1)
		go func(wid int) {
			defer wg.Done()
			collect(wid)
		}(wid)
	}
	res.wire, res.err = BatteryResult{}, nil
	if c.Cfg.WireCheck {
		res.wire, res.err = c.runWireCheck(tick)
	}
	collect(1)
	wg.Wait()
}

// deliver commits one produced tick and hands it to the handlers in serial
// order, on the goroutine that called Run: the only one to write WireQueries,
// WireFailures and the degraded accounting. The budget verdict follows the
// whole tick, so an abort never leaves a handler with a partial tick.
func (c *Campaign) deliver(res *tickResult, handlers []Handler) error {
	if res.err != nil {
		return res.err
	}
	c.WireQueries += res.wire.Queries
	mWireQueries.Add(int64(res.wire.Queries))
	if len(res.wire.Failures) > 0 && len(c.WireFailures) < 100 {
		for _, f := range res.wire.Failures {
			c.WireFailures = append(c.WireFailures, fmt.Sprintf("%s: %s", res.tick.Time.Format(time.RFC3339), f))
		}
	}
	drainSpan := telemetry.StartSpan("campaign", "record", res.tick.Index, 0)
	for i := range res.shards {
		shard := &res.shards[i]
		for _, n := range shard.notes {
			c.noteDegraded(n.kind, n.desc)
		}
		mPairs.Add(int64(len(shard.pairs)))
		for pi := range shard.pairs {
			p := &shard.pairs[pi]
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
	return c.budgetAbort()
}

// collectVP computes one VP's full probe+transfer battery for the tick into
// out, preserving the serial engine's per-target event order.
func (c *Campaign) collectVP(tick Tick, vpIdx int, targets []rss.ServiceAddr, out *vpShard) {
	out.pairs, out.notes = out.pairs[:0], out.notes[:0]
	vp := &c.World.Population.VPs[vpIdx]
	axfr := !tick.Time.Before(AXFRStart)
	for tIdx, target := range targets {
		out.pairs = append(out.pairs, c.collectPair(tick, vp, vpIdx, tIdx, target, axfr, out))
	}
	mTickQueue.Add(-1)
}

// collectPair computes one (tick, VP, target) pair under supervision. A
// panic in either stage is recovered and classified; an injected failpoint
// error is converted in place. Both yield Lost+Degraded events for the
// stages they spoiled (a transfer-stage fault keeps the good probe) and
// leave a note in out, which counts against the error budget when the tick
// is delivered.
func (c *Campaign) collectPair(tick Tick, vp *vantage.VP, vpIdx, tIdx int, target rss.ServiceAddr, axfr bool, out *vpShard) (pair eventPair) {
	stage := "probe"
	defer func() {
		if r := recover(); r != nil {
			kind := degProbePanic
			if stage == "transfer" {
				kind = degTransferPanic
			}
			out.notes = append(out.notes, degradedNote{kind, fmt.Sprintf("recovered %s panic at %s vp=%d target=%d: %v",
				stage, tick.Time.Format(time.RFC3339), vpIdx, tIdx, r)})
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
		out.notes = append(out.notes, degradedNote{degProbeError, fmt.Sprintf("probe error at %s vp=%d target=%d: %v",
			tick.Time.Format(time.RFC3339), vpIdx, tIdx, err)})
		pair.probe = degradedProbe(tick, vp, vpIdx, target)
		if axfr {
			pair.transfer = degradedTransfer(tick, vp, vpIdx, target)
			pair.hasTransfer = true
		}
		return pair
	}
	pe := c.probe(tick, vp, vpIdx, tIdx)
	pair.probe = pe
	if !axfr {
		return pair
	}
	stage = "transfer"
	if err := failpoint.Eval("measure/worker/transfer"); err != nil {
		out.notes = append(out.notes, degradedNote{degTransferError, fmt.Sprintf("transfer error at %s vp=%d target=%d: %v",
			tick.Time.Format(time.RFC3339), vpIdx, tIdx, err)})
		pair.transfer = degradedTransfer(tick, vp, vpIdx, target)
		pair.hasTransfer = true
		return pair
	}
	pair.transfer = c.transfer(tick, vp, vpIdx, tIdx, target, pe.SiteID, !pe.Lost)
	pair.hasTransfer = true
	return pair
}
