package measure

import (
	"repro/internal/faults"
	"repro/internal/telemetry"
)

// The campaign's telemetry claims. Logical counters are counted either when
// a tick is delivered, on the goroutine that called Run (every campaign/*
// counter), or under a cache's own mutex while a tick is produced
// (hits/misses), so their sums are deterministic across worker counts; the
// wallclock histograms are the explicitly nondeterministic namespace and
// only record when telemetry is enabled. See DESIGN.md §11.
var (
	mTicks         = telemetry.NewCounter("campaign/ticks")
	mPairs         = telemetry.NewCounter("campaign/pairs")
	mProbes        = telemetry.NewCounter("campaign/probes")
	mProbesLost    = telemetry.NewCounter("campaign/probes_lost")
	mTransfers     = telemetry.NewCounter("campaign/transfers")
	mTransfersLost = telemetry.NewCounter("campaign/transfers_lost")
	mFaults        = telemetry.NewCounter("campaign/faults")
	mValFailures   = telemetry.NewCounter("campaign/validation_failures")
	mDegraded      = telemetry.NewCounter("campaign/degraded")
	mWireQueries   = telemetry.NewCounter("campaign/wire_queries")
	mCheckpoints   = telemetry.NewCounter("campaign/checkpoints")

	mZoneHits      = telemetry.NewCounter("cache/zone/hits")
	mZoneMisses    = telemetry.NewCounter("cache/zone/misses")
	mValHits       = telemetry.NewCounter("cache/validation/hits")
	mValMisses     = telemetry.NewCounter("cache/validation/misses")
	mBatteryHits   = telemetry.NewCounter("cache/battery/hits")
	mBatteryMisses = telemetry.NewCounter("cache/battery/misses")

	mTickQueue = telemetry.NewGauge("campaign/queue_depth")
	mWorkers   = telemetry.NewGauge("process/workers")

	mTickDur       = telemetry.NewHistogram("wallclock/tick_us")
	mWirecheckDur  = telemetry.NewHistogram("wallclock/wirecheck_us")
	mVPLoopDur     = telemetry.NewHistogram("wallclock/vploop_us")
	mCheckpointDur = telemetry.NewHistogram("wallclock/checkpoint_us")
)

// recordPairMetrics tallies one delivered pair's outcomes. It runs on the
// campaign goroutine in the ordered drain, so the counts are a pure
// function of the event stream — the same aggregation point that makes the
// handler order deterministic makes these sums deterministic.
func recordPairMetrics(p *eventPair) {
	mProbes.Inc()
	if p.probe.Lost {
		mProbesLost.Inc()
	}
	if !p.hasTransfer {
		return
	}
	mTransfers.Inc()
	if p.transfer.Lost {
		mTransfersLost.Inc()
	}
	if p.transfer.Fault != faults.None {
		mFaults.Inc()
	}
	if p.transfer.ZonemdErr != nil || p.transfer.DNSSECErr != nil {
		mValFailures.Inc()
	}
}
