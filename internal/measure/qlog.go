package measure

import (
	"repro/internal/qlog"
)

// FlightLog adapts a qlog.Recorder to the campaign Handler interface: one
// measure/probe or measure/transfer event per delivered campaign event.
// Handlers run at the pool's serial drain, so the append order — and with it
// the recorded segment — is a pure function of the schedule, byte-identical
// across worker counts and across kill/resume (the chaos matrix pins this).
// CheckpointSeal and RestoreCheckpoint are promoted from the recorder, so a
// FlightLog registered as a campaign handler is a checkpoint.Part like the
// dataset writer.
type FlightLog struct {
	*qlog.Recorder
}

// NewFlightLog wraps a recorder as a campaign handler.
func NewFlightLog(r *qlog.Recorder) *FlightLog { return &FlightLog{Recorder: r} }

// evMeasureProbe and evMeasureTransfer are the campaign-side flight-recorder
// events. Claimed once; the qlogfield analyzer cross-checks the field lists
// against the qlog registry.
var (
	evMeasureProbe = qlog.NewEvent("measure/probe",
		"tick", "vp", "lost", "degraded", "rtt_cms")
	evMeasureTransfer = qlog.NewEvent("measure/transfer",
		"tick", "vp", "lost", "degraded", "fault", "serial", "mismatch")
)

// qlogKey folds the pair identity (tick, VP, target) into the sampling key.
// Campaign events have no wire bytes, so the key is built from the logical
// coordinates every run shares.
func qlogKey(tick, vp int, subject []byte) uint64 {
	return qlog.KeyVals(uint64(tick), uint64(vp), qlog.Key(subject))
}

// HandleProbe implements Handler.
func (f *FlightLog) HandleProbe(e ProbeEvent) {
	subject := []byte(e.Target.Key()) // the target's compact key, "b4o"
	key := qlogKey(e.Tick.Index, e.VPIdx, subject)
	if !f.Sampled(key) {
		return
	}
	var lost, degraded, rtt uint64
	if e.Lost {
		lost = 1
	} else {
		rtt = CentiMs(e.RTTms)
	}
	if e.Degraded {
		degraded = 1
	}
	f.Emit(evMeasureProbe, key, subject,
		uint64(e.Tick.Index), uint64(e.VPIdx), lost, degraded, rtt)
}

// HandleTransfer implements Handler.
func (f *FlightLog) HandleTransfer(e TransferEvent) {
	subject := []byte(e.Target.Key()) // the target's compact key, "b4o"
	key := qlogKey(e.Tick.Index, e.VPIdx, subject)
	if !f.Sampled(key) {
		return
	}
	var lost, degraded, mismatch uint64
	if e.Lost {
		lost = 1
	}
	if e.Degraded {
		degraded = 1
	}
	if e.ComparisonMismatch {
		mismatch = 1
	}
	f.Emit(evMeasureTransfer, key, subject,
		uint64(e.Tick.Index), uint64(e.VPIdx), lost, degraded,
		uint64(e.Fault), uint64(e.Serial), mismatch)
}
