package measure

import (
	"fmt"
	"strings"
	"sync"

	"repro/internal/rss"
	"repro/internal/vantage"
)

// Worker supervision: a panic or injected error while computing one
// (tick, VP, target) pair must not tear down the worker pool. The pool
// recovers it, emits the pair as a classified degraded outcome
// (ProbeEvent/TransferEvent with Lost and Degraded set), and counts it
// against Config.ErrorBudget; only exceeding the budget aborts the
// campaign, with a summarized error. This mirrors how long-horizon
// measurement platforms isolate per-query failures so one malformed
// response never kills a scan.

// degKind classifies a degraded outcome.
type degKind int

const (
	degProbePanic degKind = iota
	degTransferPanic
	degProbeError
	degTransferError
	degWriteError
)

// maxDegradedSamples bounds how many outcome descriptions the summary keeps.
const maxDegradedSamples = 8

type degradedState struct {
	mu sync.Mutex
	//rootlint:guardedby mu
	probePanics, transferPanics int
	//rootlint:guardedby mu
	probeErrors, transferErrors int
	//rootlint:guardedby mu
	writeErrors int
	//rootlint:guardedby mu
	samples []string
	//rootlint:guardedby mu
	abort error
}

// DegradedStats reports the campaign's supervisor-salvaged outcomes.
type DegradedStats struct {
	// ProbePanics and TransferPanics count recovered worker panics by the
	// stage they interrupted.
	ProbePanics, TransferPanics int
	// ProbeErrors and TransferErrors count per-probe errors converted to
	// degraded events.
	ProbeErrors, TransferErrors int
	// WriteErrors counts dataset/checkpoint write failures that were
	// retried successfully.
	WriteErrors int
	// Samples holds the first few classified outcome descriptions.
	Samples []string
}

// Total is the count weighed against Config.ErrorBudget.
//
//rootlint:allow deadcode: bench/campaign.go counts a degraded pass as failed operations
func (s DegradedStats) Total() int {
	return s.ProbePanics + s.TransferPanics + s.ProbeErrors + s.TransferErrors + s.WriteErrors
}

// Degraded returns a snapshot of the supervisor's accounting.
//
//rootlint:allow deadcode: bench/campaign.go counts a degraded pass as failed operations
func (c *Campaign) Degraded() DegradedStats {
	d := &c.deg
	d.mu.Lock()
	defer d.mu.Unlock()
	return DegradedStats{
		ProbePanics:    d.probePanics,
		TransferPanics: d.transferPanics,
		ProbeErrors:    d.probeErrors,
		TransferErrors: d.transferErrors,
		WriteErrors:    d.writeErrors,
		Samples:        append([]string(nil), d.samples...),
	}
}

// noteDegraded records one classified degraded outcome. It returns nil while
// the error budget holds; once the budget is exceeded it returns (and pins,
// for budgetAbort) a summarized abort error. Only the goroutine that called
// Run calls it (deliver and saveCheckpoint), so outcomes count in schedule
// order; the mutex is for Degraded, which anyone may call meanwhile.
func (c *Campaign) noteDegraded(kind degKind, desc string) error {
	d := &c.deg
	d.mu.Lock()
	defer d.mu.Unlock()
	switch kind {
	case degProbePanic:
		d.probePanics++
	case degTransferPanic:
		d.transferPanics++
	case degProbeError:
		d.probeErrors++
	case degTransferError:
		d.transferErrors++
	case degWriteError:
		d.writeErrors++
	}
	if len(d.samples) < maxDegradedSamples {
		d.samples = append(d.samples, desc)
	}
	mDegraded.Inc()
	total := d.probePanics + d.transferPanics + d.probeErrors + d.transferErrors + d.writeErrors
	if budget := c.Cfg.ErrorBudget; budget >= 0 && total > budget && d.abort == nil {
		d.abort = fmt.Errorf(
			"measure: error budget exceeded: %d degraded outcomes > budget %d (%d probe panics, %d transfer panics, %d probe errors, %d transfer errors, %d write errors); first: %s",
			total, budget, d.probePanics, d.transferPanics, d.probeErrors,
			d.transferErrors, d.writeErrors, strings.Join(d.samples, "; "))
	}
	return d.abort
}

// budgetAbort returns the pinned abort error once the budget is exceeded.
func (c *Campaign) budgetAbort() error {
	c.deg.mu.Lock()
	defer c.deg.mu.Unlock()
	return c.deg.abort
}

// degradedProbe renders the salvaged outcome for a failed probe stage.
func degradedProbe(tick Tick, vp *vantage.VP, vpIdx int, target rss.ServiceAddr) ProbeEvent {
	return ProbeEvent{Tick: tick, VP: vp, VPIdx: vpIdx, Target: target, Lost: true, Degraded: true}
}

// degradedTransfer renders the salvaged outcome for a failed transfer stage.
func degradedTransfer(tick Tick, vp *vantage.VP, vpIdx int, target rss.ServiceAddr) TransferEvent {
	return TransferEvent{Tick: tick, VP: vp, VPIdx: vpIdx, Target: target, Lost: true, Degraded: true}
}
