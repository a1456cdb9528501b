package qlog

import (
	"os"
	"sync"

	"repro/internal/segment"
)

// blackboxBudget bounds the in-memory black-box ring: the most recent
// recorded events whose encoded bytes fit the budget. Small enough to be
// always-on, large enough to hold the last few thousand events — the flight
// history that matters when a process dies.
const blackboxBudget = 256 << 10

// blackboxRing is the process-wide black-box: every event any Recorder
// emits also lands here (a bounded copy), so a panic, error-budget abort, or
// failpoint kill can dump the recent flight history as a qlog segment even
// when the recorder's current block was never sealed.
type blackboxRing struct {
	mu sync.Mutex
	//rootlint:guardedby mu
	recs [][]byte
	//rootlint:guardedby mu
	bytes int
	//rootlint:guardedby mu
	head int // recs[head:] are live; compacted when the dead prefix grows
}

var blackbox blackboxRing

// add copies one encoded record into the ring, evicting oldest-first past
// the byte budget.
func (b *blackboxRing) add(rec []byte) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.recs = append(b.recs, append([]byte(nil), rec...))
	b.bytes += len(rec)
	for b.bytes > blackboxBudget && b.head < len(b.recs) {
		b.bytes -= len(b.recs[b.head])
		b.recs[b.head] = nil
		b.head++
	}
	if b.head > len(b.recs)/2 {
		b.recs = append([][]byte(nil), b.recs[b.head:]...)
		b.head = 0
	}
}

// snapshot returns the live records under the lock.
func (b *blackboxRing) snapshot() [][]byte {
	b.mu.Lock()
	defer b.mu.Unlock()
	return append([][]byte(nil), b.recs[b.head:]...)
}

// reset empties the ring (tests).
func (b *blackboxRing) reset() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.recs, b.head, b.bytes = nil, 0, 0
}

// DumpBlackbox writes the ring's current tail to path as a standard qlog
// segment (decodable by the same Reader as a recorded flight log). An empty
// ring still produces a valid, empty segment — the dump's existence is the
// signal that the crash path ran.
func DumpBlackbox(path string) error {
	recs := blackbox.snapshot()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	seg, err := segment.NewWriter(f, Magic, Version)
	if err != nil {
		f.Close()
		return err
	}
	for _, rec := range recs {
		seg.Raw(rec)
		seg.EndRecord()
	}
	if err := seg.Close(); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	mDumps.Inc()
	return f.Close()
}

// DumpOnPanic is the crash hook for CLI mains: deferred early, it dumps the
// black-box ring to path when the goroutine is unwinding from a panic, then
// re-panics so the crash still reports. A normal return dumps nothing, and
// neither does an empty path (Flags.Blackbox with recording off).
func DumpOnPanic(path string) {
	if path == "" {
		return
	}
	if v := recover(); v != nil {
		DumpBlackbox(path) // best-effort: the process is dying
		panic(v)
	}
}

// ResetBlackbox empties the ring; tests isolating dump contents call this.
//
//rootlint:allow deadcode: the hook measure/chaos_test.go isolates each kill's black-box dump with
func ResetBlackbox() { blackbox.reset() }
