package telemetry

import (
	"encoding/json"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Stage spans: lightweight begin/end records around the campaign's
// probe→route→transfer→validate→record chain and the serve path, kept in a
// bounded ring buffer and dumpable as Chrome trace_event JSON (load the file
// at chrome://tracing or https://ui.perfetto.dev). Spans carry both the
// tick-virtual timestamp (the deterministic coordinate) and wall durations
// (the nondeterministic one); tracing is off unless explicitly enabled, in
// which case StartSpan costs one atomic load plus a clock read.

// DefaultSpanCap bounds the span ring when EnableTracing is called with a
// non-positive capacity. 64Ki spans ≈ a few MB, enough for a quick campaign
// end to end; longer runs keep the most recent window.
const DefaultSpanCap = 1 << 16

// span is one completed stage.
type span struct {
	cat   string
	name  string
	tick  int32
	tid   int32
	start time.Time
	dur   time.Duration
}

// spanRing is the bounded span store.
type spanRing struct {
	mu sync.Mutex
	//rootlint:guardedby mu
	spans []span
	//rootlint:guardedby mu
	next int
	//rootlint:guardedby mu
	wrapped bool
}

var (
	tracing atomic.Bool
	ring    spanRing
)

// EnableTracing turns span recording on with the given ring capacity
// (non-positive = DefaultSpanCap), dropping any previously recorded spans.
func EnableTracing(capacity int) {
	if capacity <= 0 {
		capacity = DefaultSpanCap
	}
	ring.mu.Lock()
	ring.spans = make([]span, capacity)
	ring.next = 0
	ring.wrapped = false
	ring.mu.Unlock()
	tracing.Store(true)
}

// DisableTracing turns span recording off (recorded spans stay readable
// until the next EnableTracing or Reset).
//
//rootlint:allow deadcode: the hook core/determinism_test.go ends its traced run with
func DisableTracing() { tracing.Store(false) }

// resetSpans drops recorded spans (keeps the tracing mode as-is).
func resetSpans() {
	ring.mu.Lock()
	ring.next = 0
	ring.wrapped = false
	ring.mu.Unlock()
}

// Span is an in-flight stage; End records it. The zero Span (tracing off)
// is inert.
type Span struct {
	cat  string
	name string
	tick int32
	tid  int32
	t0   time.Time
}

// StartSpan opens a stage span. cat groups stages in the trace viewer
// ("campaign", "worker", "serve"); tick is the tick-virtual timestamp (-1
// outside the campaign loop); tid lanes the span (worker id, 0 for the
// campaign goroutine).
func StartSpan(cat, name string, tick, tid int) Span {
	if !tracing.Load() {
		return Span{}
	}
	//rootlint:allow wallclock: span timestamps are trace-only diagnostics, gated behind EnableTracing, never fed into measurement
	return Span{cat: cat, name: name, tick: int32(tick), tid: int32(tid), t0: time.Now()}
}

// End completes the span and files it into the ring.
func (s Span) End() {
	if s.t0.IsZero() {
		return
	}
	//rootlint:allow wallclock: span durations are trace-only diagnostics, gated behind EnableTracing
	d := time.Since(s.t0)
	ring.mu.Lock()
	if len(ring.spans) != 0 {
		ring.spans[ring.next] = span{cat: s.cat, name: s.name, tick: s.tick, tid: s.tid, start: s.t0, dur: d}
		ring.next++
		if ring.next == len(ring.spans) {
			ring.next = 0
			ring.wrapped = true
		}
	}
	ring.mu.Unlock()
}

// Timer feeds wall-clock histograms; the zero Timer (telemetry disabled) is
// inert, so call sites pay nothing when no telemetry flag was given.
type Timer struct{ t0 time.Time }

// StartTimer opens a wall-clock measurement when telemetry is enabled.
func StartTimer() Timer {
	if !enabled.Load() {
		return Timer{}
	}
	//rootlint:allow wallclock: duration histograms are the explicitly nondeterministic namespace, gated behind SetEnabled
	return Timer{t0: time.Now()}
}

// ObserveInto records the elapsed microseconds into h.
func (t Timer) ObserveInto(h *Histogram) {
	if t.t0.IsZero() {
		return
	}
	//rootlint:allow wallclock: duration histograms are the explicitly nondeterministic namespace, gated behind SetEnabled
	h.Observe(time.Since(t.t0).Microseconds())
}

// traceEvent is one Chrome trace_event entry (the "X" complete-event form).
type traceEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	Ts   int64          `json:"ts"`
	Dur  int64          `json:"dur"`
	Pid  int            `json:"pid"`
	Tid  int32          `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// WriteTrace dumps the recorded spans as Chrome trace_event JSON, ordered by
// start time, with timestamps rebased to the earliest span.
func WriteTrace(w io.Writer) error {
	ring.mu.Lock()
	n := ring.next
	if ring.wrapped {
		n = len(ring.spans)
	}
	spans := make([]span, n)
	copy(spans, ring.spans[:n])
	ring.mu.Unlock()

	sort.Slice(spans, func(i, j int) bool { return spans[i].start.Before(spans[j].start) })
	events := make([]traceEvent, 0, len(spans))
	var epoch time.Time
	if len(spans) > 0 {
		epoch = spans[0].start
	}
	for _, s := range spans {
		events = append(events, traceEvent{
			Name: s.name, Cat: s.cat, Ph: "X",
			Ts:  s.start.Sub(epoch).Microseconds(),
			Dur: s.dur.Microseconds(),
			Pid: 1, Tid: s.tid,
			Args: map[string]any{"tick": s.tick},
		})
	}
	enc := json.NewEncoder(w)
	return enc.Encode(map[string]any{"traceEvents": events})
}
