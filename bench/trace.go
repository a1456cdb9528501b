//go:build linux

package main

import (
	"bufio"
	"fmt"
	"os"
	"sort"
	"time"

	"repro/internal/measure"
)

// span is one timed call into a layer, taken from outside the program under
// test: the benchmark's own wrapper around a public function, a handler, or
// a socket round trip. parent is the 1-based index of the span that caused
// it (0 = none).
type span struct {
	layer  *layerSpans
	start  int64 // ns since the tracer's epoch
	dur    int64 // ns
	parent int32
}

// tracer keeps spans in memory and writes them out when the run ends. It is
// filled by one goroutine at a time (the generator thread, or the campaign
// and replay drains, which are serial), so it carries no lock. Past
// maxSpans it counts spans without keeping them: the layer totals stay
// exact while the file stays bounded.
type tracer struct {
	epoch  time.Time
	spans  []span
	layers []*layerSpans
}

// layerSpans is the handle spans of one layer are recorded through, and
// their running total.
type layerSpans struct {
	name  string
	calls int64
	ns    int64
	t     *tracer
}

// maxSpans bounds the trace file (about 40 bytes a span on disk).
const maxSpans = 1 << 20

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), spans: make([]span, 0, maxSpans)}
}

// now is the tracer's clock: nanoseconds since its epoch.
func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// layer returns the handle for a layer, creating it on first use.
func (t *tracer) layer(name string) *layerSpans {
	for _, l := range t.layers {
		if l.name == name {
			return l
		}
	}
	l := &layerSpans{name: name, t: t}
	t.layers = append(t.layers, l)
	return l
}

// add records one finished span and returns its 1-based index (0 when the
// span was counted but not kept).
func (l *layerSpans) add(start, dur int64, parent int32) int32 {
	l.calls++
	l.ns += dur
	t := l.t
	if len(t.spans) < cap(t.spans) {
		t.spans = append(t.spans, span{layer: l, start: start, dur: dur, parent: parent})
		return int32(len(t.spans))
	}
	return 0
}

// begin opens a span whose children are recorded before it ends; end closes
// it. The pair brackets a whole pass or window.
func (l *layerSpans) begin() int32 { return l.add(l.t.now(), 0, 0) }

func (l *layerSpans) end(idx int32) {
	if idx > 0 {
		s := &l.t.spans[idx-1]
		s.dur = l.t.now() - s.start
		l.ns += s.dur
	}
}

// perCall is the layer's mean time per recorded call in nanoseconds.
func (l *layerSpans) perCall() float64 {
	if l.calls == 0 {
		return 0
	}
	return float64(l.ns) / float64(l.calls)
}

// count is the number of spans recorded, kept or not.
func (t *tracer) count() int64 {
	var n int64
	for _, l := range t.layers {
		n += l.calls
	}
	return n
}

// writeFile writes the per-layer totals and the kept spans as JSON.
func (t *tracer) writeFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	layers := append([]*layerSpans(nil), t.layers...)
	sort.Slice(layers, func(i, j int) bool { return layers[i].name < layers[j].name })
	fmt.Fprint(w, "{\"layers\": {")
	for i, l := range layers {
		if i > 0 {
			fmt.Fprint(w, ", ")
		}
		fmt.Fprintf(w, "%q: {\"calls\": %d, \"ns\": %d}", l.name, l.calls, l.ns)
	}
	fmt.Fprint(w, "},\n\"span_fields\": [\"layer\", \"start_ns\", \"dur_ns\", \"parent\"],\n\"spans\": [\n")
	for i, s := range t.spans {
		sep := ","
		if i == len(t.spans)-1 {
			sep = ""
		}
		fmt.Fprintf(w, "[%q,%d,%d,%d]%s\n", s.layer.name, s.start, s.dur, s.parent, sep)
	}
	fmt.Fprint(w, "]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// timedHandler wraps a campaign or replay handler and records every call
// into it as a span of its layer.
type timedHandler struct {
	inner  measure.Handler
	spans  *layerSpans
	parent int32
}

func (h *timedHandler) HandleProbe(e measure.ProbeEvent) {
	t0 := h.spans.t.now()
	h.inner.HandleProbe(e)
	h.spans.add(t0, h.spans.t.now()-t0, h.parent)
}

func (h *timedHandler) HandleTransfer(e measure.TransferEvent) {
	t0 := h.spans.t.now()
	h.inner.HandleTransfer(e)
	h.spans.add(t0, h.spans.t.now()-t0, h.parent)
}
