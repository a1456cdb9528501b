package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
)

// Scope selects which registry classes a snapshot includes.
type Scope uint8

const (
	// ScopeAll includes every metric (exporters, /metrics, -metrics file).
	ScopeAll Scope = iota
	// ScopeLogical includes ClassStream and ClassProcess — everything that
	// must be byte-identical across worker counts.
	ScopeLogical
	// ScopeStream includes only ClassStream — everything that must also be
	// identical across kill/resume, i.e. the checkpointed state.
	ScopeStream
)

func (s Scope) includes(c Class) bool {
	switch s {
	case ScopeLogical:
		return c != ClassVolatile
	case ScopeStream:
		return c == ClassStream
	default:
		return true
	}
}

// MetricValue is one rendered registry entry. Counter and gauge values land
// in Value; histograms carry Count/Sum/Buckets (only non-empty buckets, as
// [upper-bound, count] pairs with power-of-two upper bounds in the
// histogram's unit).
type MetricValue struct {
	Name    string     `json:"name"`
	Kind    string     `json:"kind"`
	Class   string     `json:"class"`
	Value   int64      `json:"value,omitempty"`
	Count   int64      `json:"count,omitempty"`
	Sum     int64      `json:"sum,omitempty"`
	Buckets [][2]int64 `json:"buckets,omitempty"`
}

// Snapshot renders the claimed metrics in registry order. Unclaimed entries
// (their package is not linked into this binary) render as zeros, so the
// output shape depends only on the registry and the scope.
func Snapshot(scope Scope) []MetricValue {
	out := make([]MetricValue, 0, len(Registry))
	for i := range Registry {
		def := &Registry[i]
		if !scope.includes(def.Class) {
			continue
		}
		mv := MetricValue{Name: def.Name, Kind: def.Kind.String(), Class: def.Class.String()}
		if m, ok := claimedMetric(def.Name); ok {
			switch v := m.(type) {
			case *Counter:
				mv.Value = v.Value()
			case *Gauge:
				mv.Value = v.Value()
			case *Histogram:
				mv.Count = v.Count()
				mv.Sum = v.Sum()
				mv.Buckets = v.BucketCounts()
			}
		}
		out = append(out, mv)
	}
	return out
}

// bucketUpper is the exclusive upper bound of bucket idx: 2^idx, with bucket
// 0 holding only zeros (upper bound 1).
func bucketUpper(idx int) int64 { return int64(1) << idx }

// WriteJSON writes a snapshot as indented JSON. Registry order makes the
// bytes of a logical-scope snapshot directly comparable across runs.
func WriteJSON(w io.Writer, scope Scope) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(map[string]any{"metrics": Snapshot(scope)})
}

// MarshalLogical returns the canonical bytes of the logical namespace — the
// value the determinism tests compare across worker counts.
//
//rootlint:allow deadcode: the bytes measure/telemetry_test.go and dnsserver/serve_adversity_test.go compare across worker counts
func MarshalLogical() []byte {
	data, err := json.Marshal(Snapshot(ScopeLogical))
	if err != nil {
		// Snapshot marshals only ints and strings; this cannot fail.
		panic(err)
	}
	return data
}

// WriteSummary prints the end-of-run text table: every metric with a
// non-zero value, histograms with count/mean and the p50/p99 bucket
// estimates. CLIs print it to stderr when telemetry is enabled so it never
// mixes into report output.
func WriteSummary(w io.Writer) {
	fmt.Fprintf(w, "== telemetry ==\n")
	for _, mv := range Snapshot(ScopeAll) {
		switch {
		case mv.Kind == "histogram" && mv.Count > 0:
			maxUpper := int64(0)
			if n := len(mv.Buckets); n > 0 {
				maxUpper = mv.Buckets[n-1][0]
			}
			fmt.Fprintf(w, "%-32s count=%d mean=%dus p50=%dus p99=%dus max<%dus\n",
				mv.Name, mv.Count, mv.Sum/mv.Count,
				QuantileFromBuckets(mv.Buckets, 0.5), QuantileFromBuckets(mv.Buckets, 0.99), maxUpper)
		case mv.Kind != "histogram" && mv.Value != 0:
			fmt.Fprintf(w, "%-32s %d\n", mv.Name, mv.Value)
		}
	}
}

// counterState is one checkpointed metric value.
type counterState struct {
	Name  string `json:"name"`
	Value int64  `json:"value"`
}

// StreamState is the stream-class counters and gauges as a checkpoint part
// (checkpoint.Part). An owner lists it after every other part: sealing those
// moves stream counters (blocks sealed, bytes sealed), and the owner counts
// the checkpoint itself before sealing anything, so the snapshot taken here
// holds exactly what an uninterrupted run has counted at this boundary.
// Process-class metrics (caches, failpoints) are left out: they describe
// this process, not the event stream, and start over on resume.
type StreamState struct{}

// CheckpointSeal serializes the stream-class metrics in registry order.
func (StreamState) CheckpointSeal() ([]byte, error) {
	var st []counterState
	for i := range Registry {
		def := &Registry[i]
		if def.Class != ClassStream {
			continue
		}
		var val int64
		if m, ok := claimedMetric(def.Name); ok {
			switch v := m.(type) {
			case *Counter:
				val = v.Value()
			case *Gauge:
				val = v.Value()
			}
		}
		st = append(st, counterState{Name: def.Name, Value: val})
	}
	return json.Marshal(st)
}

// RestoreCheckpoint overwrites the stream-class metrics from a sealed blob.
// Entries naming metrics that are unclaimed in this binary are skipped;
// unknown names fail loudly, because they mean the checkpoint was written by
// a binary with a different registry.
func (StreamState) RestoreCheckpoint(data []byte) error {
	var st []counterState
	if err := json.Unmarshal(data, &st); err != nil {
		return fmt.Errorf("telemetry: corrupt checkpoint state: %w", err)
	}
	for _, cs := range st {
		def := lookupDef(cs.Name)
		if def == nil || def.Class != ClassStream {
			return fmt.Errorf("telemetry: checkpoint state names unknown stream metric %q", cs.Name)
		}
		m, ok := claimedMetric(cs.Name)
		if !ok {
			continue
		}
		switch v := m.(type) {
		case *Counter:
			v.setTotal(cs.Value)
		case *Gauge:
			v.Set(cs.Value)
		}
	}
	return nil
}
