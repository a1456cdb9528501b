package telemetry

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http/httptest"
	"sync"
	"testing"
)

// The test binary claims a handful of real registry names; the packages that
// claim them in production (measure, dataset) are not linked here, so the
// names are free. Claimed once at package level because claims are
// process-global and one-shot.
var (
	tPairs   = NewCounter("campaign/pairs")
	tDepth   = NewGauge("campaign/queue_depth")
	tTickDur = NewHistogram("wallclock/tick_us")
	tRecords = NewCounter("dataset/records")
)

func TestCounterShardsSum(t *testing.T) {
	Reset()
	for w := 0; w < 2*NumShards; w++ {
		for i := 0; i < w; i++ {
			tPairs.ShardInc(w)
		}
	}
	tPairs.Inc()
	want := int64(1)
	for w := 0; w < 2*NumShards; w++ {
		want += int64(w)
	}
	if got := tPairs.Value(); got != want {
		t.Fatalf("sharded counter sum = %d, want %d", got, want)
	}
	tPairs.setTotal(7)
	if got := tPairs.Value(); got != 7 {
		t.Fatalf("setTotal: value = %d, want 7", got)
	}
}

func TestGaugeAndHistogram(t *testing.T) {
	Reset()
	tDepth.Set(13)
	tDepth.Add(-3)
	if got := tDepth.Value(); got != 10 {
		t.Fatalf("gauge = %d, want 10", got)
	}
	for _, v := range []int64{0, 1, 3, 1000, -5} {
		tTickDur.Observe(v)
	}
	if tTickDur.Count() != 5 {
		t.Fatalf("histogram count = %d, want 5", tTickDur.Count())
	}
	if tTickDur.Sum() != 1004 { // -5 clamps to 0
		t.Fatalf("histogram sum = %d, want 1004", tTickDur.Sum())
	}
}

func TestClaimPanics(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		f()
	}
	mustPanic("unknown name", func() { NewCounter("no/such/metric") })
	mustPanic("kind mismatch", func() { NewGauge("campaign/probes") })
	mustPanic("duplicate claim", func() { NewCounter("campaign/pairs") })
}

// TestSnapshotShape: a snapshot renders every registry entry — claimed or
// not — in registry order, so its bytes are a pure function of the values.
func TestSnapshotShape(t *testing.T) {
	Reset()
	snap := Snapshot(ScopeAll)
	if len(snap) != len(Registry) {
		t.Fatalf("snapshot has %d entries, registry has %d", len(snap), len(Registry))
	}
	for i, mv := range snap {
		if mv.Name != Registry[i].Name {
			t.Fatalf("snapshot[%d] = %q, want registry order %q", i, mv.Name, Registry[i].Name)
		}
	}
	logical := Snapshot(ScopeLogical)
	for _, mv := range logical {
		if mv.Class == ClassVolatile.String() {
			t.Fatalf("logical snapshot leaked volatile metric %q", mv.Name)
		}
	}
}

func TestCheckpointStateRoundtrip(t *testing.T) {
	Reset()
	tRecords.Add(42)
	for i := 0; i < 9; i++ {
		tPairs.ShardInc(3)
	}
	state, err := StreamState{}.CheckpointSeal()
	if err != nil {
		t.Fatal(err)
	}
	// Simulate the resumed process: counters start over, restore overwrites.
	Reset()
	tRecords.Inc() // pre-restore noise a restore must overwrite
	if err := (StreamState{}).RestoreCheckpoint(state); err != nil {
		t.Fatal(err)
	}
	if got := tRecords.Value(); got != 42 {
		t.Fatalf("restored dataset/records = %d, want 42", got)
	}
	if got := tPairs.Value(); got != 9 {
		t.Fatalf("restored campaign/pairs = %d, want 9", got)
	}
	if err := (StreamState{}).RestoreCheckpoint(nil); err == nil {
		t.Fatal("empty state must be refused: a sidecar without telemetry predates the current version")
	}
	if err := (StreamState{}).RestoreCheckpoint([]byte(`[{"name":"bogus/metric","value":1}]`)); err == nil {
		t.Fatal("unknown metric name in checkpoint state must fail")
	}
}

func TestTraceRoundtrip(t *testing.T) {
	Reset()
	EnableTracing(16)
	defer DisableTracing()
	for i := 0; i < 20; i++ { // overflow the ring: oldest spans drop
		sp := StartSpan("test", "stage", i, 1)
		sp.End()
	}
	var buf bytes.Buffer
	if err := WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var out struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
			Tid  int32  `json:"tid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	if len(out.TraceEvents) != 16 {
		t.Fatalf("ring of 16 kept %d spans", len(out.TraceEvents))
	}
	if out.TraceEvents[0].Ph != "X" || out.TraceEvents[0].Name != "stage" {
		t.Fatalf("unexpected event %+v", out.TraceEvents[0])
	}
}

func TestHTTPMetricsEndpoint(t *testing.T) {
	Reset()
	tRecords.Add(5)
	srv := httptest.NewServer(Handler())
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out struct{ Metrics []MetricValue }
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, mv := range out.Metrics {
		if mv.Name == "dataset/records" && mv.Value == 5 {
			found = true
		}
	}
	if !found {
		t.Fatal("/metrics did not serve dataset/records = 5")
	}
}

// TestTelemetryStressConcurrent hammers every metric type and the span ring
// from many goroutines while readers snapshot concurrently; scripts/check.sh
// runs it under -race to pin the sharded design's thread safety.
func TestTelemetryStressConcurrent(t *testing.T) {
	Reset()
	EnableTracing(1024)
	SetEnabled(true)
	defer func() {
		SetEnabled(false)
		DisableTracing()
	}()
	const workers, iters = 8, 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				tPairs.ShardInc(w)
				tDepth.Add(1)
				tDepth.Add(-1)
				tm := StartTimer()
				tm.ObserveInto(tTickDur)
				sp := StartSpan("stress", "iter", i, w)
				sp.End()
			}
		}(w)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 200; i++ {
			Snapshot(ScopeAll)
			MarshalLogical()
			WriteTrace(io.Discard)
			StreamState{}.CheckpointSeal()
		}
	}()
	wg.Wait()
	<-done
	if got := tPairs.Value(); got != workers*iters {
		t.Fatalf("stressed counter = %d, want %d", got, workers*iters)
	}
	if got := tDepth.Value(); got != 0 {
		t.Fatalf("stressed gauge = %d, want 0", got)
	}
}
