package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestQuantile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	cases := []struct {
		q, want float64
	}{
		{0, 1}, {0.25, 2}, {0.5, 3}, {0.75, 4}, {1, 5},
	}
	for _, c := range cases {
		if got := Quantile(xs, c.q); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("Quantile(%.2f) = %v, want %v", c.q, got, c.want)
		}
	}
	if !math.IsNaN(Quantile(nil, 0.5)) {
		t.Error("empty quantile not NaN")
	}
	// Interpolation between values.
	if got := Quantile([]float64{0, 10}, 0.5); math.Abs(got-5) > 1e-9 {
		t.Errorf("interpolated median = %v", got)
	}
}

func TestMeanStdDev(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got := Mean(xs); math.Abs(got-5) > 1e-9 {
		t.Errorf("mean = %v", got)
	}
	if got := StdDev(xs); math.Abs(got-2) > 1e-9 {
		t.Errorf("stddev = %v", got)
	}
	if !math.IsNaN(Mean(nil)) || !math.IsNaN(StdDev(nil)) {
		t.Error("empty mean/stddev not NaN")
	}
}

func TestCCDF(t *testing.T) {
	xs := []float64{1, 2, 2, 3}
	if got := CCDFAt(xs, 0); got != 1 {
		t.Errorf("CCDFAt(0) = %v", got)
	}
	if got := CCDFAt(xs, 2); got != 0.25 {
		t.Errorf("CCDFAt(2) = %v", got)
	}
	if got := CCDFAt(xs, 5); got != 0 {
		t.Errorf("CCDFAt(5) = %v", got)
	}
}

func TestSummarize(t *testing.T) {
	xs := make([]float64, 101)
	for i := range xs {
		xs[i] = float64(i)
	}
	s := Summarize(xs)
	if s.N != 101 || s.Min != 0 || s.Max != 100 || s.P50 != 50 {
		t.Errorf("summary = %+v", s)
	}
	if s.P25 != 25 || s.P75 != 75 || s.P90 != 90 {
		t.Errorf("quartiles = %+v", s)
	}
	if Summarize(nil).N != 0 {
		t.Error("empty summary N != 0")
	}
	if Summarize(nil).String() != "n=0" {
		t.Error("empty summary string")
	}
	if s.String() == "" {
		t.Error("summary string empty")
	}
}

func TestHistogram(t *testing.T) {
	xs := []float64{0.5, 1.5, 1.6, 99, -3}
	h := Histogram(xs, 1, 10)
	if h[0] != 2 { // 0.5 and the clamped -3
		t.Errorf("bin 0 = %d", h[0])
	}
	if h[1] != 2 {
		t.Errorf("bin 1 = %d", h[1])
	}
	if h[9] != 1 { // 99 clamps into the last bin
		t.Errorf("bin 9 = %d", h[9])
	}
}

func TestQuantileWithinRange(t *testing.T) {
	f := func(seed int64, q float64) bool {
		q = math.Abs(math.Mod(q, 1))
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(50)
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = rng.NormFloat64() * 50
		}
		v := Quantile(xs, q)
		lo, hi := Quantile(xs, 0), Quantile(xs, 1)
		return v >= lo && v <= hi
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestSummarizeMatchesSevenQuantiles: Summarize, which sorts once, equals the
// summary of seven Quantile calls bit for bit, on random inputs with and
// without ties, and leaves its input in its order.
func TestSummarizeMatchesSevenQuantiles(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 500; i++ {
		xs := make([]float64, 1+rng.Intn(300))
		for j := range xs {
			if i%2 == 0 {
				xs[j] = float64(rng.Intn(8)) * 0.25 // few values: ties
			} else {
				xs[j] = rng.ExpFloat64() * 80
			}
		}
		in := append([]float64(nil), xs...)
		want := Summary{
			N: len(xs), Mean: Mean(xs), StdDev: StdDev(xs),
			Min: Quantile(xs, 0), P25: Quantile(xs, 0.25), P50: Quantile(xs, 0.5), P75: Quantile(xs, 0.75),
			P90: Quantile(xs, 0.90), P99: Quantile(xs, 0.99), Max: Quantile(xs, 1),
		}
		got := Summarize(xs)
		bits := func(s Summary) [9]uint64 {
			var b [9]uint64
			for k, v := range []float64{s.Mean, s.StdDev, s.Min, s.P25, s.P50, s.P75, s.P90, s.P99, s.Max} {
				b[k] = math.Float64bits(v)
			}
			return b
		}
		if got.N != want.N || bits(got) != bits(want) {
			t.Fatalf("input %d (%d samples): Summarize = %+v, seven Quantile calls = %+v", i, len(xs), got, want)
		}
		for j := range xs {
			if math.Float64bits(xs[j]) != math.Float64bits(in[j]) {
				t.Fatalf("input %d: Summarize reordered its input", i)
			}
		}
	}
}
