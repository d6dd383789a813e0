package stats

import (
	"math"
	"slices"
	"testing"
	"testing/quick"

	"cloudvar/internal/simrand"
)

func almostEqual(a, b, tol float64) bool {
	if math.IsNaN(a) || math.IsNaN(b) {
		return math.IsNaN(a) && math.IsNaN(b)
	}
	return math.Abs(a-b) <= tol
}

func TestMean(t *testing.T) {
	if got := Mean([]float64{1, 2, 3, 4}); got != 2.5 {
		t.Errorf("Mean = %g, want 2.5", got)
	}
	if !math.IsNaN(Mean(nil)) {
		t.Error("Mean(nil) should be NaN")
	}
}

func TestVarianceStdDev(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got := Variance(xs); !almostEqual(got, 32.0/7.0, 1e-12) {
		t.Errorf("Variance = %g, want %g", got, 32.0/7.0)
	}
	if got := StdDev(xs); !almostEqual(got, math.Sqrt(32.0/7.0), 1e-12) {
		t.Errorf("StdDev = %g", got)
	}
	if !math.IsNaN(Variance([]float64{1})) {
		t.Error("Variance of single sample should be NaN")
	}
}

func TestCoefficientOfVariation(t *testing.T) {
	xs := []float64{10, 10, 10}
	if got := CoefficientOfVariation(xs); got != 0 {
		t.Errorf("CoV of constant sample = %g, want 0", got)
	}
	if !math.IsNaN(CoefficientOfVariation([]float64{-1, 1})) {
		t.Error("CoV with zero mean should be NaN")
	}
}

func TestWelfordMatchesBatch(t *testing.T) {
	src := simrand.New(8)
	xs := make([]float64, 500)
	var w Welford
	for i := range xs {
		xs[i] = src.Normal(50, 12)
		w.Add(xs[i])
	}
	if !almostEqual(w.Mean(), Mean(xs), 1e-9) {
		t.Errorf("Welford mean %g != batch %g", w.Mean(), Mean(xs))
	}
	if !almostEqual(w.Variance(), Variance(xs), 1e-6) {
		t.Errorf("Welford variance %g != batch %g", w.Variance(), Variance(xs))
	}
	if w.Min() != slices.Min(xs) || w.Max() != slices.Max(xs) {
		t.Error("Welford min/max mismatch")
	}
	if w.N() != len(xs) {
		t.Errorf("Welford N = %d", w.N())
	}
}

func TestWelfordEmpty(t *testing.T) {
	var w Welford
	if !math.IsNaN(w.Mean()) || !math.IsNaN(w.Variance()) || !math.IsNaN(w.Min()) || !math.IsNaN(w.Max()) {
		t.Error("empty Welford should return NaNs")
	}
}

func TestQuantileAgainstKnownValues(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	cases := []struct{ p, want float64 }{
		{0, 1}, {1, 10}, {0.5, 5.5}, {0.25, 3.25}, {0.75, 7.75},
	}
	for _, c := range cases {
		if got := Quantile(xs, c.p); !almostEqual(got, c.want, 1e-12) {
			t.Errorf("Quantile(%g) = %g, want %g", c.p, got, c.want)
		}
	}
}

func TestQuantileEdgeCases(t *testing.T) {
	if !math.IsNaN(Quantile(nil, 0.5)) {
		t.Error("Quantile of empty should be NaN")
	}
	if !math.IsNaN(Quantile([]float64{1, 2}, -0.1)) {
		t.Error("Quantile(p<0) should be NaN")
	}
	if !math.IsNaN(Quantile([]float64{1, 2}, 1.1)) {
		t.Error("Quantile(p>1) should be NaN")
	}
	if got := Quantile([]float64{42}, 0.9); got != 42 {
		t.Errorf("Quantile of singleton = %g", got)
	}
}

func TestQuantilePropertyBounds(t *testing.T) {
	src := simrand.New(77)
	f := func(n uint8, pRaw float64) bool {
		size := int(n%50) + 1
		xs := make([]float64, size)
		for i := range xs {
			xs[i] = src.Normal(0, 100)
		}
		p := math.Abs(math.Mod(pRaw, 1))
		q := Quantile(xs, p)
		return q >= slices.Min(xs)-1e-9 && q <= slices.Max(xs)+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestQuantileMonotoneInP(t *testing.T) {
	src := simrand.New(78)
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = src.Float64() * 1000
	}
	prev := math.Inf(-1)
	for p := 0.0; p <= 1.0; p += 0.01 {
		q := Quantile(xs, p)
		if q < prev-1e-9 {
			t.Fatalf("quantile decreased at p=%g: %g < %g", p, q, prev)
		}
		prev = q
	}
}

func TestPercentiles(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	got := Percentiles(xs, 0.25, 0.5, 0.75)
	want := []float64{3.25, 5.5, 7.75}
	for i := range got {
		if !almostEqual(got[i], want[i], 1e-12) {
			t.Errorf("Percentiles[%d] = %g, want %g", i, got[i], want[i])
		}
	}
	for _, v := range Percentiles(nil, 0.5) {
		if !math.IsNaN(v) {
			t.Error("Percentiles of empty should be NaN")
		}
	}
}

func TestSummarize(t *testing.T) {
	xs := make([]float64, 101)
	for i := range xs {
		xs[i] = float64(i) // 0..100
	}
	s := Summarize(xs)
	if s.N != 101 || s.Min != 0 || s.Max != 100 {
		t.Errorf("bad summary bounds: %+v", s)
	}
	if !almostEqual(s.Median, 50, 1e-9) || !almostEqual(s.P25, 25, 1e-9) || !almostEqual(s.P75, 75, 1e-9) {
		t.Errorf("bad summary quartiles: %+v", s)
	}
	if !almostEqual(s.Mean, 50, 1e-9) {
		t.Errorf("bad summary mean: %g", s.Mean)
	}
	empty := Summarize(nil)
	if empty.N != 0 || !math.IsNaN(empty.Median) {
		t.Error("empty summary should be NaN-filled")
	}
}

func TestIQR(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if got := IQR(xs); !almostEqual(got, 4.5, 1e-12) {
		t.Errorf("IQR = %g, want 4.5", got)
	}
}

func TestECDF(t *testing.T) {
	e := NewECDF([]float64{1, 2, 2, 3})
	cases := []struct{ x, want float64 }{
		{0.5, 0}, {1, 0.25}, {2, 0.75}, {2.5, 0.75}, {3, 1}, {99, 1},
	}
	for _, c := range cases {
		if got := e.At(c.x); !almostEqual(got, c.want, 1e-12) {
			t.Errorf("ECDF.At(%g) = %g, want %g", c.x, got, c.want)
		}
	}
	if e.N() != 4 {
		t.Errorf("ECDF.N = %d", e.N())
	}
}

func TestECDFPoints(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i)
	}
	e := NewECDF(xs)
	vals, fracs := e.Points(10)
	if len(vals) != 10 || len(fracs) != 10 {
		t.Fatalf("Points returned %d/%d entries", len(vals), len(fracs))
	}
	if vals[0] != 0 || vals[9] != 999 {
		t.Errorf("Points endpoints = %g, %g", vals[0], vals[9])
	}
	for i := 1; i < len(fracs); i++ {
		if fracs[i] < fracs[i-1] {
			t.Error("ECDF points not monotone")
		}
	}
	if v, f := e.Points(0); v != nil || f != nil {
		t.Error("Points(0) should be nil")
	}
}

func TestHistogram(t *testing.T) {
	xs := []float64{0.5, 1.5, 2.5, 2.6, -5, 99}
	h := NewHistogram(xs, 0, 3, 3)
	wantCounts := []int{2, 1, 3} // -5 clamps to bucket 0, 99 to bucket 2
	for i, want := range wantCounts {
		if h.Counts[i] != want {
			t.Errorf("bucket %d = %d, want %d", i, h.Counts[i], want)
		}
	}
	dens := h.Densities()
	total := 0.0
	for _, d := range dens {
		total += d
	}
	if !almostEqual(total, 1, 1e-12) {
		t.Errorf("densities sum to %g", total)
	}
	if got := h.BucketCenter(1); !almostEqual(got, 1.5, 1e-12) {
		t.Errorf("BucketCenter(1) = %g", got)
	}
}

func TestHistogramPanics(t *testing.T) {
	for _, c := range []struct {
		name    string
		lo, hi  float64
		buckets int
	}{
		{"zero bins", 0, 1, 0},
		{"inverted range", 1, 0, 3},
	} {
		t.Run(c.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			NewHistogram(nil, c.lo, c.hi, c.buckets)
		})
	}
}
