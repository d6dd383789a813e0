// Package stats implements the statistical machinery the paper's
// methodology depends on: descriptive summaries, quantiles and ECDFs,
// nonparametric confidence intervals for medians and tail quantiles
// (Le Boudec's binomial order-statistic method), bootstrap intervals,
// Cohen's Kappa for inter-rater agreement, and the hypothesis tests the
// paper recommends running on performance samples (Shapiro-Wilk
// normality, Mann-Whitney independence-of-halves, augmented
// Dickey-Fuller stationarity).
//
// All functions are pure and deterministic; anything requiring
// randomness (bootstrap) takes an explicit *simrand.Source.
package stats

import (
	"errors"
	"math"
)

// ErrInsufficientData is returned when a computation needs more samples
// than were provided.
var ErrInsufficientData = errors.New("stats: insufficient data")

// Mean returns the arithmetic mean of xs, or NaN for empty input.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Variance returns the unbiased (n-1) sample variance, or NaN when
// fewer than two samples are given.
func Variance(xs []float64) float64 {
	if len(xs) < 2 {
		return math.NaN()
	}
	m := Mean(xs)
	ss := 0.0
	for _, x := range xs {
		d := x - m
		ss += d * d
	}
	return ss / float64(len(xs)-1)
}

// StdDev returns the sample standard deviation.
func StdDev(xs []float64) float64 { return math.Sqrt(Variance(xs)) }

// CoefficientOfVariation returns the ratio of the sample standard
// deviation to the mean, as a fraction (not percent). The paper plots
// this for the EC2 access regimes in Figure 6. Returns NaN when the
// mean is zero or there are fewer than two samples.
func CoefficientOfVariation(xs []float64) float64 {
	m := Mean(xs)
	if m == 0 || math.IsNaN(m) {
		return math.NaN()
	}
	return StdDev(xs) / math.Abs(m)
}

// Sum returns the sum of xs.
func Sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}

// Welford accumulates streaming mean and variance without storing the
// samples. The zero value is ready to use. It is the right tool for the
// week-long 10-second-binned traces of Section 3, where storing every
// point in memory for summary statistics would be wasteful.
type Welford struct {
	n    int
	mean float64
	m2   float64
	min  float64
	max  float64
}

// Add incorporates one observation.
func (w *Welford) Add(x float64) {
	w.n++
	if w.n == 1 {
		w.min, w.max = x, x
	} else {
		if x < w.min {
			w.min = x
		}
		if x > w.max {
			w.max = x
		}
	}
	delta := x - w.mean
	w.mean += delta / float64(w.n)
	w.m2 += delta * (x - w.mean)
}

// N returns the number of observations added.
func (w *Welford) N() int { return w.n }

// Mean returns the running mean, or NaN before any observation.
func (w *Welford) Mean() float64 {
	if w.n == 0 {
		return math.NaN()
	}
	return w.mean
}

// Variance returns the running unbiased variance, or NaN before two
// observations.
func (w *Welford) Variance() float64 {
	if w.n < 2 {
		return math.NaN()
	}
	return w.m2 / float64(w.n-1)
}

// StdDev returns the running standard deviation.
func (w *Welford) StdDev() float64 { return math.Sqrt(w.Variance()) }

// Min returns the smallest observation, or NaN before any observation.
func (w *Welford) Min() float64 {
	if w.n == 0 {
		return math.NaN()
	}
	return w.min
}

// Max returns the largest observation, or NaN before any observation.
func (w *Welford) Max() float64 {
	if w.n == 0 {
		return math.NaN()
	}
	return w.max
}

// Merge combines another accumulator into w (Chan et al.'s parallel
// update), as if w had also seen every observation other saw. Exact up
// to floating-point rounding; other is unchanged.
func (w *Welford) Merge(other Welford) {
	if other.n == 0 {
		return
	}
	if w.n == 0 {
		*w = other
		return
	}
	if other.min < w.min {
		w.min = other.min
	}
	if other.max > w.max {
		w.max = other.max
	}
	na, nb := float64(w.n), float64(other.n)
	delta := other.mean - w.mean
	w.mean += delta * nb / (na + nb)
	w.m2 += other.m2 + delta*delta*na*nb/(na+nb)
	w.n += other.n
}

// CoV returns the running coefficient of variation (fractional).
func (w *Welford) CoV() float64 {
	m := w.Mean()
	if m == 0 || math.IsNaN(m) {
		return math.NaN()
	}
	return w.StdDev() / math.Abs(m)
}

// Summary is a five-number-plus summary of a sample, the statistical
// fingerprint the paper says every cloud experiment report should
// include (F2.2: mean or median alone is under-specification).
type Summary struct {
	N      int
	Mean   float64
	StdDev float64
	CoV    float64 // fractional coefficient of variation
	Min    float64
	P01    float64 // 1st percentile (box-whisker lower whisker in the paper's figures)
	P25    float64
	Median float64
	P75    float64
	P90    float64
	P99    float64 // 99th percentile (upper whisker)
	Max    float64
}

// Summarize computes a Summary of xs. It copies and sorts internally;
// loops that summarise many slices should Reset a Sample instead.
func Summarize(xs []float64) Summary {
	var s Sample
	return s.Reset(xs).Summary()
}

// IQR returns the interquartile range of the sample.
func IQR(xs []float64) float64 {
	return Quantile(xs, 0.75) - Quantile(xs, 0.25)
}
