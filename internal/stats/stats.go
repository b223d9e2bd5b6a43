// Package stats provides the statistical tools the NORA evaluation uses:
// moment statistics (notably excess-free Pearson kurtosis, the outlier
// measure in Fig. 4 and Fig. 6 of the paper), per-channel absolute-max
// tracking for calibration, mean-squared error, histograms and a Gaussian
// kernel density estimate.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Summary holds the first four standardized moments of a sample.
type Summary struct {
	N        int
	Mean     float64
	Variance float64 // population variance (divide by N)
	Std      float64
	Skew     float64
	Kurtosis float64 // Pearson kurtosis (normal = 3), as reported by the paper
	Min, Max float64
}

// Summarize computes moment statistics of xs in one pass (float64
// accumulation). Kurtosis follows the Pearson convention m4/m2², matching
// the values quoted in the paper (e.g. activation kurtosis 113.61 in Fig. 4).
func Summarize(xs []float32) Summary {
	s := Summary{N: len(xs), Min: math.Inf(1), Max: math.Inf(-1)}
	if len(xs) == 0 {
		s.Min, s.Max = 0, 0
		return s
	}
	var sum float64
	for _, v := range xs {
		f := float64(v)
		sum += f
		if f < s.Min {
			s.Min = f
		}
		if f > s.Max {
			s.Max = f
		}
	}
	n := float64(len(xs))
	s.Mean = sum / n
	var m2, m3, m4 float64
	for _, v := range xs {
		d := float64(v) - s.Mean
		d2 := float64(d * d)
		m2 += d2
		m3 += float64(d2 * d)
		m4 += float64(d2 * d2)
	}
	m2 /= n
	m3 /= n
	m4 /= n
	s.Variance = m2
	s.Std = math.Sqrt(m2)
	if m2 > 0 {
		s.Skew = m3 / math.Pow(m2, 1.5)
		s.Kurtosis = m4 / (m2 * m2)
	}
	return s
}

// Kurtosis returns the Pearson kurtosis of xs (3 for a Gaussian; degenerate
// samples return 0).
func Kurtosis(xs []float32) float64 { return Summarize(xs).Kurtosis }

// MSE returns the mean squared error between a and b.
func MSE(a, b []float32) float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("stats: MSE length mismatch %d vs %d", len(a), len(b)))
	}
	if len(a) == 0 {
		return 0
	}
	var s float64
	for i, v := range a {
		d := float64(v) - float64(b[i])
		s += float64(d * d)
	}
	return s / float64(len(a))
}

// RMSE returns sqrt(MSE(a, b)).
func RMSE(a, b []float32) float64 { return math.Sqrt(MSE(a, b)) }

// SNRdB returns the signal-to-noise ratio 10·log10(‖sig‖²/‖sig-noisy‖²) in
// decibels. Returns +Inf for identical inputs.
func SNRdB(sig, noisy []float32) float64 {
	if len(sig) != len(noisy) {
		panic("stats: SNRdB length mismatch")
	}
	var p, e float64
	for i, v := range sig {
		f := float64(v)
		p += float64(f * f)
		d := f - float64(noisy[i])
		e += float64(d * d)
	}
	if e == 0 {
		return math.Inf(1)
	}
	return 10 * math.Log10(p/e)
}

// Quantile returns the q-quantile (0 ≤ q ≤ 1) of xs using linear
// interpolation. xs is not modified.
func Quantile(xs []float32, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sorted := make([]float64, len(xs))
	for i, v := range xs {
		sorted[i] = float64(v)
	}
	sort.Float64s(sorted)
	if q <= 0 {
		return sorted[0]
	}
	if q >= 1 {
		return sorted[len(sorted)-1]
	}
	pos := float64(q * float64(len(sorted)-1))
	lo := int(pos)
	frac := pos - float64(lo)
	if lo+1 >= len(sorted) {
		return sorted[lo]
	}
	return float64(sorted[lo]*(1-frac)) + float64(sorted[lo+1]*frac)
}
