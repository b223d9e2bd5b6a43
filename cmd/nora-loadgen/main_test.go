package main

import (
	"math"
	"testing"
)

// TestPercentilesInterpolate pins the quantile definition of the latency
// columns: stats.Quantile interpolates between ranks, as perfbench does, so
// the p99 of 1…50 ms is 49.51 ms. Flooring the rank index reported 49 ms,
// the second-largest sample.
func TestPercentilesInterpolate(t *testing.T) {
	samples := make([]float32, 50)
	for i := range samples {
		samples[i] = float32(50 - i) // unsorted on purpose
	}
	got := percentiles(samples)
	want := [3]float64{25.5, 47.55, 49.51}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-9 {
			t.Errorf("p50/p95/p99 of 1…50 ms = %v, want %v", got, want)
			break
		}
	}
}
