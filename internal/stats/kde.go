package stats

import "math"

// Histogram is a fixed-bin-width histogram over [Lo, Hi].
type Histogram struct {
	Lo, Hi float64
	Counts []int
	Total  int
}

// NewHistogram builds a histogram of xs with the given number of bins over
// [lo, hi]; samples outside the range are clamped into the edge bins.
func NewHistogram(xs []float32, bins int, lo, hi float64) *Histogram {
	if bins <= 0 || hi <= lo {
		panic("stats: invalid histogram parameters")
	}
	h := &Histogram{Lo: lo, Hi: hi, Counts: make([]int, bins)}
	width := (hi - lo) / float64(bins)
	for _, v := range xs {
		idx := int((float64(v) - lo) / width)
		if idx < 0 {
			idx = 0
		}
		if idx >= bins {
			idx = bins - 1
		}
		h.Counts[idx]++
		h.Total++
	}
	return h
}

// Density returns the normalized density of bin i (integrates to ~1).
func (h *Histogram) Density(i int) float64 {
	if h.Total == 0 {
		return 0
	}
	width := (h.Hi - h.Lo) / float64(len(h.Counts))
	return float64(h.Counts[i]) / (float64(h.Total) * width)
}

// BinCenter returns the center of bin i.
func (h *Histogram) BinCenter(i int) float64 {
	width := (h.Hi - h.Lo) / float64(len(h.Counts))
	return h.Lo + float64((float64(i)+0.5)*width)
}

// KDE is a Gaussian kernel density estimate, as used for the activation /
// weight distribution plots in Fig. 4 of the paper.
type KDE struct {
	samples   []float64
	bandwidth float64
}

// NewKDE builds a Gaussian KDE over xs. A non-positive bandwidth selects
// Silverman's rule of thumb: h = 1.06·σ·n^(-1/5).
func NewKDE(xs []float32, bandwidth float64) *KDE {
	k := &KDE{samples: make([]float64, len(xs))}
	for i, v := range xs {
		k.samples[i] = float64(v)
	}
	if bandwidth <= 0 {
		s := Summarize(xs)
		if s.Std == 0 || len(xs) == 0 {
			bandwidth = 1
		} else {
			bandwidth = 1.06 * s.Std * math.Pow(float64(len(xs)), -0.2)
		}
	}
	k.bandwidth = bandwidth
	return k
}

// At evaluates the density estimate at x.
func (k *KDE) At(x float64) float64 {
	if len(k.samples) == 0 {
		return 0
	}
	const invSqrt2Pi = 0.3989422804014327
	var s float64
	invH := 1 / k.bandwidth
	for _, v := range k.samples {
		u := (x - v) * invH
		s += math.Exp(-0.5 * u * u)
	}
	return s * invSqrt2Pi * invH / float64(len(k.samples))
}

// Grid evaluates the KDE at n evenly spaced points over [lo, hi], returning
// the xs and densities.
func (k *KDE) Grid(lo, hi float64, n int) (xs, ys []float64) {
	xs = make([]float64, n)
	ys = make([]float64, n)
	if n == 1 {
		xs[0] = lo
		ys[0] = k.At(lo)
		return
	}
	step := (hi - lo) / float64(n-1)
	for i := 0; i < n; i++ {
		xs[i] = lo + float64(float64(i)*step)
		ys[i] = k.At(xs[i])
	}
	return
}
