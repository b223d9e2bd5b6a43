package stats

import (
	"math"

	"nora/internal/rng"
)

// Reservoir maintains a fixed-size uniform random sample of a stream
// (Algorithm R), supporting approximate quantile queries over data too
// large to retain. NORA's quantile-calibration variant uses one reservoir
// per activation channel.
type Reservoir struct {
	cap     int
	n       int64
	samples []float32
	r       *rng.Rand
	maxSeen float64
}

// NewReservoir returns a reservoir holding at most capacity samples, using
// r for replacement decisions.
func NewReservoir(capacity int, r *rng.Rand) *Reservoir {
	if capacity <= 0 {
		panic("stats: reservoir capacity must be positive")
	}
	return &Reservoir{cap: capacity, r: r, maxSeen: math.Inf(-1)}
}

// Observe folds one value into the reservoir.
func (rv *Reservoir) Observe(v float32) {
	rv.n++
	if f := float64(v); f > rv.maxSeen {
		rv.maxSeen = f
	}
	if len(rv.samples) < rv.cap {
		rv.samples = append(rv.samples, v)
		return
	}
	// replace with probability cap/n
	if j := rv.r.Intn(int(rv.n)); j < rv.cap {
		rv.samples[j] = v
	}
}

// Count returns the number of observed values.
func (rv *Reservoir) Count() int64 { return rv.n }

// Max returns the exact maximum observed (tracked outside the sample).
func (rv *Reservoir) Max() float64 {
	if rv.n == 0 {
		return 0
	}
	return rv.maxSeen
}

// Quantile returns the approximate q-quantile of the stream. q ≥ 1 returns
// the exact maximum. An empty reservoir returns 0.
func (rv *Reservoir) Quantile(q float64) float64 {
	if rv.n == 0 {
		return 0
	}
	if q >= 1 {
		return rv.Max()
	}
	return Quantile(rv.samples, q)
}

// ChannelQuantileTracker keeps one absolute-value reservoir per channel,
// the quantile-clipping counterpart of ChannelTracker.
type ChannelQuantileTracker struct {
	res []*Reservoir
}

// NewChannelQuantileTracker builds a tracker with the given per-channel
// reservoir capacity; the seed derives per-channel RNG streams.
func NewChannelQuantileTracker(channels, capacity int, seed uint64) *ChannelQuantileTracker {
	root := rng.New(seed)
	t := &ChannelQuantileTracker{res: make([]*Reservoir, channels)}
	for k := range t.res {
		t.res[k] = NewReservoir(capacity, root.Split("ch"))
	}
	return t
}

// Channels returns the tracked channel count.
func (t *ChannelQuantileTracker) Channels() int { return len(t.res) }

// Observe folds one activation row (absolute values) into the tracker.
func (t *ChannelQuantileTracker) Observe(row []float32) {
	if len(row) != len(t.res) {
		panic("stats: ChannelQuantileTracker.Observe width mismatch")
	}
	for k, v := range row {
		if v < 0 {
			v = -v
		}
		t.res[k].Observe(v)
	}
}

// Quantiles returns the per-channel q-quantiles of |x_k|, clamped below by
// floor.
func (t *ChannelQuantileTracker) Quantiles(q float64, floor float32) []float32 {
	out := make([]float32, len(t.res))
	for k, rv := range t.res {
		v := float32(rv.Quantile(q))
		if v < floor {
			v = floor
		}
		out[k] = v
	}
	return out
}
