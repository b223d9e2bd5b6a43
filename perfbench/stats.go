package main

import (
	"math"
	"time"

	"nora/internal/stats"
)

// minTail is the number of samples that must lie beyond a reported
// percentile; with fewer, the percentile is a few outliers, not a tail.
const minTail = 10

// dist is a sample of durations or values, kept raw so percentiles are
// computed from every sample instead of from histogram buckets.
type dist []float32

// percentile returns the p-th percentile (0 ≤ p ≤ 100) by linear
// interpolation between closest ranks, the definition numpy and Python's
// statistics.quantiles(method="inclusive") use.
func (d dist) percentile(p float64) float64 { return stats.Quantile(d, p/100) }

// tail returns how many samples rank strictly above the interpolation
// position of the p-th percentile: the support behind a reported tail.
func (d dist) tail(p float64) int {
	if len(d) == 0 {
		return 0
	}
	pos := int(math.Floor(p / 100 * float64(len(d)-1)))
	return len(d) - 1 - pos
}

// mean returns the arithmetic mean (NaN for an empty sample).
func (d dist) mean() float64 {
	if len(d) == 0 {
		return math.NaN()
	}
	var sum float64
	for _, v := range d {
		sum += float64(v)
	}
	return sum / float64(len(d))
}

// ms converts a duration to fractional milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// phaseWindows is how many equal sub-windows the predict workload cuts
// its measured phase into. Its latency percentiles are computed within
// every window and reported as the median over windows, so a slow stretch
// of the shared machine that covers fewer than half of the phase does not
// move them.
const phaseWindows = 5

// windows splits the measured phase [begin, begin+phaseWindows*width) into
// phaseWindows windows of equal width.
type windows struct {
	begin time.Time
	width time.Duration
}

func newWindows(begin time.Time, phase time.Duration) windows {
	return windows{begin, phase / phaseWindows}
}

// at returns the window t falls in, or -1 when t lies outside the phase.
func (w windows) at(t time.Time) int {
	if t.Before(w.begin) {
		return -1
	}
	if i := int(t.Sub(w.begin) / w.width); i < phaseWindows {
		return i
	}
	return -1
}

// medianOver returns the median over the windows of f(window).
func medianOver(f func(i int) float64) float64 {
	vals := make(dist, phaseWindows)
	for i := range vals {
		vals[i] = float32(f(i))
	}
	return vals.percentile(50)
}

// lateness returns, for an open-loop schedule, how late each request was
// handed to the program against the time it was due. Negative values (a
// send before its due time) are kept as measured: they would reveal a
// broken scheduler instead of hiding it.
func lateness(due, sent []time.Time) dist {
	out := make(dist, len(due))
	for i := range due {
		out[i] = float32(ms(sent[i].Sub(due[i])))
	}
	return out
}

// unaccountedShare is the share of total time that no layer's own
// accounting covers: total minus accounted, as a share of total. A negative
// result means the layers over-counted, and is returned as such.
func unaccountedShare(accounted, total time.Duration) float64 {
	if total <= 0 {
		return math.NaN()
	}
	return 1 - float64(accounted)/float64(total)
}

// overheadShare is how much higher (worse) the traced value of a
// lower-is-better metric is than the untraced one, as a share of the
// untraced value.
func overheadShare(untraced, traced float64) float64 {
	if untraced == 0 {
		return math.NaN()
	}
	return (traced - untraced) / untraced
}

// medianDuration returns the median of a non-empty duration sample.
func medianDuration(ds []time.Duration) time.Duration {
	s := make(dist, len(ds))
	for i, d := range ds {
		s[i] = float32(d)
	}
	return time.Duration(s.percentile(50))
}
