package main

import (
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"
)

func TestPercentileInterpolatesBetweenRanks(t *testing.T) {
	d := dist{40, 10, 30, 20} // sorted: 10 20 30 40
	cases := []struct{ p, want float64 }{
		{0, 10}, {50, 25}, {90, 37}, {100, 40}, {25, 17.5},
	}
	for _, c := range cases {
		if got := d.percentile(c.p); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("percentile(%g) = %g, want %g", c.p, got, c.want)
		}
	}
	if got := (dist{7}).percentile(90); got != 7 {
		t.Errorf("single sample: percentile(90) = %g, want 7", got)
	}
	if d[0] != 40 {
		t.Error("percentile must not reorder the caller's samples")
	}
}

func TestTailCountsSamplesBeyondPercentile(t *testing.T) {
	mk := func(n int) dist {
		d := make(dist, n)
		for i := range d {
			d[i] = float32(i)
		}
		return d
	}
	cases := []struct {
		n    int
		p    float64
		want int
	}{
		{100, 90, 10}, // position 89.1: samples 90..99 lie beyond
		{101, 90, 10}, // position 90: samples 91..100
		{92, 90, 10},  // position 81.9: samples 82..91
		{91, 90, 9},   // position 81: one short of the minimum
		{1000, 50, 500},
		{0, 90, 0},
	}
	for _, c := range cases {
		if got := mk(c.n).tail(c.p); got != c.want {
			t.Errorf("tail(n=%d, p%g) = %d, want %d", c.n, c.p, got, c.want)
		}
	}
}

func TestLatenessAgainstSchedule(t *testing.T) {
	t0 := time.Unix(100, 0)
	due := []time.Time{t0, t0.Add(10 * time.Millisecond), t0.Add(20 * time.Millisecond)}
	sent := []time.Time{t0.Add(500 * time.Microsecond), t0.Add(10 * time.Millisecond), t0.Add(19 * time.Millisecond)}
	got := lateness(due, sent)
	want := dist{0.5, 0, -1} // an early send stays visible as negative
	for i := range want {
		if math.Abs(float64(got[i]-want[i])) > 1e-6 {
			t.Errorf("lateness[%d] = %g ms, want %g", i, got[i], want[i])
		}
	}
}

func TestUnaccountedShare(t *testing.T) {
	// A scheduler inside steps for 7.5 s of a 10 s window leaves a quarter
	// of the window to no layer.
	if got := unaccountedShare(7500*time.Millisecond, 10*time.Second); math.Abs(got-0.25) > 1e-12 {
		t.Errorf("unaccountedShare = %g, want 0.25", got)
	}
	if got := unaccountedShare(10*time.Second, 10*time.Second); got != 0 {
		t.Errorf("fully accounted: unaccountedShare = %g, want 0", got)
	}
	// Layers that over-count show as negative instead of clamping.
	if got := unaccountedShare(11*time.Second, 10*time.Second); got >= 0 {
		t.Errorf("over-counted: unaccountedShare = %g, want negative", got)
	}
	if !math.IsNaN(unaccountedShare(time.Second, 0)) {
		t.Error("an empty window must yield NaN")
	}
}

func TestAttributionArithmetic(t *testing.T) {
	// Two sweep workers busy 15 s between them over a 10 s phase leave a
	// quarter of their capacity to no layer.
	if got := unaccountedShare(15*time.Second, 2*10*time.Second); math.Abs(got-0.25) > 1e-12 {
		t.Errorf("sweep unaccountedShare = %g, want 0.25", got)
	}
	if got := overheadShare(10, 11); math.Abs(got-0.1) > 1e-12 {
		t.Errorf("latency overhead = %g, want 0.1", got)
	}
	if got := overheadShare(10, 9.5); math.Abs(got+0.05) > 1e-12 {
		t.Errorf("a faster traced run: overhead = %g, want -0.05", got)
	}
}

func TestWindowsSplitThePhase(t *testing.T) {
	t0 := time.Unix(100, 0)
	w := newWindows(t0, 10*time.Second) // five 2 s windows
	cases := []struct {
		at   time.Duration
		want int
	}{
		{-time.Millisecond, -1}, // before the phase
		{0, 0},
		{1999 * time.Millisecond, 0},
		{2 * time.Second, 1},
		{9999 * time.Millisecond, 4},
		{10 * time.Second, -1}, // draining after the deadline
	}
	for _, c := range cases {
		if got := w.at(t0.Add(c.at)); got != c.want {
			t.Errorf("at(+%v) = %d, want %d", c.at, got, c.want)
		}
	}
	// Two slow windows out of five do not move the median.
	vals := []float64{10, 11, 12, 40, 90}
	if got := medianOver(func(i int) float64 { return vals[i] }); got != 12 {
		t.Errorf("medianOver = %g, want 12", got)
	}
}

func TestWindowedPercentileNeedsTailInEveryWindow(t *testing.T) {
	mk := func(n int, v float32) dist {
		d := make(dist, n)
		for i := range d {
			d[i] = v
		}
		return d
	}
	// 101 samples leave 10 beyond p90; 91 leave 9.
	ds := []dist{mk(101, 1), mk(101, 2), mk(101, 3), mk(101, 4), mk(91, 5)}
	p := &phase{}
	m := p.windowed("x_p90_ms", ds, 90)
	if m.value != 3 || m.samples != 495 {
		t.Errorf("windowed = %g over %d samples, want 3 over 495", m.value, m.samples)
	}
	if len(p.problems) != 1 {
		t.Errorf("problems = %q, want one for the short window", p.problems)
	}
}

func TestArrivalsFixTheCountPerWindow(t *testing.T) {
	const rate, windows = 25.0, 5
	d := 30 * time.Second
	got := arrivals(7, 3, rate, d, windows)
	if len(got) != 750 {
		t.Fatalf("%d arrivals, want 750 (150 in each 6 s window)", len(got))
	}
	width := d / windows
	for i, at := range got {
		if w := int(at / width); w != i/150 {
			t.Fatalf("arrival %d at %v falls in window %d, want %d", i, at, w, i/150)
		}
		if i > 0 && at < got[i-1] {
			t.Fatalf("arrival %d at %v precedes arrival %d at %v", i, at, i-1, got[i-1])
		}
	}
	again := arrivals(7, 3, rate, d, windows)
	other := arrivals(8, 3, rate, d, windows)
	if again[0] != got[0] || again[749] != got[749] {
		t.Error("the same seed must give the same schedule")
	}
	if other[0] == got[0] && other[749] == got[749] {
		t.Error("another seed must give another schedule")
	}
}

func TestCheckManifestMatchesNamesAndUnits(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCHMARK.json")
	manifest := `{"end_to_end": [{"name": "setup_s", "unit": "s"}, {"name": "tok_s", "unit": "tok/s"}],
		"per_layer": [{"name": "nn.forward_ms", "unit": "ms"}]}`
	if err := os.WriteFile(path, []byte(manifest), 0o644); err != nil {
		t.Fatal(err)
	}
	e2e := []metric{{name: "setup_s", unit: "s"}, {name: "tok_s", unit: "tok/s"}}
	if err := checkManifest(path, false, e2e); err != nil {
		t.Errorf("matching end-to-end metrics: %v", err)
	}
	if err := checkManifest(path, true, []metric{{name: "nn.forward_ms", unit: "ms"}}); err != nil {
		t.Errorf("matching per-layer metrics: %v", err)
	}
	for _, bad := range [][]metric{
		e2e[:1], // tok_s missing
		append(e2e[:2:2], metric{name: "seq_s", unit: "seq/s"}), // undeclared
		{{name: "setup_s", unit: "ms"}, e2e[1]},                 // wrong unit
	} {
		if err := checkManifest(path, false, bad); err == nil {
			t.Errorf("checkManifest(%v) passed, want an error", bad)
		}
	}
}
