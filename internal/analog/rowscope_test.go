package analog

import (
	"fmt"
	"testing"

	"nora/internal/nn"
	"nora/internal/rng"
	"nora/internal/tensor"
)

// ForwardIntoRowScoped promises that row i of a mixed-scope batch is
// BIT-IDENTICAL to a single-row ForwardInto on scopes[i] — the property
// that lets a continuous-batching decode step share one blocked MAC across
// requests without entangling their noise streams. Pinned here across every
// read mode (including the bit-serial and input-noise reads, which have no
// phase-1 MAC), with rescaling, bias, and multi-tile grids in play.
func TestForwardIntoRowScopedMatchesPerScopeRows(t *testing.T) {
	const in, out, rows = 40, 30, 5
	w := randMat(301, in, out)
	bias := randVec(302, out)
	s := make([]float32, in)
	for k := range s {
		s[k] = 0.5 + float32(k%5)*0.3
	}
	x := randMat(303, rows, in)
	for name, cfg := range determinismConfigs() {
		la := NewAnalogLinear("l", w, bias, s, cfg, rng.New(304))
		lb := NewAnalogLinear("l", w, bias, s, cfg, rng.New(304))

		scopesA := make([]nn.LinearOp, rows)
		for i := range scopesA {
			scopesA[i] = la.WithNoiseScope(fmt.Sprintf("req%d", i))
		}
		got := tensor.New(rows, out)
		la.ForwardIntoRowScoped(got, x, scopesA)

		want := tensor.New(rows, out)
		for i := 0; i < rows; i++ {
			view := lb.WithNoiseScope(fmt.Sprintf("req%d", i)).(*AnalogLinear)
			dst := tensor.FromSlice(1, out, want.Data[i*out:(i+1)*out])
			src := tensor.FromSlice(1, in, x.Data[i*in:(i+1)*in])
			view.ForwardInto(dst, src)
		}
		requireBitsEqual(t, name, got, want)
	}
}

// A sequence's rows must see the same noise whether its scope appears alone
// or mixed into a batch with other scopes — per-request purity under
// continuous batching.
func TestForwardIntoRowScopedBatchCompositionIndependence(t *testing.T) {
	cfg := determinismConfigs()["paper"]
	const in, out = 24, 18
	w := randMat(310, in, out)
	x := randMat(311, 3, in)

	mk := func() *AnalogLinear { return NewAnalogLinear("l", w, nil, nil, cfg, rng.New(312)) }

	// Alone: scope "A" reads one row as a batch of one.
	la := mk()
	alone := tensor.New(1, out)
	la.ForwardIntoRowScoped(alone, x.SliceRows(0, 1), []nn.LinearOp{la.WithNoiseScope("A")})

	// Mixed: the identical row read under scope "A" again, but surrounded
	// by two other scopes' rows inside one batch.
	lb := mk()
	mixed := tensor.New(3, out)
	xs := tensor.New(3, in)
	copy(xs.Row(0), x.Row(1))
	copy(xs.Row(1), x.Row(0))
	copy(xs.Row(2), x.Row(2))
	lb.ForwardIntoRowScoped(mixed, xs, []nn.LinearOp{
		lb.WithNoiseScope("B"),
		lb.WithNoiseScope("A"),
		lb.WithNoiseScope("C"),
	})
	requireBitsEqual(t, "scope A alone vs mixed", alone, mixed.SliceRows(1, 2))
}

// Scope views of a different layer must be rejected — silently accepting
// them would read the wrong tiles' noise.
func TestForwardIntoRowScopedRejectsForeignScope(t *testing.T) {
	cfg := determinismConfigs()["ideal"]
	w := randMat(320, 8, 6)
	la := NewAnalogLinear("a", w, nil, nil, cfg, rng.New(321))
	lb := NewAnalogLinear("b", w, nil, nil, cfg, rng.New(322))
	x := randMat(323, 1, 8)
	out := tensor.New(1, 6)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on foreign scope view")
		}
	}()
	la.ForwardIntoRowScoped(out, x, []nn.LinearOp{lb.WithNoiseScope("x")})
}
