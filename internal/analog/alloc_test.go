//go:build !race

// Allocation-count assertions are meaningless under the race detector
// (instrumentation allocates), so this file is excluded from -race runs.

package analog

import (
	"testing"

	"nora/internal/rng"
	"nora/internal/tensor"
)

// TestForwardIntoSteadyStateAllocs: a whole-layer ForwardInto should only
// touch the scratch pool (amortized zero); tolerate the occasional pool
// refill after a GC.
func TestForwardIntoSteadyStateAllocs(t *testing.T) {
	cfg := determinismConfigs()["paper"]
	w := randMat(71, 40, 30)
	l := NewAnalogLinear("l", w, nil, nil, cfg, rng.New(72))
	x := randMat(73, 2, 40)
	out := tensor.New(2, 30)
	l.ForwardInto(out, x) // prime the pool
	if avg := testing.AllocsPerRun(50, func() {
		l.ForwardInto(out, x)
	}); avg > 0.5 {
		t.Errorf("ForwardInto allocates %.2f/op in steady state, want ~0", avg)
	}
}

// TestMVMBatchIntoZeroAllocs pins the zero-allocation gate on the tile
// read: once the arenas have converged, MVMBatchInto must not allocate in
// any read mode — bound management, bit-serial streaming, input noise and
// weight slicing included.
func TestMVMBatchIntoZeroAllocs(t *testing.T) {
	for name, cfg := range determinismConfigs() {
		cfg.TileRows, cfg.TileCols = 64, 64
		w := randMat(61, 48, 32)
		var tile mvmTile
		if cfg.WeightSlices > 1 {
			tile = NewSlicedTile(cfg, w, cfg.WeightSlices, 4, rng.New(62))
		} else {
			tile = NewTile(cfg, w, rng.New(62))
		}
		xs := randMat(63, 5, 48)
		out := tensor.New(5, 32)
		r := rng.New(64)
		tile.MVMBatchInto(1, out, xs, r) // prime the arenas
		if avg := testing.AllocsPerRun(100, func() {
			tile.MVMBatchInto(1, out, xs, r)
		}); avg != 0 {
			t.Errorf("%s: MVMBatchInto allocates %.2f/op, want 0", name, avg)
		}
	}
}

// TestForwardBatchedSteadyStateAllocs gates the forward across multiple
// chunks of a multi-tile grid (2·64+2 rows → 3 chunks per call).
func TestForwardBatchedSteadyStateAllocs(t *testing.T) {
	const rows = 2*chunkRows + 2
	cfg := determinismConfigs()["paper"]
	w := randMat(71, 40, 30)
	l := NewAnalogLinear("l", w, nil, nil, cfg, rng.New(72))
	x := randMat(73, rows, 40)
	out := tensor.New(rows, 30)
	l.ForwardInto(out, x) // prime the pools
	if avg := testing.AllocsPerRun(50, func() {
		l.ForwardInto(out, x)
	}); avg > 0.5 {
		t.Errorf("batched ForwardInto allocates %.2f/op in steady state, want ~0", avg)
	}
}
