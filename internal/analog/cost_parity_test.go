package analog

import (
	"testing"

	"nora/internal/rng"
	"nora/internal/tensor"
)

// The cost engine's counters must be path-invariant: pricing an eval pass
// may never depend on how rows were grouped into a read. These tests pin
// that the OpCounters totals (including bound-management retries) of the
// two-phase read equal those of single-row reads, tile by tile.

// costParityConfigs is the determinism matrix plus a tight-ADC-bound
// variant that forces bound-management retries, so BMRetries parity is
// exercised by a nonzero count rather than trivially by 0 == 0.
func costParityConfigs() map[string]Config {
	cfgs := determinismConfigs()
	tight := cfgs["paper"]
	tight.OutBound = 0.5
	tight.BMMaxIter = 3
	cfgs["tight-bound"] = tight
	return cfgs
}

// TestCostCountersBatchParity runs the same forward workload — 2·64+2 rows,
// three chunks — through the layer and through forwardReference (per-tile
// single-row reads), and requires identical layer counter totals (and, as a
// sanity anchor, bit-identical outputs).
func TestCostCountersBatchParity(t *testing.T) {
	const in, out, rows = 40, 30, 2*chunkRows + 2
	w := randMat(771, in, out)
	bias := randVec(772, out)
	x := randMat(773, rows, in)

	sawRetries := false
	for name, cfg := range costParityConfigs() {
		ref := NewAnalogLinear("l", w, bias, nil, cfg, rng.New(774))
		want := forwardReference(ref, x)
		wantC := ref.CostCounters()
		if wantC.MVMs == 0 || wantC.DACConvs == 0 || wantC.ADCConvs == 0 || wantC.CellReads == 0 {
			t.Fatalf("%s: reference recorded no events: %+v", name, wantC)
		}
		if wantC.BMRetries > 0 {
			sawRetries = true
		}
		l := NewAnalogLinear("l", w, bias, nil, cfg, rng.New(774))
		requireBitsEqual(t, name, l.Forward(x), want)
		if got := l.CostCounters(); got != wantC {
			t.Errorf("%s: counters diverged:\n  layer:     %+v\n  reference: %+v", name, got, wantC)
		}
		if got := l.RowsProcessed(); got != rows {
			t.Errorf("%s: rows processed %d, want %d", name, got, rows)
		}
		if got, w := l.DigitalEquivalentMACs(), int64(rows*in*out); got != w {
			t.Errorf("%s: MAC equivalent %d, want %d", name, got, w)
		}
	}
	if !sawRetries {
		t.Fatal("no config produced bound-management retries; tighten tight-bound so BMRetries parity is actually exercised")
	}
}

// TestCostCountersTileParity pins the same invariant one level down, at the
// tile: a block read and a loop of single-row MVMRow reads on identically
// programmed tiles record identical counters.
func TestCostCountersTileParity(t *testing.T) {
	for name, cfg := range costParityConfigs() {
		if cfg.WeightSlices > 1 {
			continue // sliced tiles carry counters per slice plane; covered at layer level
		}
		cfg.TileRows, cfg.TileCols = 64, 64
		w := randMat(781, 24, 18)
		ta := NewTile(cfg, w, rng.New(782))
		tb := NewTile(cfg, w, rng.New(782))
		ra, rb := rng.New(783), rng.New(783)

		const rows = 5
		xs := randMat(784, rows, 24)
		got := tensor.New(rows, 18)
		ta.MVMBatchInto(1, got, xs, ra)
		requireBitsEqual(t, name, got, rowLoop(tb, xs, rb))
		if ca, cb := ta.Counters().Snapshot(), tb.Counters().Snapshot(); ca != cb {
			t.Errorf("%s: tile counters diverged:\n  block: %+v\n  rows:  %+v", name, ca, cb)
		}
	}
}
