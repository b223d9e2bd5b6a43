package analog

import (
	"testing"

	"nora/internal/rng"
	"nora/internal/tensor"
)

// The two-phase read (MVMBatchInto / AnalogLinear.forward) promises that a
// block of T rows reads BIT-IDENTICALLY to T single-row reads in order, for
// every read mode. These tests pin that promise at the tile level (a block
// vs T MVMRow calls) and at the layer level (how rows are grouped into
// calls and 64-row chunks, rescaling on/off).

// TestMVMBatchIntoMatchesRowLoop drives two identically programmed tiles —
// one through MVMBatchInto, one through a loop of single-row MVMRow reads —
// with identically seeded noise streams, across every read mode and several
// block shapes.
func TestMVMBatchIntoMatchesRowLoop(t *testing.T) {
	for name, cfg := range determinismConfigs() {
		cfg.TileRows, cfg.TileCols = 64, 64
		w := randMat(81, 24, 18)
		var ta, tb mvmTile
		if cfg.WeightSlices > 1 {
			ta = NewSlicedTile(cfg, w, cfg.WeightSlices, 4, rng.New(82))
			tb = NewSlicedTile(cfg, w, cfg.WeightSlices, 4, rng.New(82))
		} else {
			ta = NewTile(cfg, w, rng.New(82))
			tb = NewTile(cfg, w, rng.New(82))
		}
		ra, rb := rng.New(83), rng.New(83)
		for _, rows := range []int{1, 3, 7} {
			xs := randMat(uint64(84+rows), rows, 24)
			got := tensor.New(rows, 18)
			ta.MVMBatchInto(1, got, xs, ra)
			requireBitsEqual(t, name, got, rowLoop(tb, xs, rb))
		}
	}
}

// rowLoop reads the rows of xs one MVMRow call at a time, in order.
func rowLoop(tile mvmTile, xs *tensor.Matrix, r *rng.Rand) *tensor.Matrix {
	out := tensor.New(xs.Rows, tile.Cols())
	for i := 0; i < xs.Rows; i++ {
		copy(out.Row(i), tile.MVMRow(xs.Row(i), r))
	}
	return out
}

// TestMVMBatchIntoSilentRows: rows whose α is zero must contribute nothing
// and — exactly like a single-row read of them — consume no noise draws, so
// the streams of the two reads stay aligned across silent rows.
func TestMVMBatchIntoSilentRows(t *testing.T) {
	cfg := determinismConfigs()["paper"]
	cfg.TileRows, cfg.TileCols = 64, 64
	w := randMat(86, 24, 18)
	ta := NewTile(cfg, w, rng.New(87))
	tb := NewTile(cfg, w, rng.New(87))
	ra, rb := rng.New(88), rng.New(88)

	xs := randMat(89, 4, 24)
	for k := range xs.Row(1) { // silence row 1
		xs.Row(1)[k] = 0
	}
	got := tensor.New(4, 18)
	ta.MVMBatchInto(1, got, xs, ra)
	requireBitsEqual(t, "silent-row", got, rowLoop(tb, xs, rb))
	for j, v := range got.Row(1) {
		if v != 0 {
			t.Fatalf("silent row produced non-zero output at col %d: %v", j, v)
		}
	}
	// Both streams must be in lockstep afterwards.
	if av, bv := ra.NormFloat64(), rb.NormFloat64(); av != bv {
		t.Fatalf("noise streams diverged after silent row: %v vs %v", av, bv)
	}
}

// forwardInPieces forwards x through l in calls of at most piece rows.
func forwardInPieces(l *AnalogLinear, x *tensor.Matrix, piece int) *tensor.Matrix {
	out := tensor.New(x.Rows, l.OutDim())
	for lo := 0; lo < x.Rows; lo += piece {
		hi := min(lo+piece, x.Rows)
		l.ForwardInto(out.SliceRows(lo, hi), x.SliceRows(lo, hi))
	}
	return out
}

// TestForwardBatchSizeInvariance pins the layer-level contract: a block of
// 2·64+2 rows (three chunks) reads bit-identically whether it arrives as one
// call, as single-row calls, or in calls that cut the chunks unevenly —
// across every read mode, with and without NORA rescaling.
func TestForwardBatchSizeInvariance(t *testing.T) {
	const in, out, rows = 40, 30, 2*chunkRows + 2
	w := randMat(91, in, out)
	bias := randVec(92, out)
	sv := randVec(93, in)
	for i := range sv {
		sv[i] = 0.5 + sv[i]*sv[i]
	}
	x := randMat(94, rows, in)
	for name, cfg := range determinismConfigs() {
		for _, rescale := range []bool{false, true} {
			s := []float32(nil)
			if rescale {
				s = sv
			}
			want := forwardInPieces(NewAnalogLinear("l", w, bias, s, cfg, rng.New(95)), x, 1)
			for _, piece := range []int{3, chunkRows - 1, rows} {
				l := NewAnalogLinear("l", w, bias, s, cfg, rng.New(95))
				requireBitsEqual(t, name, forwardInPieces(l, x, piece), want)
			}
		}
	}
}
