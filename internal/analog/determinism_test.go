package analog

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"nora/internal/rng"
	"nora/internal/tensor"
)

// The zero-allocation read path (ForwardInto + pooled scratch + batched
// noise fills) promises results BIT-IDENTICAL to the historical
// allocate-per-read implementation. These tests pin that promise across
// every read mode: the reference below replays the old structure — per-tile
// MVMRow returning a fresh slice, digitally accumulated with Axpy — against
// the same noise stream, and all comparisons use Float32bits.

// determinismConfigs returns the read-mode matrix under small tiles so the
// layer maps onto a multi-tile grid (partial-sum accumulation included).
func determinismConfigs() map[string]Config {
	small := func(c Config) Config {
		c.TileRows, c.TileCols = 16, 12
		return c
	}
	paper := small(PaperPreset()) // bound management + differential pair
	noBM := small(PaperPreset())
	noBM.BoundManagement = false
	bits := small(PaperPreset())
	bits.BitSerial = true
	inNoise := small(PaperPreset())
	inNoise.InNoise = 0.02
	sliced := small(PaperPreset())
	sliced.WeightSlices = 2
	faulty := small(PaperPreset())
	faulty.FaultRate = 0.05
	faulty.FaultSA1Frac = 0.3
	faulty.GMaxStd = 0.05
	faulty.PVRetries = 2
	faulty.SpareCols = 2
	return map[string]Config{
		"ideal":     small(Ideal()),
		"paper":     paper,
		"no-bm":     noBM,
		"bitserial": bits,
		"innoise":   inNoise,
		"sliced":    sliced,
		"faulty":    faulty,
	}
}

// forwardReference replays the pre-pooling implementation on l: allocate a
// result per tile read (MVMRow), Axpy partial sums, materialize the
// rescaled input row. It consumes l.noise exactly as ForwardInto does.
func forwardReference(l *AnalogLinear, x *tensor.Matrix) *tensor.Matrix {
	out := tensor.New(x.Rows, l.out)
	for i := 0; i < x.Rows; i++ {
		row := x.Row(i)
		if l.invS != nil {
			scaled := make([]float32, len(row))
			for k, v := range row {
				scaled[k] = v * l.invS[k]
			}
			row = scaled
		}
		orow := out.Row(i)
		for rb := 0; rb+1 < len(l.rowOff); rb++ {
			slice := row[l.rowOff[rb]:l.rowOff[rb+1]]
			for cb := 0; cb+1 < len(l.colOff); cb++ {
				z := l.tiles[rb][cb].MVMRow(slice, l.noise)
				tensor.Axpy(1, z, orow[l.colOff[cb]:l.colOff[cb+1]])
			}
		}
	}
	if l.bias != nil {
		out.AddRowVecInPlace(l.bias)
	}
	return out
}

func requireBitsEqual(t *testing.T, what string, got, want *tensor.Matrix) {
	t.Helper()
	if !got.SameShape(want) {
		t.Fatalf("%s: shape %dx%d vs %dx%d", what, got.Rows, got.Cols, want.Rows, want.Cols)
	}
	for i, v := range got.Data {
		if math.Float32bits(v) != math.Float32bits(want.Data[i]) {
			t.Fatalf("%s: element %d: %v (bits %08x) vs %v (bits %08x)",
				what, i, v, math.Float32bits(v), want.Data[i], math.Float32bits(want.Data[i]))
		}
	}
}

func TestForwardBitIdenticalToPerTileReference(t *testing.T) {
	const in, out, rows = 40, 30, 3
	w := randMat(11, in, out)
	bias := randVec(12, out)
	s := randVec(13, in)
	for i := range s {
		s[i] = 0.5 + s[i]*s[i] // strictly positive NORA rescaling
	}
	x := randMat(14, rows, in)
	for name, cfg := range determinismConfigs() {
		for _, rescale := range []bool{false, true} {
			sv := []float32(nil)
			if rescale {
				sv = s
			}
			// Two identically seeded builds: one runs the optimized path,
			// one replays the historical reference against its own stream.
			opt := NewAnalogLinear("l", w, bias, sv, cfg, rng.New(900))
			ref := NewAnalogLinear("l", w, bias, sv, cfg, rng.New(900))
			got := opt.Forward(x)
			want := forwardReference(ref, x)
			requireBitsEqual(t, name, got, want)
			// Second call continues both noise streams in lockstep.
			requireBitsEqual(t, name+"/second-call", opt.Forward(x), forwardReference(ref, x))
		}
	}
}

// TestMVMBatchIntoAccumulatesLikeMVMRow pins the accumulate contract: a
// read into a pre-filled dst adds exactly what MVMRow returns for the same
// row and stream, with the same float32 rounding as base + y.
func TestMVMBatchIntoAccumulatesLikeMVMRow(t *testing.T) {
	for name, cfg := range determinismConfigs() {
		cfg.TileRows, cfg.TileCols = 64, 64
		w := randMat(21, 24, 18)
		var ta, tb mvmTile
		if cfg.WeightSlices > 1 {
			ta = NewSlicedTile(cfg, w, cfg.WeightSlices, 4, rng.New(31))
			tb = NewSlicedTile(cfg, w, cfg.WeightSlices, 4, rng.New(31))
		} else {
			ta = NewTile(cfg, w, rng.New(31))
			tb = NewTile(cfg, w, rng.New(31))
		}
		x := randVec(22, 24)
		base := randVec(23, 18)
		ra, rb := rng.New(5), rng.New(5)

		z := ta.MVMRow(x, ra)
		dst := tensor.FromSlice(1, 18, append([]float32(nil), base...))
		tb.MVMBatchInto(1, dst, tensor.FromSlice(1, 24, x), rb)
		for j, v := range dst.Data {
			want := base[j] + z[j]
			if math.Float32bits(v) != math.Float32bits(want) {
				t.Fatalf("%s: MVMBatchInto[%d] = %v, MVMRow accumulation = %v", name, j, v, want)
			}
		}
	}
}

// TestScopedForwardSerialVsParallel pins the engine's core guarantee: a
// scoped read stream is a pure function of (layer seed, label), so hammering
// many scoped forwards concurrently — all contending on the shared scratch
// pool — reproduces the serial results bit-for-bit. Run with -race to also
// certify the pool and counters.
func TestScopedForwardSerialVsParallel(t *testing.T) {
	cfg := determinismConfigs()["paper"]
	w := randMat(51, 40, 30)
	l := NewAnalogLinear("l", w, nil, nil, cfg, rng.New(901))
	x := randMat(52, 2, 40)

	labels := []string{"seq0", "seq1", "seq2", "seq3", "seq4", "seq5", "seq6", "seq7"}
	serial := make([]*tensor.Matrix, len(labels))
	for i, lb := range labels {
		serial[i] = l.WithNoiseScope(lb).Forward(x)
	}

	iters := 24
	if testing.Short() {
		iters = 6
	}
	errc := make(chan error, len(labels))
	var wg sync.WaitGroup
	for i, lb := range labels {
		wg.Add(1)
		go func(i int, lb string) {
			defer wg.Done()
			for it := 0; it < iters; it++ {
				got := l.WithNoiseScope(lb).Forward(x)
				for j, v := range got.Data {
					if math.Float32bits(v) != math.Float32bits(serial[i].Data[j]) {
						errc <- fmt.Errorf("scoped forward diverged from serial: label=%s iter=%d elem=%d", lb, it, j)
						return
					}
				}
			}
		}(i, lb)
	}
	wg.Wait()
	close(errc)
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
}
