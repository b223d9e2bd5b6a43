package tensor

import (
	"math"
	"testing"

	"nora/internal/rng"
)

// The kernels of kernel_amd64.s promise the bits of their portable twins in
// kernel_generic.go. These tests hold them to it at the edges: every column
// tail (32-, 8- and 1-wide), k-panel boundaries, sparse and all-zero inputs,
// ±0, subnormals and, for AbsMaxVec and QuantizeUnitInto, the special values
// and rounding ties the packed lanes must treat exactly as scalar code. On a
// platform without the assembly kernels both sides would be the twin, so
// the tests skip.

// macWidths are the column counts the panel tests cover: 0–70 hits every
// tail combination, 96, 128 and 192 the zoo's full-width blocks.
func macWidths() []int {
	var ns []int
	for n := 0; n <= 70; n++ {
		ns = append(ns, n)
	}
	return append(ns, 96, 128, 192)
}

// edgeValue returns a random float32 that is zero (±0) with probability
// 1−density, and otherwise a finite value drawn from a mix of normal
// magnitudes across 24 binades and subnormals.
func edgeValue(r *rng.Rand, density float32) float32 {
	if r.Float32() >= density {
		if r.Intn(2) == 0 {
			return float32(math.Copysign(0, -1))
		}
		return 0
	}
	sign := float32(1)
	if r.Intn(2) == 0 {
		sign = -1
	}
	if r.Intn(16) == 0 {
		return sign * math.Float32frombits(uint32(1+r.Intn(1<<23-1))) // subnormal
	}
	return sign * (0.5 + r.Float32()) * float32(math.Exp2(float64(r.Intn(24)-12)))
}

func edgeSlice(r *rng.Rand, n int, density float32) []float32 {
	v := make([]float32, n)
	for i := range v {
		v[i] = edgeValue(r, density)
	}
	return v
}

func requireSameBits(t *testing.T, what string, got, want []float32) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: len %d, want %d", what, len(got), len(want))
	}
	for j := range got {
		if math.Float32bits(got[j]) != math.Float32bits(want[j]) {
			t.Fatalf("%s: [%d] = %v (bits %08x), want %v (bits %08x)",
				what, j, got[j], math.Float32bits(got[j]), want[j], math.Float32bits(want[j]))
		}
	}
}

// TestMACPanelsMatchGeneric pins macPanel and macAbsPanel to their twins on
// every width, several panel depths and row strides, and input densities
// 1, 0.3, 0.05 and 0 (an all-zero row). The accumulators start from random
// partial sums, ±0 and subnormals included. The fused kernel's two outputs
// must also equal two separate panel passes, the second over |x| computed
// the way the read path used to (−x for negative x, so −0 stays −0).
func TestMACPanelsMatchGeneric(t *testing.T) {
	packedOrSkip(t)
	r := rng.New(0xACC5)
	for _, density := range []float32{1, 0.3, 0.05, 0} {
		for _, n := range macWidths() {
			for _, kc := range []int{1, 2, 7, 33} {
				ld := n
				if kc%2 == 1 {
					ld = n + 5 // a panel of a wider matrix
				}
				x := edgeSlice(r, kc, density)
				w := edgeSlice(r, kc*ld, 1)
				aw := make([]float32, len(w))
				for i, v := range w {
					aw[i] = float32(math.Abs(float64(v)))
				}
				z0 := edgeSlice(r, n, 0.5)
				l0 := edgeSlice(r, n, 0.5)

				got := append([]float32(nil), z0...)
				want := append([]float32(nil), z0...)
				macPanel(got, x, w, ld)
				macPanelGeneric(want, x, w, ld)
				requireSameBits(t, "macPanel", got, want)

				gz, gl := append([]float32(nil), z0...), append([]float32(nil), l0...)
				wz, wl := append([]float32(nil), z0...), append([]float32(nil), l0...)
				macAbsPanel(gz, gl, x, w, aw, ld)
				macAbsPanelGeneric(wz, wl, x, w, aw, ld)
				requireSameBits(t, "macAbsPanel z", gz, wz)
				requireSameBits(t, "macAbsPanel load", gl, wl)

				xabs := make([]float32, kc)
				for k, v := range x {
					if v < 0 {
						v = -v
					}
					xabs[k] = v
				}
				sl := append([]float32(nil), l0...)
				macPanel(sl, xabs, aw, ld)
				requireSameBits(t, "fused z vs panel", gz, got)
				requireSameBits(t, "fused load vs |x| panel", gl, sl)
			}
		}
	}
}

// refMatMul is the order-defining reference for the blocked products: the
// portable panel twin over the whole k range at once, with no k-panels.
func refMatMul(a, b *Matrix) *Matrix {
	out := New(a.Rows, b.Cols)
	for i := 0; i < a.Rows; i++ {
		macPanelGeneric(out.Row(i), a.Row(i), b.Data, b.Cols)
	}
	return out
}

func edgeMatrix(r *rng.Rand, rows, cols int, density float32) *Matrix {
	return &Matrix{Rows: rows, Cols: cols, Data: edgeSlice(r, rows*cols, density)}
}

// TestBlockedProductsAcrossPanels runs MatMulSerialInto and
// MatMulAbsSerialInto with inner dimensions on both sides of one and two
// k-panel boundaries (kPanelFor(n) rows for the plain product, kPanelFor(2n)
// for the fused one), and an all-zero input row, against the unpanelled
// reference.
func TestBlockedProductsAcrossPanels(t *testing.T) {
	r := rng.New(0xB10C)
	for _, n := range []int{9, 40, 64, 96, 192} {
		for _, kc := range []int{kPanelFor(n), kPanelFor(2 * n)} {
			for _, k := range []int{kc - 1, kc, kc + 1, 2*kc + 3} {
				for _, density := range []float32{1, 0.3, 0.05} {
					a := edgeMatrix(r, 5, k, density)
					clear(a.Row(2))
					b := edgeMatrix(r, k, n, 1)
					absB := Apply(b, func(v float32) float32 { return float32(math.Abs(float64(v))) })
					absA := Apply(a, func(v float32) float32 { return float32(math.Abs(float64(v))) })

					got := New(5, n)
					MatMulSerialInto(got, a, b)
					bitsEqual(t, "MatMulSerialInto", got, refMatMul(a, b))

					z, load := New(5, n), New(5, n)
					MatMulAbsSerialInto(z, load, a, b, absB)
					bitsEqual(t, "MatMulAbsSerialInto z", z, refMatMul(a, b))
					bitsEqual(t, "MatMulAbsSerialInto load", load, refMatMul(absA, absB))

					vz, vl := make([]float32, n), make([]float32, n)
					VecMulAbsInto(vz, vl, a.Row(0), b, absB)
					requireSameBits(t, "VecMulAbsInto z", vz, z.Row(0))
					requireSameBits(t, "VecMulAbsInto load", vl, load.Row(0))
				}
			}
		}
	}
}

// TestAbsMaxVecEdges places NaN, ±0, ±subnormals and ±Inf at every lane
// position of the packed blocks and of the scalar tail, over backgrounds of
// random values, zeros and NaNs. The result must match the scalar loop's
// bits: NaN is skipped (x > mx is false), so the packed VMAXPS must keep the
// running maximum when its other operand is NaN.
func TestAbsMaxVecEdges(t *testing.T) {
	packedOrSkip(t)
	r := rng.New(0xAB5)
	nan := float32(math.NaN())
	negNaN := math.Float32frombits(math.Float32bits(nan) | 1<<31)
	specials := []float32{
		nan, negNaN, 0, float32(math.Copysign(0, -1)),
		math.Float32frombits(1), -math.Float32frombits(0x7fffff),
		float32(math.Inf(1)), float32(math.Inf(-1)),
	}
	backgrounds := []func(int) []float32{
		func(n int) []float32 { return edgeSlice(r, n, 0.7) },
		func(n int) []float32 { return make([]float32, n) },
		func(n int) []float32 {
			v := make([]float32, n)
			for i := range v {
				v[i] = nan
			}
			return v
		},
	}
	for n := 0; n <= 41; n++ {
		for bi, bg := range backgrounds {
			base := bg(n)
			requireSameBits(t, "AbsMaxVec background", []float32{AbsMaxVec(base)}, []float32{absMaxFrom(0, base)})
			for p := 0; p < n; p++ {
				for _, sp := range specials {
					v := append([]float32(nil), base...)
					v[p] = sp
					got, want := AbsMaxVec(v), absMaxFrom(0, v)
					if math.Float32bits(got) != math.Float32bits(want) {
						t.Fatalf("n=%d background %d: %v at %d: AbsMaxVec = %v, scalar %v", n, bi, sp, p, got, want)
					}
				}
			}
		}
	}
}

// TestQuantizeUnitIntoEdges converts every exact tie (m+½)/half for m in
// [−half, half] and both float32 neighbours of each tie, q = ±1 and just
// beyond, ±0, subnormals and the smallest normals, ±Inf and NaN, at each
// rotation so every value visits every packed lane and the scalar tail.
func TestQuantizeUnitIntoEdges(t *testing.T) {
	packedOrSkip(t)
	for _, half := range []float32{1, 2, 4, 64, 128, 1024} {
		inv := 1 / half
		var vals []float32
		for m := -half; m <= half; m++ {
			tie := (m + 0.5) / half
			vals = append(vals, tie,
				math.Nextafter32(tie, float32(math.Inf(1))),
				math.Nextafter32(tie, float32(math.Inf(-1))))
		}
		vals = append(vals, 1, -1, math.Nextafter32(1, 2), math.Nextafter32(-1, -2),
			math.Nextafter32(1, 0), math.Nextafter32(-1, 0), 1.5, -7,
			0, float32(math.Copysign(0, -1)),
			math.Float32frombits(1), -math.Float32frombits(1),
			math.Float32frombits(0x00800000), -math.Float32frombits(0x00800000),
			1e-30, -1e-30,
			float32(math.Inf(1)), float32(math.Inf(-1)), float32(math.NaN()))
		for _, scale := range []float32{1, 2, 0.75} {
			// Scale 1 and 2 keep the ties exact through the division;
			// 0.75 moves them off the grid.
			src := make([]float32, len(vals))
			for i, v := range vals {
				src[i] = v * scale
			}
			for rot := 0; rot < 9; rot++ {
				s := append(append([]float32(nil), src[rot:]...), src[:rot]...)
				got := make([]float32, len(s))
				want := make([]float32, len(s))
				QuantizeUnitInto(got, s, scale, half, inv)
				quantizeUnitGeneric(want, s, scale, half, inv)
				requireSameBits(t, "QuantizeUnitInto", got, want)
			}
		}
	}
}

// TestADCInPlaceEdges runs ADCInPlace against its twin at every width of
// macWidths. The background holds only values that do not saturate: every
// tie (m+½)/half·bound with both float32 neighbours, ±0, subnormals, the
// neighbours of ±limit that lie inside it, and NaN. Each run then puts the
// only saturating element (±limit, ±bound and their outer neighbours, ±Inf)
// at each position in turn, so it visits every packed lane and the scalar
// tail; the outputs and the saturation flag must match.
func TestADCInPlaceEdges(t *testing.T) {
	packedOrSkip(t)
	inf := float32(math.Inf(1))
	for _, c := range []struct{ half, bound float32 }{{1, 1}, {4, 2}, {64, 1}, {128, 3}, {1024, 0.75}} {
		half, bound := c.half, c.bound
		inv := 1 / half
		limit := bound * 0.999
		var calm []float32
		for m := -half; m < half; m++ {
			tie := (m + 0.5) / half * bound
			calm = append(calm, tie, math.Nextafter32(tie, inf), math.Nextafter32(tie, -inf))
		}
		calm = append(calm, 0, float32(math.Copysign(0, -1)),
			math.Float32frombits(1), -math.Float32frombits(1),
			math.Float32frombits(0x00800000), -math.Float32frombits(0x007fffff),
			math.Nextafter32(limit, 0), math.Nextafter32(-limit, 0), float32(math.NaN()))
		hot := []float32{limit, -limit, math.Nextafter32(limit, inf), math.Nextafter32(-limit, -inf),
			bound, -bound, math.Nextafter32(bound, inf), math.Nextafter32(-bound, -inf),
			math.Nextafter32(bound, 0), math.Nextafter32(-bound, 0), inf, -inf}
		run := func(what string, src []float32) {
			t.Helper()
			got := append([]float32(nil), src...)
			want := append([]float32(nil), src...)
			gs := ADCInPlace(got, limit, bound, half, inv)
			ws := adcGeneric(want, limit, bound, half, inv)
			requireSameBits(t, what, got, want)
			if gs != ws {
				t.Fatalf("%s: saturated %v, twin %v", what, gs, ws)
			}
		}
		for _, n := range macWidths() {
			base := make([]float32, n)
			for i := range base {
				base[i] = calm[(i*7+n)%len(calm)]
			}
			run("ADCInPlace calm", base)
			for p := 0; p < n; p++ {
				v := append([]float32(nil), base...)
				v[p] = hot[(p+n)%len(hot)]
				run("ADCInPlace one saturating", v)
			}
		}
	}
}

// TestIRDropInPlaceEdges drives the attenuation att = (drop·load)·invRows
// to exactly 0.9 and to its float32 neighbours on each side, where the
// clamp switches, in every lane and the scalar tail, among random loads,
// ±0, subnormals and a NaN load or output.
func TestIRDropInPlaceEdges(t *testing.T) {
	packedOrSkip(t)
	r := rng.New(0x1D0)
	nine := float32(0.9)
	edges := []float32{nine, math.Nextafter32(nine, 0), math.Nextafter32(nine, 1), 0.5, 2, 0,
		float32(math.Copysign(0, -1)), math.Float32frombits(1)}
	for _, c := range []struct{ drop, invRows float32 }{{1, 1}, {0.05, 1.0 / 64}, {0.5 * 0.05, 1.0 / 96}} {
		for _, n := range macWidths() {
			z := edgeSlice(r, n, 0.9)
			load := make([]float32, n)
			for i := range load {
				// drop·invRows is exact for these pairs up to one rounding,
				// so att lands on or next to the edge value.
				load[i] = edges[(i+n)%len(edges)] / c.invRows / c.drop
				if r.Intn(3) == 0 {
					load[i] = r.Float32() * 40 / c.drop
				}
			}
			if n > 2 {
				load[n/2] = float32(math.NaN())
				z[n-1] = float32(math.NaN())
			}
			got, want := append([]float32(nil), z...), append([]float32(nil), z...)
			IRDropInPlace(got, load, c.drop, c.invRows)
			irDropGeneric(want, load, c.drop, c.invRows)
			requireSameBits(t, "IRDropInPlace", got, want)
		}
	}
	// With drop = invRows = 1 att is the load itself: exactly 0.9 and its
	// neighbours at every position.
	for _, n := range macWidths() {
		for p := 0; p < n; p++ {
			z := edgeSlice(r, n, 1)
			load := edgeSlice(r, n, 0.5)
			for i := range load {
				load[i] = float32(math.Abs(float64(load[i]))) * 0.1
			}
			load[p] = edges[p%3]
			got, want := append([]float32(nil), z...), append([]float32(nil), z...)
			IRDropInPlace(got, load, 1, 1)
			irDropGeneric(want, load, 1, 1)
			requireSameBits(t, "IRDropInPlace at 0.9", got, want)
		}
	}
}

// TestRescaleAddIntoEdges compares the packed rescale with its twin on
// random operands with ±0 and subnormals in dst, c and z, and scalar
// factors from ordinary values down to a subnormal and −0.
func TestRescaleAddIntoEdges(t *testing.T) {
	packedOrSkip(t)
	r := rng.New(0x5CA1E)
	factors := []float32{1, 0.37, 3.5e3, -2, math.Float32frombits(1), float32(math.Copysign(0, -1))}
	for _, n := range macWidths() {
		for i, coef := range factors {
			alpha := factors[(i+1)%len(factors)]
			drift := factors[(i+2)%len(factors)]
			if i%2 == 0 {
				drift = 1
			}
			dst := edgeSlice(r, n, 0.7)
			c := edgeSlice(r, n, 0.9)
			z := edgeSlice(r, n, 0.8)
			got, want := append([]float32(nil), dst...), append([]float32(nil), dst...)
			RescaleAddInto(got, c, z, coef, alpha, drift)
			rescaleAddGeneric(want, c, z, coef, alpha, drift)
			requireSameBits(t, "RescaleAddInto", got, want)
		}
	}
}
