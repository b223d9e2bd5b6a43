package rng

import (
	"math"
	"testing"
)

// checkBoxMullerBlock runs boxMullerBlock over the pairs (u[k], v[k]),
// padded to a multiple of four pairs, and requires every normal to equal
// both normPair's scalar transform boxMuller and the portable twin
// boxMullerGeneric, bit for bit in float64.
func checkBoxMullerBlock(t *testing.T, u, v []float64) {
	t.Helper()
	for len(u)%4 != 0 {
		u, v = append(u, 0.5), append(v, 0)
	}
	gu, gv := append([]float64(nil), u...), append([]float64(nil), v...)
	boxMullerBlock(gu, gv)
	tu, tv := append([]float64(nil), u...), append([]float64(nil), v...)
	boxMullerGeneric(tu, tv)
	for k := range u {
		c, s := boxMuller(u[k], v[k])
		for _, o := range [][3]float64{{gu[k], tu[k], c}, {gv[k], tv[k], s}} {
			if math.Float64bits(o[0]) != math.Float64bits(o[2]) ||
				math.Float64bits(o[1]) != math.Float64bits(o[2]) {
				t.Fatalf("u=%v (%#x) v=%v (%#x): kernel %v, twin %v, scalar %v",
					u[k], math.Float64bits(u[k]), v[k], math.Float64bits(v[k]), o[0], o[1], o[2])
			}
		}
	}
}

// pairsOf pairs every u with every v.
func pairsOf(us, vs []float64) (u, v []float64) {
	for _, a := range us {
		for _, b := range vs {
			u, v = append(u, a), append(v, b)
		}
	}
	return u, v
}

// ulpWalk returns x and its n nearest neighbours on each side within
// [lo, hi).
func ulpWalk(x float64, n int, lo, hi float64) []float64 {
	var out []float64
	if x >= lo && x < hi {
		out = append(out, x)
	}
	down, up := x, x
	for i := 0; i < n; i++ {
		down = math.Nextafter(down, math.Inf(-1))
		up = math.Nextafter(up, math.Inf(1))
		if down >= lo && down < hi {
			out = append(out, down)
		}
		if up >= lo && up < hi {
			out = append(out, up)
		}
	}
	return out
}

// TestBoxMullerBlockEdgeInputs drives the kernel through the inputs where
// a packed replay of math.Log and math.Sincos would diverge first:
//   - the ends of the uniform range, u = 2^-53 and u = 1−2^-53;
//   - a frexp mantissa of exactly √2/2 and its neighbours in every binade
//     of [2^-53, 1), where archLog's fix-up compare flips, plus the binade
//     edges themselves;
//   - v = 0, where Sincos(0) returns its special case;
//   - ±500 ulps of v around every octant boundary v = k/8 (x = k·π/4),
//     where the odd-octant fix-up, swap and sign flips change, and the
//     first 500 lattice points above v = 0.
func TestBoxMullerBlockEdgeInputs(t *testing.T) {
	const lo, hi = 0x1p-53, 1.0
	us := []float64{lo, 1 - lo, 0.5, math.Nextafter(0.5, 0), 0.3}
	for e := -53; e < 0; e++ {
		us = append(us, ulpWalk(math.Ldexp(math.Sqrt2/2, e+1), 3, lo, hi)...)
		us = append(us, ulpWalk(math.Ldexp(1, e), 1, lo, hi)...)
	}
	sparseV := []float64{0, 0.125, 0.3, 1 - lo}
	checkBoxMullerBlock(t, us, make([]float64, len(us)))
	u, v := pairsOf(us, sparseV)
	checkBoxMullerBlock(t, u, v)

	var vs []float64
	for k := 0; k <= 8; k++ {
		vs = append(vs, ulpWalk(float64(k)/8, 500, 0, 1)...)
	}
	for i := 1; i <= 500; i++ {
		vs = append(vs, float64(i)*lo)
	}
	u, v = pairsOf([]float64{lo, 0.3, 0.5, 1 - lo}, vs)
	checkBoxMullerBlock(t, u, v)
}

// TestBoxMullerBlockMatchesGeneric compares the kernel with its portable
// twin and normPair's transform on random inputs: stream-like lattice
// uniforms, and arbitrary normal doubles with random exponents across the
// whole input range.
func TestBoxMullerBlockMatchesGeneric(t *testing.T) {
	r := New(0xB0A5)
	n := 1 << 16
	if testing.Short() {
		n = 1 << 12
	}
	u, v := make([]float64, n), make([]float64, n)
	r.uniformPairs(u, v)
	checkBoxMullerBlock(t, u, v)
	for k := range u {
		u[k] = math.Ldexp(1+r.Float64(), -1-r.Intn(53))
		v[k] = math.Ldexp(1+r.Float64(), -1-r.Intn(60))
	}
	checkBoxMullerBlock(t, u, v)
}

// TestUniformPairsMatchesNormPair: the lookahead uniform draw consumes the
// stream exactly as normPair's Float64 calls do, redraw rule included. The
// generator at state 0 with increment 1 draws u == 0 first, so the redraw
// runs.
func TestUniformPairsMatchesNormPair(t *testing.T) {
	for _, mk := range []func() *Rand{
		func() *Rand { return New(0x5EED) },
		func() *Rand { return &Rand{state: 0, inc: 1} },
	} {
		a, b := mk(), mk()
		u, v := make([]float64, 4097), make([]float64, 4097)
		a.uniformPairs(u, v)
		for k := range u {
			wu := b.Float64()
			for wu == 0 {
				wu = b.Float64()
			}
			if wv := b.Float64(); u[k] != wu || v[k] != wv {
				t.Fatalf("pair %d: (%v, %v), Float64 draws (%v, %v)", k, u[k], v[k], wu, wv)
			}
		}
		if a.Uint64() != b.Uint64() {
			t.Fatal("stream position differs after the lookahead draws")
		}
	}
}

// BenchmarkFillNormal prices one normal of a 4096-value FillNormal, the
// perfbench rng.normal_ns shape, on each stream version.
func BenchmarkFillNormal(b *testing.B) {
	for _, v := range []StreamVersion{StreamV1, StreamV2} {
		b.Run(v.String(), func(b *testing.B) {
			r := NewStream(1, v)
			buf := make([]float32, 4096)
			for i := 0; i < b.N; i++ {
				r.FillNormal(buf, 0, 1)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(buf)), "ns/draw")
		})
	}
}
