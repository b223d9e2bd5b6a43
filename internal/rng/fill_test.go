package rng

import (
	"math"
	"testing"
)

// TestSincosBitIdentical backs the claim in normPair that switching from
// separate math.Sin/math.Cos calls to one math.Sincos call preserves every
// historical draw value bit-for-bit. It sweeps the exact Box-Muller domain
// (x = 2π·v with v a Float64 lattice point in [0,1)) plus dense
// neighborhoods of the argument-reduction boundaries k·π/4, where the two
// implementations would diverge first if they ever did.
func TestSincosBitIdentical(t *testing.T) {
	check := func(x float64) {
		s, c := math.Sincos(x)
		if math.Float64bits(s) != math.Float64bits(math.Sin(x)) ||
			math.Float64bits(c) != math.Float64bits(math.Cos(x)) {
			t.Fatalf("Sincos(%v) = (%v, %v), Sin/Cos = (%v, %v)",
				x, s, c, math.Sin(x), math.Cos(x))
		}
	}
	r := New(0xB0C5)
	n := 200_000
	if testing.Short() {
		n = 20_000
	}
	for i := 0; i < n; i++ {
		check(2 * math.Pi * r.Float64())
	}
	for k := 0; k <= 8; k++ {
		x := float64(k) * math.Pi / 4
		lo, hi := x, x
		for i := 0; i < 500; i++ {
			lo = math.Nextafter(lo, math.Inf(-1))
			hi = math.Nextafter(hi, math.Inf(1))
			if lo >= 0 {
				check(lo)
			}
			check(hi)
		}
	}
}

// TestFillNormalMatchesScalar asserts the batched fill's central contract:
// for any length and any pair-cache state, FillNormal produces exactly the
// values a scalar mu + sigma*NormFloat32() loop would, and leaves the
// generator (stream position and cached Gaussian) in exactly the state the
// scalar loop would — so draws after the fill are also unperturbed. The
// lengths 0–130 reach every padding of the four-pair kernel, a block of
// 64 pairs and the start of a second one.
func TestFillNormalMatchesScalar(t *testing.T) {
	for n := 0; n <= 130; n++ {
		for _, preload := range []int{0, 1} {
			a, b := New(uint64(1000+n)), New(uint64(1000+n))
			// preload=1 parks one value in the Box-Muller cache so the
			// fill starts mid-pair.
			for i := 0; i < preload; i++ {
				if a.NormFloat64() != b.NormFloat64() {
					t.Fatal("seed mismatch")
				}
			}
			got := make([]float32, n)
			a.FillNormal(got, 0.25, 1.5)
			for i := range got {
				want := 0.25 + 1.5*b.NormFloat32()
				if math.Float32bits(got[i]) != math.Float32bits(want) {
					t.Fatalf("n=%d preload=%d: FillNormal[%d] = %v, scalar = %v",
						n, preload, i, got[i], want)
				}
			}
			for i := 0; i < 5; i++ {
				x, y := a.NormFloat64(), b.NormFloat64()
				if math.Float64bits(x) != math.Float64bits(y) {
					t.Fatalf("n=%d preload=%d: post-fill draw %d diverged: %v vs %v",
						n, preload, i, x, y)
				}
			}
		}
	}
}

// TestFillNormalAddMatchesScalar is the accumulate variant of the contract:
// dst[i] += sigma*N(0,1) with the identical draw order and trailing cache
// state as the scalar loop.
func TestFillNormalAddMatchesScalar(t *testing.T) {
	for n := 0; n <= 130; n++ {
		for _, preload := range []int{0, 1} {
			a, b := New(uint64(2000+n)), New(uint64(2000+n))
			for i := 0; i < preload; i++ {
				a.NormFloat64()
				b.NormFloat64()
			}
			base := New(7)
			got := make([]float32, n)
			base.FillUniform(got, -2, 2)
			want := append([]float32(nil), got...)

			a.FillNormalAdd(got, 0.04)
			for i := range want {
				want[i] += 0.04 * b.NormFloat32()
			}
			for i := range got {
				if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
					t.Fatalf("n=%d preload=%d: FillNormalAdd[%d] = %v, scalar = %v",
						n, preload, i, got[i], want[i])
				}
			}
			for i := 0; i < 5; i++ {
				x, y := a.NormFloat64(), b.NormFloat64()
				if math.Float64bits(x) != math.Float64bits(y) {
					t.Fatalf("n=%d preload=%d: post-fill draw %d diverged", n, preload, i)
				}
			}
		}
	}
}

// TestPairScalingMatchesScalar pins scalePairs and addPairs to the scalar
// interleave mu + sigma·float32(c) and d += sigma·float32(c), for 0–70
// pairs, with dst starting at an even index and, as it does after a cached
// Gaussian (hasG), at an odd one. The normals include float32 rounding
// ties, values beyond float32 range, ±0 and subnormals.
func TestPairScalingMatchesScalar(t *testing.T) {
	r := New(0x5CA1)
	tie := float64(1) + 0x1p-24 // halfway between two float32 values
	specials := []float64{tie, -tie, 1e39, -1e39, 0, math.Copysign(0, -1), 0x1p-140, -0x1p-149, 0x1p-1074}
	for pairs := 0; pairs <= 70; pairs++ {
		c, s := make([]float64, pairs), make([]float64, pairs)
		for k := range c {
			c[k], s[k] = r.NormFloat64(), r.NormFloat64()
			if k%3 == 0 {
				c[k] = specials[(k+pairs)%len(specials)]
			}
			if k%5 == 1 {
				s[k] = specials[(k+2*pairs)%len(specials)]
			}
		}
		for _, off := range []int{0, 1} {
			for _, a := range [][2]float32{{0, 1}, {0.25, 1.5}, {-1, 0.04}} {
				mu, sigma := a[0], a[1]
				base := make([]float32, off+2*pairs+1)
				r.FillUniform(base, -2, 2)
				got, want := append([]float32(nil), base...), append([]float32(nil), base...)
				scalePairs(got[off:off+2*pairs], c, s, mu, sigma)
				for k := range c {
					want[off+2*k] = mu + sigma*float32(c[k])
					want[off+2*k+1] = mu + sigma*float32(s[k])
				}
				requirePairBits(t, "scalePairs", pairs, off, got, want)

				got, want = append([]float32(nil), base...), append([]float32(nil), base...)
				addPairs(got[off:off+2*pairs], c, s, sigma)
				for k := range c {
					want[off+2*k] += sigma * float32(c[k])
					want[off+2*k+1] += sigma * float32(s[k])
				}
				requirePairBits(t, "addPairs", pairs, off, got, want)
			}
		}
	}
}

func requirePairBits(t *testing.T, what string, pairs, off int, got, want []float32) {
	t.Helper()
	for i := range got {
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			t.Fatalf("%s, %d pairs at offset %d: [%d] = %v, scalar %v", what, pairs, off, i, got[i], want[i])
		}
	}
}
