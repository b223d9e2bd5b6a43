package tensor

import "math"

// Portable kernels: the definitions the AVX2 kernels in kernel_amd64.s must
// match bit for bit, and the kernels themselves wherever those do not run
// (other architectures, amd64 CPUs without AVX2). Every product is rounded
// explicitly — d += float32(x*w), not d += x*w — because the Go spec lets a
// compiler fuse a*b+c into one FMA (arm64 does), and an explicit conversion
// is what forbids that fusion.

// macPanelGeneric computes dst[j] += x[k]·b[k·ld+j] for j < len(dst) and
// k < len(x), in increasing k, skipping x[k] == 0. Against the naive loop
// the skip is exact for finite b: a sum rooted at +0 never reaches −0, and
// adding ±0 to any value but −0 leaves it unchanged.
func macPanelGeneric(dst, x, b []float32, ld int) {
	n := len(dst)
	for k, xv := range x {
		if xv == 0 {
			continue
		}
		row := b[k*ld : k*ld+n]
		for j, bv := range row {
			dst[j] += float32(xv * bv)
		}
	}
}

// macAbsPanelGeneric is macPanelGeneric over two matrices at once:
// z[j] += x[k]·w[k·ld+j] and load[j] += |x[k]|·aw[k·ld+j], skipping
// x[k] == 0 for both.
func macAbsPanelGeneric(z, load, x, w, aw []float32, ld int) {
	n := len(z)
	load = load[:n]
	for k, xv := range x {
		if xv == 0 {
			continue
		}
		xa := math.Float32frombits(math.Float32bits(xv) &^ (1 << 31)) // sign mask
		wr := w[k*ld : k*ld+n]
		ar := aw[k*ld : k*ld+n]
		for j, wv := range wr {
			z[j] += float32(xv * wv)
			load[j] += float32(xa * ar[j])
		}
	}
}

// absMaxFrom returns max(mx, max_i |v[i]|) in the scalar order: a NaN
// element never compares greater, so it is skipped.
func absMaxFrom(mx float32, v []float32) float32 {
	for _, x := range v {
		if x < 0 {
			x = -x
		}
		if x > mx {
			mx = x
		}
	}
	return mx
}

// quantizeUnitGeneric is the scalar definition of QuantizeUnitInto.
func quantizeUnitGeneric(dst, src []float32, scale, half, inv float32) {
	dst = dst[:len(src)]
	for k, v := range src {
		q := v / scale
		if q > 1 {
			q = 1
		} else if q < -1 {
			q = -1
		}
		dst[k] = float32(math.Round(float64(q*half))) * inv
	}
}

// adcGeneric is the scalar definition of ADCInPlace.
func adcGeneric(z []float32, limit, bound, half, inv float32) (saturated bool) {
	for j, v := range z {
		if v >= limit || v <= -limit {
			saturated = true
		}
		if v > bound {
			v = bound
		} else if v < -bound {
			v = -bound
		}
		z[j] = float32(math.Round(float64(v/bound*half))) * inv * bound
	}
	return saturated
}

// irDropGeneric is the scalar definition of IRDropInPlace.
func irDropGeneric(z, load []float32, drop, invRows float32) {
	load = load[:len(z)]
	for j, l := range load {
		att := drop * l * invRows
		if att > 0.9 {
			att = 0.9
		}
		z[j] *= 1 - att
	}
}

// rescaleAddGeneric is the scalar definition of RescaleAddInto.
func rescaleAddGeneric(dst, c, z []float32, coef, alpha, drift float32) {
	c, z = c[:len(dst)], z[:len(dst)]
	for j, cj := range c {
		dst[j] += float32(coef * (alpha * cj * z[j] * drift))
	}
}
