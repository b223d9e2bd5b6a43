package rng

import "math"

// boxMuller is the StreamV1 transform of one uniform pair, u ∈ (0, 1) and
// v ∈ [0, 1), into the two normals (mag·cos, mag·sin) in the order
// NormFloat64 hands them out.
func boxMuller(u, v float64) (c, s float64) {
	mag := math.Sqrt(-2 * math.Log(u))
	// math.Sincos shares one argument reduction between the two
	// evaluations; its results are bit-identical to separate
	// math.Sin/math.Cos calls (asserted by TestSincosBitIdentical), so the
	// historical draw values are preserved exactly.
	sin, cos := math.Sincos(2 * math.Pi * v)
	return mag * cos, mag * sin
}

// boxMullerGeneric is the portable definition of boxMullerBlock: it
// replaces each uniform pair (u[k], v[k]) by boxMuller(u[k], v[k]).
func boxMullerGeneric(u, v []float64) {
	v = v[:len(u)]
	for k, uk := range u {
		u[k], v[k] = boxMuller(uk, v[k])
	}
}

// pairBlock is how many Box-Muller pairs a batched fill draws ahead and
// hands boxMullerBlock at once.
const pairBlock = 64

// normBlock is the scratch of the batched fills: pair k's uniforms, then
// its normals (cos value in u[k], sin value in v[k]).
type normBlock struct {
	u, v [pairBlock]float64
}

// nextPairs draws n = min(pairs, pairBlock) fresh Box-Muller pairs, exactly
// as n normPair calls would, into b.u[:n] and b.v[:n] of r's fill scratch b
// (allocated on first use), and returns b and n.
func (r *Rand) nextPairs(pairs int) (b *normBlock, n int) {
	if r.blk == nil {
		r.blk = new(normBlock)
	}
	b = r.blk
	n = min(pairs, pairBlock)
	r.uniformPairs(b.u[:n], b.v[:n])
	m := n
	for ; m&3 != 0; m++ {
		// The kernel runs four pairs per step: pad with valid pairs whose
		// normals are dropped. pairBlock is a multiple of 4, so there is
		// room.
		b.u[m], b.v[m] = 0.5, 0
	}
	boxMullerBlock(b.u[:m], b.v[:m])
	return b, n
}

// scalePairsGeneric is the portable definition of scalePairs: pair k's
// normals (c[k], s[k]) become d[2k] = mu + sigma·float32(c[k]) and
// d[2k+1] = mu + sigma·float32(s[k]), the values FillNormal hands out.
func scalePairsGeneric(d []float32, c, s []float64, mu, sigma float32) {
	d, s = d[:2*len(c)], s[:len(c)]
	for k, ck := range c {
		d[2*k] = mu + float32(sigma*float32(ck))
		d[2*k+1] = mu + float32(sigma*float32(s[k]))
	}
}

// addPairsGeneric is the portable definition of addPairs: pair k's normals
// (c[k], s[k]) add into dst in the draw order, d[2k] += sigma·float32(c[k])
// and d[2k+1] += sigma·float32(s[k]).
func addPairsGeneric(d []float32, c, s []float64, sigma float32) {
	d, s = d[:2*len(c)], s[:len(c)]
	for k, ck := range c {
		d[2*k] += float32(sigma * float32(ck))
		d[2*k+1] += float32(sigma * float32(s[k]))
	}
}

// LCG multipliers and increment factors for stepping k states at once:
// s_{n+k} = pcgMultK·s_n + pcgIncK·inc (mod 2^64).
const (
	mask64   = 1<<64 - 1
	pcgMult2 = (pcgMult * pcgMult) & mask64
	pcgMult3 = (pcgMult2 * pcgMult) & mask64
	pcgMult4 = (pcgMult3 * pcgMult) & mask64
	pcgInc2  = pcgMult + 1
	pcgInc3  = (pcgMult2 + pcgMult + 1) & mask64
	pcgInc4  = (pcgMult3 + pcgMult2 + pcgMult + 1) & mask64
)

// uniformPairs fills u and v with len(u) Box-Muller uniform pairs: the
// Float64 draws normPair makes, in the same order, including its redraw
// of u == 0. A pair consumes four LCG states; they are computed from the
// current one with independent multiplies rather than a serial chain,
// which is the same sequence.
func (r *Rand) uniformPairs(u, v []float64) {
	v = v[:len(u)]
	inc, s := r.inc, r.state
	c2, c3, c4 := pcgInc2*inc, pcgInc3*inc, pcgInc4*inc
	for k := 0; k < len(u); {
		ub := (uint64(pcgOut(s))<<32 | uint64(pcgOut(s*pcgMult+inc))) >> 11
		if ub == 0 {
			s = s*pcgMult2 + c2 // u == 0: draw u again
			continue
		}
		vb := (uint64(pcgOut(s*pcgMult2+c2))<<32 | uint64(pcgOut(s*pcgMult3+c3))) >> 11
		u[k] = float64(ub) / (1 << 53)
		v[k] = float64(vb) / (1 << 53)
		s = s*pcgMult4 + c4
		k++
	}
	r.state = s
}
