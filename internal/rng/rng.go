// Package rng provides deterministic, splittable pseudo-random number
// streams for the NORA simulator.
//
// Every stochastic component of the analog hardware model (programming
// noise, read noise, additive I/O noise, ...) owns its own stream so that
// enabling or disabling one noise source never perturbs the draws seen by
// another. Streams are derived from a root seed with a string label using
// SplitMix64 over an FNV-style hash, and the generator itself is a
// PCG-XSH-RR 64/32 pair packaged as a 64-bit generator.
package rng

import (
	"math"
	"math/bits"
)

// StreamVersion names a stream's Gaussian sampler. There is one: the
// Box-Muller contract that TestStreamV1Unchanged pins. The type is
// zero-size, so it holds no setting; NewStream and analog.Config's
// NoiseStream field keep it only because perfbench/rungs.go compiles
// against them.
type StreamVersion struct{}

// Rand is a deterministic pseudo-random generator. The zero value is not
// valid; use New or (*Rand).Split.
type Rand struct {
	state uint64
	inc   uint64

	// cached second Gaussian from Box-Muller
	gauss float64
	hasG  bool

	// blk is the scratch of the batched fills, allocated by the first
	// one: a block on the stack would be zeroed, all 1 KiB of it, on every
	// call.
	blk *normBlock
}

const (
	pcgMult     = 6364136223846793005
	splitMixInc = 0x9e3779b97f4a7c15
)

// splitmix64 advances a SplitMix64 state and returns the next value.
func splitmix64(state *uint64) uint64 {
	*state += splitMixInc
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// New returns a generator seeded from seed. Two generators created with the
// same seed produce identical streams.
func New(seed uint64) *Rand {
	sm := seed
	s0 := splitmix64(&sm)
	s1 := splitmix64(&sm)
	r := &Rand{}
	r.init(s0, s1)
	return r
}

// NewStream is New: every stream draws its Gaussians by Box-Muller.
func NewStream(seed uint64, _ StreamVersion) *Rand { return New(seed) }

func (r *Rand) init(initState, initSeq uint64) {
	r.state = 0
	r.inc = (initSeq << 1) | 1
	r.Uint64()
	r.state += initState
	r.Uint64()
	r.hasG = false
}

// hashLabel folds a string label into a 64-bit value (FNV-1a).
func hashLabel(label string) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	for i := 0; i < len(label); i++ {
		h ^= uint64(label[i])
		h *= prime
	}
	return h
}

// Split derives an independent child stream identified by label. Splitting
// does not advance the parent stream, so the set of children is a pure
// function of (parent seed, label).
func (r *Rand) Split(label string) *Rand {
	sm := r.state ^ hashLabel(label)
	s0 := splitmix64(&sm)
	s1 := splitmix64(&sm) ^ r.inc
	c := &Rand{}
	c.init(s0, s1)
	return c
}

// Uint32 returns the next 32 random bits (PCG-XSH-RR).
func (r *Rand) Uint32() uint32 {
	old := r.state
	r.state = old*pcgMult + r.inc
	return pcgOut(old)
}

// pcgOut is the PCG-XSH-RR output permutation of one LCG state.
func pcgOut(old uint64) uint32 {
	xorshifted := uint32(((old >> 18) ^ old) >> 27)
	return bits.RotateLeft32(xorshifted, -int(old>>59))
}

// Uint64 returns the next 64 random bits.
func (r *Rand) Uint64() uint64 {
	hi := uint64(r.Uint32())
	lo := uint64(r.Uint32())
	return hi<<32 | lo
}

// Intn returns a uniform int in [0, n). It panics if n <= 0.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	// Lemire's nearly-divisionless bounded sampling on 32 bits when
	// possible, falling back to 64-bit modulo for huge n.
	if n <= math.MaxInt32 {
		bound := uint32(n)
		for {
			v := r.Uint32()
			prod := uint64(v) * uint64(bound)
			low := uint32(prod)
			if low >= bound || low >= uint32(-int32(bound))%bound {
				return int(prod >> 32)
			}
		}
	}
	return int(r.Uint64() % uint64(n))
}

// Float64 returns a uniform float64 in [0, 1).
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Float32 returns a uniform float32 in [0, 1).
func (r *Rand) Float32() float32 {
	return float32(r.Uint32()>>8) / (1 << 24)
}

// normPair draws one fresh Box-Muller pair, bypassing the one-value cache.
// The pair (cos, sin) is returned in the order NormFloat64 hands the values
// out, so batched fills built on normPair reproduce the scalar draw
// sequence exactly.
func (r *Rand) normPair() (c, s float64) {
	for {
		u := r.Float64()
		if u == 0 {
			continue
		}
		return boxMuller(u, r.Float64())
	}
}

// NormFloat64 returns a standard normal variate: Box-Muller with pair
// caching.
func (r *Rand) NormFloat64() float64 {
	if r.hasG {
		r.hasG = false
		return r.gauss
	}
	c, s := r.normPair()
	r.gauss = s
	r.hasG = true
	return c
}

// NormFloat32 returns a standard normal variate as float32.
func (r *Rand) NormFloat32() float32 {
	return float32(r.NormFloat64())
}

// Perm returns a random permutation of [0, n).
func (r *Rand) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// Shuffle pseudo-randomizes the order of n elements using the swap callback.
func (r *Rand) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}

// FillNormal fills dst with i.i.d. Gaussian(mu, sigma) float32 samples.
// The draw sequence (including the Box-Muller pair cache) is identical to
// calling mu + sigma*NormFloat32() once per element; with mu = 0 and
// sigma = 1 the values are NormFloat32's bit for bit, since a Box-Muller
// draw is never −0. Whole pairs are drawn in blocks through
// boxMullerBlock and scaled into dst by scalePairs.
func (r *Rand) FillNormal(dst []float32, mu, sigma float32) {
	i := 0
	if r.hasG && len(dst) > 0 {
		r.hasG = false
		dst[0] = mu + float32(sigma*float32(r.gauss))
		i = 1
	}
	for len(dst)-i >= 2 {
		b, n := r.nextPairs((len(dst) - i) / 2)
		scalePairs(dst[i:i+2*n], b.u[:n], b.v[:n], mu, sigma)
		i += 2 * n
	}
	if i < len(dst) {
		c, s := r.normPair()
		dst[i] = mu + float32(sigma*float32(c))
		r.gauss, r.hasG = s, true
	}
}

// FillNormalAdd adds sigma-scaled standard normal samples to dst in place:
// dst[i] += sigma*N(0,1). The draw order is bit-identical to the scalar
// loop dst[i] += sigma*NormFloat32() — the batched form exists so hot read
// paths (input/output/weight-read noise) pay one call instead of one per
// element, without perturbing any downstream stream state. Whole pairs
// are drawn in blocks through boxMullerBlock and added into dst by
// addPairs.
func (r *Rand) FillNormalAdd(dst []float32, sigma float32) {
	i := 0
	if r.hasG && len(dst) > 0 {
		r.hasG = false
		dst[0] += float32(sigma * float32(r.gauss))
		i = 1
	}
	for len(dst)-i >= 2 {
		b, n := r.nextPairs((len(dst) - i) / 2)
		addPairs(dst[i:i+2*n], b.u[:n], b.v[:n], sigma)
		i += 2 * n
	}
	if i < len(dst) {
		c, s := r.normPair()
		dst[i] += float32(sigma * float32(c))
		r.gauss, r.hasG = s, true
	}
}

// FillUniform fills dst with i.i.d. uniform samples in [lo, hi).
func (r *Rand) FillUniform(dst []float32, lo, hi float32) {
	span := hi - lo
	for i := range dst {
		dst[i] = lo + float32(span*r.Float32())
	}
}
