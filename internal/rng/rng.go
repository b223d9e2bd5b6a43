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
	"fmt"
	"math"
	"math/bits"
)

// StreamVersion selects the Gaussian sampling algorithm of a stream. The
// uniform layers (Uint32/Uint64/Float64/Intn/...) are identical across
// versions; only the normal variates differ:
//
//   - StreamV1 is the frozen Box-Muller contract every result before the
//     versioning existed was produced under. Its draw sequence — including
//     the one-value pair cache and the batched FillNormal orders — is pinned
//     bit-for-bit by tests and must never change.
//   - StreamV2 is an opt-in 128-layer Marsaglia–Tsang ziggurat sampler:
//     statistically an exact standard normal, but a different (cheaper) draw
//     sequence with no Log/Sincos on the ~98.8% fast path.
//
// Two streams with the same seed but different versions produce different
// Gaussian draws, so a version is part of a deployment's identity: the
// analog Config fingerprints it and the engine never mixes versions in its
// cache.
type StreamVersion uint8

const (
	// StreamV1 is Box-Muller — the legacy bit-exact contract. The zero
	// value of StreamVersion canonicalizes to it (see Canon).
	StreamV1 StreamVersion = 1
	// StreamV2 is the ziggurat sampler.
	StreamV2 StreamVersion = 2
)

// Canon maps the zero value to StreamV1 so struct zero values keep the
// legacy behavior; explicit versions pass through unchanged.
func (v StreamVersion) Canon() StreamVersion {
	if v == 0 {
		return StreamV1
	}
	return v
}

// String names the stream version for fingerprints and report footers.
func (v StreamVersion) String() string {
	switch v.Canon() {
	case StreamV1:
		return "v1-boxmuller"
	case StreamV2:
		return "v2-ziggurat"
	default:
		return fmt.Sprintf("v%d-unknown", uint8(v))
	}
}

// Rand is a deterministic pseudo-random generator. The zero value is not
// valid; use New, NewStream or (*Rand).Split.
type Rand struct {
	state uint64
	inc   uint64

	// version selects the Gaussian sampler; the zero value means StreamV1
	// so generators from New keep the legacy contract.
	version StreamVersion

	// cached second Gaussian from Box-Muller (StreamV1 only)
	gauss float64
	hasG  bool

	// blk is the scratch of the batched StreamV1 fills, allocated by the
	// first one: a block on the stack would be zeroed, all 1 KiB of it, on
	// every call.
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
// same seed produce identical streams. The stream uses StreamV1 (the legacy
// Box-Muller contract); use NewStream to select a version explicitly.
func New(seed uint64) *Rand {
	sm := seed
	s0 := splitmix64(&sm)
	s1 := splitmix64(&sm)
	r := &Rand{}
	r.init(s0, s1)
	return r
}

// ParseStreamVersion parses a command-line stream-version name: "v1",
// "v1-boxmuller" or "1" select StreamV1; "v2", "v2-ziggurat" or "2" select
// StreamV2; "" selects the default (StreamV1).
func ParseStreamVersion(s string) (StreamVersion, error) {
	switch s {
	case "", "v1", "v1-boxmuller", "1", "boxmuller":
		return StreamV1, nil
	case "v2", "v2-ziggurat", "2", "ziggurat":
		return StreamV2, nil
	default:
		return 0, fmt.Errorf("rng: unknown noise stream %q (want v1 or v2)", s)
	}
}

// NewStream returns a generator seeded from seed whose Gaussian draws follow
// the given stream version (0 canonicalizes to StreamV1). The uniform layers
// are identical across versions — NewStream(s, StreamV1) and New(s) are the
// same stream. Panics on an unknown version so a corrupted configuration
// fails loudly instead of silently sampling garbage.
func NewStream(seed uint64, v StreamVersion) *Rand {
	v = v.Canon()
	if v != StreamV1 && v != StreamV2 {
		panic(fmt.Sprintf("rng: unknown stream version %d", uint8(v)))
	}
	r := New(seed)
	r.version = v
	return r
}

// Version reports the stream version of this generator (canonicalized:
// generators from New report StreamV1).
func (r *Rand) Version() StreamVersion { return r.version.Canon() }

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
// function of (parent seed, label). Children inherit the parent's stream
// version, so one NewStream at the root versions a whole deployment.
func (r *Rand) Split(label string) *Rand {
	sm := r.state ^ hashLabel(label)
	s0 := splitmix64(&sm)
	s1 := splitmix64(&sm) ^ r.inc
	c := &Rand{version: r.version}
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

// zigR is the rightmost ziggurat layer boundary for the standard normal
// (Marsaglia & Tsang 2000, 128 layers).
const zigR = 3.442619855899

// Ziggurat tables: per-layer acceptance thresholds (kn), widths scaled to
// the 31-bit integer draw (wn), and density values at the layer boundaries
// (fn). Built once at init from the closed-form recurrence rather than
// pasted as literals, so the 128-layer geometry is exact in float64.
var (
	zigKn [128]uint32
	zigWn [128]float64
	zigFn [128]float64
)

func init() {
	const m1 = 2147483648.0 // 2^31: draws are signed 32-bit, |j| < 2^31
	vn := 9.91256303526217e-3
	dn := zigR
	tn := dn
	q := vn / math.Exp(-0.5*dn*dn)
	zigKn[0] = uint32(dn / q * m1)
	zigKn[1] = 0
	zigWn[0] = q / m1
	zigWn[127] = dn / m1
	zigFn[0] = 1
	zigFn[127] = math.Exp(-0.5 * dn * dn)
	for i := 126; i >= 1; i-- {
		dn = math.Sqrt(-2 * math.Log(vn/dn+math.Exp(-0.5*dn*dn)))
		zigKn[i+1] = uint32(dn / tn * m1)
		tn = dn
		zigFn[i] = math.Exp(-0.5 * dn * dn)
		zigWn[i] = dn / m1
	}
}

// uniformOpen returns a uniform float64 in (0, 1) — never exactly zero, so
// it is safe under a logarithm.
func (r *Rand) uniformOpen() float64 {
	for {
		if u := r.Float64(); u != 0 {
			return u
		}
	}
}

// zigNorm draws one standard normal via the 128-layer Marsaglia–Tsang
// ziggurat — the StreamV2 sampler. ~98.8% of draws cost one Uint32, a table
// lookup, one compare and one multiply; the Log/Sincos/Sqrt of Box-Muller
// only appear on the rare wedge and tail paths.
func (r *Rand) zigNorm() float64 {
	for {
		j := int32(r.Uint32())
		i := j & 127
		aj := j
		if aj < 0 {
			aj = -aj // math.MinInt32 stays negative; uint32() below handles it
		}
		if uint32(aj) < zigKn[i] {
			return float64(j) * zigWn[i]
		}
		if i == 0 {
			// Tail beyond ±R: Marsaglia's exact exponential rejection.
			for {
				x := -math.Log(r.uniformOpen()) / zigR
				y := -math.Log(r.uniformOpen())
				if y+y >= x*x {
					if j > 0 {
						return zigR + x
					}
					return -(zigR + x)
				}
			}
		}
		// Wedge between the rectangle and the density curve.
		x := float64(j) * zigWn[i]
		if zigFn[i]+float64(r.Float64()*(zigFn[i-1]-zigFn[i])) < math.Exp(-0.5*x*x) {
			return x
		}
	}
}

// NormFloat64 returns a standard normal variate: Box-Muller with pair
// caching under StreamV1, ziggurat under StreamV2.
func (r *Rand) NormFloat64() float64 {
	if r.version == StreamV2 {
		return r.zigNorm()
	}
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
	if r.version == StreamV2 {
		for i := range dst {
			dst[i] = mu + float32(sigma*float32(r.zigNorm()))
		}
		return
	}
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
	if r.version == StreamV2 {
		for i := range dst {
			dst[i] += float32(sigma * float32(r.zigNorm()))
		}
		return
	}
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
