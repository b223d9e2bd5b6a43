package rng

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"
)

// bmReplay is a hand-rolled reference: Box-Muller with the one-value pair
// cache, written out with math.Log and math.Sincos over the raw uniform
// stream of the same seed.
type bmReplay struct {
	u      *Rand
	cached float64
	has    bool
}

func (b *bmReplay) next() float64 {
	if b.has {
		b.has = false
		return b.cached
	}
	for {
		u1 := b.u.Float64()
		if u1 == 0 {
			continue
		}
		u2 := b.u.Float64()
		mag := math.Sqrt(-2 * math.Log(u1))
		sin, cos := math.Sincos(2 * math.Pi * u2)
		b.cached, b.has = mag*sin, true
		return mag * cos
	}
}

// v1Digest is the FNV-1a digest of the draws TestStreamV1Unchanged makes,
// computed with the scalar Box-Muller FillNormal/FillNormalAdd loops from
// before the SSE2 kernel existed.
const v1Digest = 0x4073ba5d56071392

// TestStreamV1Unchanged pins the Gaussian sequence over a long mixed run.
// A seeded schedule interleaves NormFloat64, NormFloat32, FillNormal and
// FillNormalAdd calls — fills of length 0–130, so odd lengths carry the
// pair cache from one call into the next — until at least 2^20 values are
// drawn. Every value must equal the hand-rolled replay bit for bit, and
// the digest of all of them must equal v1Digest.
func TestStreamV1Unchanged(t *testing.T) { checkStreamV1Digest(t) }

// checkStreamV1Digest is TestStreamV1Unchanged's body, shared with the
// run that switches the packed kernels off.
func checkStreamV1Digest(t *testing.T) {
	t.Helper()
	r := New(42)
	ref := &bmReplay{u: New(42)}
	sched := New(7)
	h := fnv.New64a()
	var word [8]byte
	record := func(bits uint64) {
		binary.LittleEndian.PutUint64(word[:], bits)
		h.Write(word[:])
	}
	affine := [][2]float32{{0, 1}, {0.25, 1.5}, {0.031, 0.012}, {-1, 0.04}}
	buf := make([]float32, 130)
	drawn, calls := 0, 0
	for ; drawn < 1<<20; calls++ {
		switch sched.Intn(4) {
		case 0:
			got, want := r.NormFloat64(), ref.next()
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("call %d NormFloat64: %v, replay %v", calls, got, want)
			}
			record(math.Float64bits(got))
			drawn++
		case 1:
			got, want := r.NormFloat32(), float32(ref.next())
			if math.Float32bits(got) != math.Float32bits(want) {
				t.Fatalf("call %d NormFloat32: %v, replay %v", calls, got, want)
			}
			record(uint64(math.Float32bits(got)))
			drawn++
		case 2:
			dst := buf[:sched.Intn(len(buf)+1)]
			a := affine[sched.Intn(len(affine))]
			r.FillNormal(dst, a[0], a[1])
			for i, got := range dst {
				want := a[0] + a[1]*float32(ref.next())
				if math.Float32bits(got) != math.Float32bits(want) {
					t.Fatalf("call %d FillNormal(len %d, %v)[%d] = %v, replay %v",
						calls, len(dst), a, i, got, want)
				}
				record(uint64(math.Float32bits(got)))
			}
			drawn += len(dst)
		case 3:
			dst := buf[:sched.Intn(len(buf)+1)]
			sched.FillUniform(dst, -2, 2)
			base := append([]float32(nil), dst...)
			sigma := affine[sched.Intn(len(affine))][1]
			r.FillNormalAdd(dst, sigma)
			for i, got := range dst {
				want := base[i] + sigma*float32(ref.next())
				if math.Float32bits(got) != math.Float32bits(want) {
					t.Fatalf("call %d FillNormalAdd(len %d, %v)[%d] = %v, replay %v",
						calls, len(dst), sigma, i, got, want)
				}
				record(uint64(math.Float32bits(got)))
			}
			drawn += len(dst)
		}
	}
	if got := h.Sum64(); got != v1Digest {
		t.Fatalf("digest of %d draws over %d calls = %#x, want %#x", drawn, calls, got, uint64(v1Digest))
	}
}

func BenchmarkNormFloat64(b *testing.B) {
	r := New(1)
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += r.NormFloat64()
	}
	_ = sink
}
