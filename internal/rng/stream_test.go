package rng

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"
)

// The StreamV2 ziggurat must be an exact standard normal sampler. These
// tests check the first four moments, the tail mass, determinism, version
// propagation through Split, and — critically — that introducing the
// version machinery left the StreamV1 draw sequence untouched.

// drawStats accumulates n draws from sample and returns mean, variance,
// excess kurtosis and the fraction of |x| > 3.
func drawStats(n int, sample func() float64) (mean, variance, exKurt, tail3 float64) {
	var s1, s2, s4 float64
	var beyond3 int
	for i := 0; i < n; i++ {
		x := sample()
		s1 += x
		s2 += x * x
		s4 += x * x * x * x
		if x > 3 || x < -3 {
			beyond3++
		}
	}
	fn := float64(n)
	mean = s1 / fn
	variance = s2/fn - mean*mean
	exKurt = s4/fn/(variance*variance) - 3
	tail3 = float64(beyond3) / fn
	return
}

func TestStreamV2Moments(t *testing.T) {
	const n = 2_000_000
	r := NewStream(12345, StreamV2)
	mean, variance, exKurt, tail3 := drawStats(n, r.NormFloat64)
	if math.Abs(mean) > 0.005 {
		t.Errorf("mean = %v, want ~0", mean)
	}
	if math.Abs(variance-1) > 0.01 {
		t.Errorf("variance = %v, want ~1", variance)
	}
	// Excess kurtosis of a normal is 0; Var(kurtosis estimator) ≈ 24/n.
	if math.Abs(exKurt) > 0.05 {
		t.Errorf("excess kurtosis = %v, want ~0", exKurt)
	}
	// P(|X| > 3) = 0.0026998 for a standard normal.
	if math.Abs(tail3-0.0026998) > 0.0005 {
		t.Errorf("P(|x|>3) = %v, want ~0.0027", tail3)
	}
}

// TestStreamV2TailSampler forces the rare paths by checking that far-tail
// mass also matches: the ziggurat tail sampler handles |x| > 3.4426.
func TestStreamV2TailSampler(t *testing.T) {
	const n = 4_000_000
	r := NewStream(999, StreamV2)
	var beyondR int
	sawTail := false
	for i := 0; i < n; i++ {
		x := r.NormFloat64()
		if x > zigR || x < -zigR {
			beyondR++
			sawTail = true
		}
		if math.IsNaN(x) || math.IsInf(x, 0) {
			t.Fatalf("draw %d is %v", i, x)
		}
	}
	if !sawTail {
		t.Fatal("no draws beyond the ziggurat layer boundary — tail sampler never exercised")
	}
	// P(|X| > 3.442619855899) ≈ 5.768e-4.
	got := float64(beyondR) / n
	if math.Abs(got-5.768e-4) > 1.5e-4 {
		t.Errorf("P(|x|>R) = %v, want ~5.77e-4", got)
	}
}

func TestStreamV2Deterministic(t *testing.T) {
	a, b := NewStream(7, StreamV2), NewStream(7, StreamV2)
	for i := 0; i < 1000; i++ {
		if av, bv := a.NormFloat64(), b.NormFloat64(); av != bv {
			t.Fatalf("draw %d: %v vs %v", i, av, bv)
		}
	}
}

func TestSplitInheritsVersion(t *testing.T) {
	root := NewStream(11, StreamV2)
	child := root.Split("layer").Split("tile0.0")
	if child.Version() != StreamV2 {
		t.Fatalf("child version = %v, want StreamV2", child.Version())
	}
	if New(11).Split("x").Version() != StreamV1 {
		t.Fatal("New streams must split to StreamV1 children")
	}
}

// TestStreamVersionsShareUniformLayer: versioning only changes Gaussian
// draws; the uniform stream under the same seed is identical.
func TestStreamVersionsShareUniformLayer(t *testing.T) {
	a, b := NewStream(3, StreamV1), NewStream(3, StreamV2)
	for i := 0; i < 100; i++ {
		if av, bv := a.Uint64(), b.Uint64(); av != bv {
			t.Fatalf("uniform draw %d differs: %x vs %x", i, av, bv)
		}
	}
}

// bmReplay is a hand-rolled StreamV1 reference: Box-Muller with the
// one-value pair cache, written out with math.Log and math.Sincos over the
// raw uniform stream of the same seed.
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

// TestStreamV1Unchanged pins the StreamV1 sequence over a long mixed run.
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
	r := NewStream(42, StreamV1)
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

// TestStreamV2FillMatchesScalar: V2 batched fills must equal the scalar
// draw loop (V2 has no pair cache, so the correspondence is direct).
func TestStreamV2FillMatchesScalar(t *testing.T) {
	a, b := NewStream(21, StreamV2), NewStream(21, StreamV2)
	batch := make([]float32, 37)
	a.FillNormal(batch, 0.5, 2)
	for i := range batch {
		want := float32(0.5) + 2*b.NormFloat32()
		if math.Float32bits(batch[i]) != math.Float32bits(want) {
			t.Fatalf("FillNormal[%d] = %v, scalar = %v", i, batch[i], want)
		}
	}
	add := make([]float32, 37)
	for i := range add {
		add[i] = float32(i)
	}
	a.FillNormalAdd(add, 0.25)
	for i := range add {
		want := float32(i) + 0.25*b.NormFloat32()
		if math.Float32bits(add[i]) != math.Float32bits(want) {
			t.Fatalf("FillNormalAdd[%d] = %v, scalar = %v", i, add[i], want)
		}
	}
}

func TestNewStreamPanicsOnUnknownVersion(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewStream(seed, 7) did not panic")
		}
	}()
	NewStream(1, StreamVersion(7))
}

func TestStreamVersionStrings(t *testing.T) {
	if StreamV1.String() != "v1-boxmuller" || StreamV2.String() != "v2-ziggurat" {
		t.Fatalf("unexpected names: %q %q", StreamV1, StreamV2)
	}
	if StreamVersion(0).Canon() != StreamV1 {
		t.Fatal("zero value must canonicalize to StreamV1")
	}
}

func BenchmarkNormFloat64V1(b *testing.B) {
	r := NewStream(1, StreamV1)
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += r.NormFloat64()
	}
	_ = sink
}

func BenchmarkNormFloat64V2(b *testing.B) {
	r := NewStream(1, StreamV2)
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += r.NormFloat64()
	}
	_ = sink
}
