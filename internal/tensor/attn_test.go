package tensor

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"

	"nora/internal/rng"
)

// The kernels of attn_amd64.s promise the bits of their twins in
// attn_generic.go, and the packed exp promises math.Exp's. These tests hold
// them to it at every length 0–70 (every block and tail split), at the ends
// of the packed exp's range and beyond, on special values in every lane,
// and on inputs where math.Exp's two amd64 paths round differently. Where
// the packed kernel is off (other architectures, the purego tag, a CPU
// without AVX2 or FMA) the entry points run the twins themselves and the
// tests skip.

// packedOrSkip skips a test of the AVX2 attention kernels when they are off.
func packedOrSkip(t *testing.T) {
	t.Helper()
	if !useAVX2 {
		t.Skip("AVX2 kernels off: AttnScores and AttnValues run their twins")
	}
}

// packedExpOrSkip skips a test of the packed exp when it is off.
func packedExpOrSkip(t *testing.T) {
	t.Helper()
	if !useExp {
		t.Skip("packed exp off: ExpInto, SiLUInPlace and AttnSoftmax run math.Exp")
	}
}

// archExp's constants (src/math/exp_amd64.s), for the replays below.
const (
	replayLog2e = 1.4426950408889634073599246810018920
	replayLn2U  = 0.69314718055966295651160180568695068359375
	replayLn2L  = 0.28235290563031577122588448175013436025525412068e-12
)

var replayTaylor = [...]float64{
	2.4801587301587301587e-5, 1.9841269841269841270e-4, 1.3888888888888888889e-3,
	8.3333333333333333333e-3, 4.1666666666666666667e-2, 1.6666666666666666667e-1, 0.5, 1.0,
}

// expFMAReplay is the FMA path of amd64's archExp for x in [−708, 709],
// written with math.FMA: the path math.Exp takes on a CPU with AVX and FMA,
// and the one the packed exp replays.
func expFMAReplay(x float64) float64 {
	k := math.RoundToEven(float64(replayLog2e * x))
	r := math.FMA(-k, replayLn2U, x)
	r = math.FMA(-k, replayLn2L, r)
	r = float64(r * 0.0625)
	p := replayTaylor[0]
	for _, c := range replayTaylor[1:] {
		p = math.FMA(r, p, c)
	}
	y := float64(r * p)
	for i := 0; i < 3; i++ {
		y = float64(y * float64(y+2))
	}
	y = math.FMA(y+2, y, 1)
	return float64(y * math.Float64frombits(uint64(int64(k)+1023)<<52))
}

// expSSEReplay is the SSE path of the same function, every product rounded
// on its own: what math.Exp computes on amd64 without FMA.
func expSSEReplay(x float64) float64 {
	k := math.RoundToEven(float64(replayLog2e * x))
	r := x - float64(replayLn2U*k)
	r -= float64(replayLn2L * k)
	r = float64(r * 0.0625)
	p := replayTaylor[0]
	for _, c := range replayTaylor[1:] {
		p = float64(p*r) + c
	}
	y := float64(r * p)
	for i := 0; i < 4; i++ {
		y = float64(y * float64(2+y))
	}
	y++
	return float64(y * math.Float64frombits(uint64(int64(k)+1023)<<52))
}

// pathSplits returns n float32-valued inputs in [lo, hi) on which the SSE
// and FMA paths of math.Exp round differently.
func pathSplits(r *rng.Rand, n int, lo, hi float64) []float64 {
	var xs []float64
	for len(xs) < n {
		x := float64(float32(lo + (hi-lo)*r.Float64()))
		if expSSEReplay(x) != expFMAReplay(x) {
			xs = append(xs, x)
		}
	}
	return xs
}

// expEdges are the inputs every exp test places in every lane: the ends of
// the packed range [−708, 709] with their float64 neighbours, the first
// inputs beyond, where archExp scales into subnormals, underflows or
// overflows, ±0, subnormals,
// NaN, ±Inf, and inputs where math.Exp's SSE and FMA paths differ.
func expEdges(r *rng.Rand) []float64 {
	inf := math.Inf(1)
	e := []float64{
		-708, math.Nextafter(-708, -inf), math.Nextafter(-708, 0),
		709, math.Nextafter(709, 0), math.Nextafter(709, inf),
		-708.5, -709, -709.5, -720, -744, -745.2, -746, 709.5, 709.79, 710, 1e300, -1e300,
		0, math.Copysign(0, -1), math.Float64frombits(1), -math.Float64frombits(0x000fffffffffffff),
		math.NaN(), inf, -inf,
	}
	e = append(e, pathSplits(r, 4, -30, 0)...)
	return append(e, pathSplits(r, 4, -12, 12)...)
}

func requireSameBits64(t *testing.T, what string, got, want []float64) {
	t.Helper()
	for j := range want {
		if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
			t.Fatalf("%s: [%d] = %v (bits %016x), want %v (bits %016x)",
				what, j, got[j], math.Float64bits(got[j]), want[j], math.Float64bits(want[j]))
		}
	}
}

// TestExpIntoEdges runs ExpInto against math.Exp at every length 0–70 on
// random softmax-range inputs, with each edge input of expEdges at each
// position in turn.
func TestExpIntoEdges(t *testing.T) {
	packedExpOrSkip(t)
	r := rng.New(0xE4B)
	edges := expEdges(r)
	check := func(src []float64) {
		t.Helper()
		got := make([]float64, len(src))
		want := make([]float64, len(src))
		ExpInto(got, src)
		for i, x := range src {
			want[i] = math.Exp(x)
		}
		requireSameBits64(t, "ExpInto", got, want)
	}
	for n := 0; n <= 70; n++ {
		base := make([]float64, n)
		for i := range base {
			base[i] = float64(float32(-30 * r.Float64()))
		}
		check(base)
		for p := 0; p < n; p++ {
			v := append([]float64(nil), base...)
			v[p] = edges[(p+n)%len(edges)]
			check(v)
		}
	}
	for _, x := range edges {
		v := []float64{x, x, x, x, x}
		check(v)
	}
}

// TestExpReplaysArchExp checks the replays the probe and the edge inputs
// are built on: on a CPU where the packed exp runs, math.Exp is the FMA
// replay on softmax- and SiLU-range inputs, and the SSE replay differs from
// it on some of them.
func TestExpReplaysArchExp(t *testing.T) {
	packedExpOrSkip(t)
	r := rng.New(0xA7C)
	splits := 0
	for i := 0; i < 20000; i++ {
		x := float64(float32(40*r.Float64() - 30))
		if got, want := expFMAReplay(x), math.Exp(x); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("FMA replay of exp(%v) = %v, math.Exp %v", x, got, want)
		}
		if expSSEReplay(x) != math.Exp(x) {
			splits++
		}
	}
	if splits == 0 {
		t.Fatal("the SSE replay never differs from math.Exp: the probe inputs would not tell the paths apart")
	}
}

// TestMathExpDigest pins math.Exp itself over 65536 softmax-range inputs.
// The committed goldens and digests are amd64 values, where math.Exp takes
// archExp's FMA path on every CPU with AVX and FMA. The pure-Go exp of
// math/exp.go (arm64's assembly computes the same) and amd64's SSE path
// round 16% and 9% of such inputs differently, so there attention, SiLU,
// sampling and autograd's sigmoid give other bits whatever the rest of the
// code does.
func TestMathExpDigest(t *testing.T) {
	r := rng.New(0xD16E)
	h := fnv.New64a()
	var b [8]byte
	for i := 0; i < 1<<16; i++ {
		x := float64(float32(-30 * r.Float64()))
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(math.Exp(x)))
		h.Write(b[:])
	}
	const want = 0x21001a62079af887
	if got := h.Sum64(); got != want {
		t.Fatalf("math.Exp digest %#016x, want %#016x: this platform's math.Exp is not amd64's FMA path "+
			"(arm64, or amd64 without FMA or under GODEBUG=cpu.fma=off), so every result that goes "+
			"through exp (attention, SiLU, sampling, autograd's sigmoid) differs from the committed "+
			"amd64 values (ROADMAP item 6)", got, want)
	}
}

// TestSiLUInPlaceEdges runs SiLUInPlace against its twin at every length
// 0–70 on random activations, with |x| > 708 (where −x leaves the packed
// range), ±0, subnormals, NaN and ±Inf at each position in turn.
func TestSiLUInPlaceEdges(t *testing.T) {
	packedExpOrSkip(t)
	r := rng.New(0x5117)
	inf := float32(math.Inf(1))
	edges := []float32{709, -709, 708, -708, math.Nextafter32(708, inf), math.Nextafter32(-708, -inf),
		750, -750, 1e30, -1e30, 0, float32(math.Copysign(0, -1)),
		math.Float32frombits(1), -math.Float32frombits(0x7fffff), float32(math.NaN()), inf, -inf}
	for _, x := range pathSplits(r, 4, -12, 12) {
		edges = append(edges, float32(x), -float32(x))
	}
	check := func(src []float32) {
		t.Helper()
		got := append([]float32(nil), src...)
		want := append([]float32(nil), src...)
		SiLUInPlace(got)
		siluGeneric(want)
		requireSameBits(t, "SiLUInPlace", got, want)
	}
	for n := 0; n <= 70; n++ {
		base := make([]float32, n)
		for i := range base {
			base[i] = float32(24*r.Float64() - 12)
		}
		check(base)
		for p := 0; p < n; p++ {
			v := append([]float32(nil), base...)
			v[p] = edges[(p+n)%len(edges)]
			check(v)
		}
	}
}

// scalarMax is the attention kernel's max: `if s > mx { mx = s }` in order.
func scalarMax(mx float32, s []float32) float32 {
	for _, x := range s {
		if x > mx {
			mx = x
		}
	}
	return mx
}

// TestAttnSoftmaxEdges runs AttnSoftmax against its twin on 1–3 rows of
// every length 0–70 with a row stride beyond the length. Each row's max is
// its scalar max. Runs put one special score at each position: a NaN, a
// −Inf, a tie with the max, a score more than 708 below the max (its
// difference leaves the packed range) and ±0. Another run's numerators lie
// near 2⁻⁵³ beside a 1, where the float64 sum rounds differently in any
// other order, and the last run's rows hold only ±0 around a max of ±0.
func TestAttnSoftmaxEdges(t *testing.T) {
	packedExpOrSkip(t)
	r := rng.New(0x50F7)
	negZero := float32(math.Copysign(0, -1))
	check := func(what string, s []float32, n, ld int, mx []float32) {
		t.Helper()
		got, want := append([]float32(nil), s...), append([]float32(nil), s...)
		gs, ws := make([]float64, len(mx)), make([]float64, len(mx))
		AttnSoftmax(got, n, ld, mx, gs)
		attnSoftmaxGeneric(want, n, ld, mx, ws)
		requireSameBits(t, what+" numerators", got, want)
		requireSameBits64(t, what+" sums", gs, ws)
	}
	for rows := 1; rows <= 3; rows++ {
		for n := 0; n <= 70; n++ {
			ld := n + 3
			s := make([]float32, rows*ld)
			for i := range s {
				s[i] = float32(40*r.Float64() - 20)
			}
			maxes := func(s []float32) []float32 {
				mx := make([]float32, rows)
				for h := range mx {
					mx[h] = scalarMax(float32(math.Inf(-1)), s[h*ld:][:n])
				}
				return mx
			}
			check("random", s, n, ld, maxes(s))
			for p := 0; p < n; p++ {
				v := append([]float32(nil), s...)
				h := p % rows
				row := v[h*ld:][:n]
				mx := scalarMax(float32(math.Inf(-1)), row)
				switch p % 5 {
				case 0:
					row[p] = float32(math.NaN())
				case 1:
					row[p] = float32(math.Inf(-1))
				case 2:
					row[p] = mx
				case 3:
					row[p] = mx - 800
				case 4:
					row[p] = negZero
				}
				check("special", v, n, ld, maxes(v))
			}
			// Numerators near 2⁻⁵³ beside a max's 1 sit at float64's rounding
			// edge, so the sum's bits depend on its order.
			o := make([]float32, rows*ld)
			for i := range o {
				o[i] = float32(-35 - 3.5*r.Float64())
				if i%ld == 0 {
					o[i] = 0
				}
			}
			check("order", o, n, ld, maxes(o))
			z := make([]float32, rows*ld)
			for i := range z {
				if r.Intn(2) == 0 {
					z[i] = negZero
				}
			}
			zm := make([]float32, rows)
			for h := range zm {
				if h%2 == 0 {
					zm[h] = negZero
				}
			}
			check("zeros", z, n, ld, zm)
		}
	}
}

// TestAttnSoftmaxSumOrder pins the float64 sum's position order on a row
// (found by search) whose sum has other bits if each block of four adds
// its first two lanes in the other order.
func TestAttnSoftmaxSumOrder(t *testing.T) {
	packedExpOrSkip(t)
	row := []float32{-0.023109568, -4.9745407, -10.447024, -0.3148048, -0.30724826, -35.990005, -14.810701, -4.0079765}
	got, want := append([]float32(nil), row...), append([]float32(nil), row...)
	gs, ws := make([]float64, 1), make([]float64, 1)
	AttnSoftmax(got, len(row), len(row), []float32{0}, gs)
	attnSoftmaxGeneric(want, len(row), len(row), []float32{0}, ws)
	requireSameBits(t, "numerators", got, want)
	requireSameBits64(t, "sum", gs, ws)
	var swapped float64
	for _, i := range []int{1, 0, 2, 3, 5, 4, 6, 7} {
		swapped += float64(want[i])
	}
	if swapped == ws[0] {
		t.Fatal("the row no longer tells the sum's order apart")
	}
}

// TestAttnSoftmaxZeroMaxSign pins why a packed max may carry either sign of
// zero: a max of +0 and a max of −0 give the same numerators and sums,
// since every difference with ±0 is the same value up to a zero's sign and
// exp(±0) = 1.
func TestAttnSoftmaxZeroMaxSign(t *testing.T) {
	r := rng.New(0x2E20)
	for n := 1; n <= 20; n++ {
		s := make([]float32, n)
		for i := range s {
			switch r.Intn(3) {
			case 0:
				s[i] = float32(math.Copysign(0, -1))
			case 1:
				s[i] = -float32(10 * r.Float64())
			}
		}
		pos, neg := append([]float32(nil), s...), append([]float32(nil), s...)
		ps, ns := make([]float64, 1), make([]float64, 1)
		AttnSoftmax(pos, n, n, []float32{0}, ps)
		AttnSoftmax(neg, n, n, []float32{float32(math.Copysign(0, -1))}, ns)
		requireSameBits(t, "numerators under ±0 max", pos, neg)
		requireSameBits64(t, "sums under ±0 max", ps, ns)
	}
}

// sameMax reports whether two maxes carry the same bits, or are zeros of
// either sign (the one freedom the packed max has).
func sameMax(a, b float32) bool {
	return math.Float32bits(a) == math.Float32bits(b) || (a == 0 && b == 0)
}

// TestAttnScoresEdges runs AttnScores against its twin for one head and a
// pair, at head sizes 1, 3, 4, 8, 12 and 16, every count of positions
// 1–70 and a column stride beyond it, with ±0 and subnormal queries and
// keys. Runs put a NaN key at each position in turn, tie two positions,
// start the max at ±0, and flip the scale's sign so scores of −0 and +0
// meet in the max.
func TestAttnScoresEdges(t *testing.T) {
	packedOrSkip(t)
	r := rng.New(0x5C0E)
	for _, dh := range []int{1, 3, 4, 8, 12, 16} {
		for n := 1; n <= 70; n++ {
			ld := n + 5
			k := edgeSlice(r, dh*ld, 0.8)
			q0, q1 := edgeSlice(r, dh, 0.8), edgeSlice(r, dh, 0.8)
			run := func(what string, k []float32, scale, mx0, mx1 float32) {
				t.Helper()
				for _, pair := range []bool{false, true} {
					g0, w0 := make([]float32, n), make([]float32, n)
					var g1, w1, qq []float32
					if pair {
						g1, w1, qq = make([]float32, n), make([]float32, n), q1
					}
					gm0, gm1 := AttnScores(g0, g1, q0, qq, k, ld, scale, mx0, mx1)
					wm0, wm1 := attnScoresPair(w0, w1, q0, qq, k, ld, scale, mx0, mx1)
					requireSameBits(t, what+" scores", g0, w0)
					requireSameBits(t, what+" pair scores", g1, w1)
					if !sameMax(gm0, wm0) || !sameMax(gm1, wm1) {
						t.Fatalf("%s dh=%d n=%d pair=%v: max %v, %v; twin %v, %v", what, dh, n, pair, gm0, gm1, wm0, wm1)
					}
				}
			}
			ninf := float32(math.Inf(-1))
			run("random", k, 0.35, ninf, ninf)
			run("negative scale", k, -0.35, 0, float32(math.Copysign(0, -1)))
			zk := make([]float32, len(k))
			run("zero keys", zk, 0.35, float32(math.Copysign(0, -1)), ninf)
			run("zero keys, negative scale", zk, -0.35, ninf, 0)
			for p := 0; p < n; p++ {
				v := append([]float32(nil), k...)
				v[(p%dh)*ld+p] = float32(math.NaN())
				if p+1 < n {
					for c := 0; c < dh; c++ { // position p+1 ties position p's neighbour
						v[c*ld+(p+1)] = v[c*ld+(p+n-1)%n]
					}
				}
				run("NaN key", v, 0.35, ninf, 1)
			}
		}
	}
}

// TestAttnValuesEdges runs AttnValues against its twin for one head and a
// pair, at head sizes 1–17 and 24 (every 8-, 4- and 1-column split), every
// count of positions 1–70 and a row stride beyond the head, from random
// partial sums with ±0 and subnormals; weights include zeros, and runs put
// a NaN, an Inf or an Inf against a zero weight at each position.
func TestAttnValuesEdges(t *testing.T) {
	packedOrSkip(t)
	r := rng.New(0x7A1E)
	dhs := []int{24}
	for dh := 1; dh <= 17; dh++ {
		dhs = append(dhs, dh)
	}
	for _, dh := range dhs {
		for n := 1; n <= 70; n++ {
			ld := dh + 3
			v := edgeSlice(r, n*ld, 0.9)
			w0, w1 := make([]float32, n), make([]float32, n)
			for i := range w0 {
				w0[i], w1[i] = r.Float32(), r.Float32()
				if r.Intn(5) == 0 {
					w0[i] = 0
				}
			}
			o0, o1 := edgeSlice(r, dh, 0.7), edgeSlice(r, dh, 0.7)
			run := func(what string, v []float32) {
				t.Helper()
				for _, pair := range []bool{false, true} {
					g0, x0 := append([]float32(nil), o0...), append([]float32(nil), o0...)
					var g1, x1, ww []float32
					if pair {
						g1, x1, ww = append([]float32(nil), o1...), append([]float32(nil), o1...), w1
					}
					AttnValues(g0, g1, w0, ww, v, ld, 0.013, 0.41)
					attnValuesPair(x0, x1, w0, ww, v, ld, 0.013, 0.41)
					requireSameBits(t, what, g0, x0)
					requireSameBits(t, what+" pair", g1, x1)
				}
			}
			run("random", v)
			specials := []float32{float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1))}
			for p := 0; p < n; p++ {
				vv := append([]float32(nil), v...)
				vv[p*ld+p%dh] = specials[p%len(specials)]
				run("special value", vv)
			}
		}
	}
}
