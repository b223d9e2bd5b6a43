package analog

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"nora/internal/nn"
	"nora/internal/rng"
	"nora/internal/stats"
	"nora/internal/tensor"
)

func randMat(seed uint64, rows, cols int) *tensor.Matrix {
	r := rng.New(seed)
	m := tensor.New(rows, cols)
	r.FillNormal(m.Data, 0, 1)
	return m
}

func randVec(seed uint64, n int) []float32 {
	r := rng.New(seed)
	v := make([]float32, n)
	r.FillNormal(v, 0, 1)
	return v
}

func TestIdealTileMatchesExactMVM(t *testing.T) {
	w := randMat(1, 24, 16)
	tile := NewTile(Ideal(), w, rng.New(2))
	x := randVec(3, 24)
	got := tile.MVMRow(x, rng.New(4))
	want := tensor.VecMul(x, w)
	for j := range want {
		if math.Abs(float64(got[j]-want[j])) > 1e-4*(1+math.Abs(float64(want[j]))) {
			t.Fatalf("ideal tile diverges at %d: %v vs %v", j, got[j], want[j])
		}
	}
}

func TestIdealTileProperty(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		rows, cols := 2+r.Intn(30), 2+r.Intn(30)
		w := tensor.New(rows, cols)
		r.FillNormal(w.Data, 0, 1)
		x := make([]float32, rows)
		r.FillNormal(x, 0, 2)
		tile := NewTile(Ideal(), w, r.Split("prog"))
		got := tile.MVMRow(x, r.Split("read"))
		want := tensor.VecMul(x, w)
		for j := range want {
			if math.Abs(float64(got[j]-want[j])) > 2e-4*(1+math.Abs(float64(want[j]))) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestZeroInputGivesZeroOutput(t *testing.T) {
	w := randMat(5, 8, 8)
	tile := NewTile(PaperPreset(), w, rng.New(6))
	got := tile.MVMRow(make([]float32, 8), rng.New(7))
	for _, v := range got {
		if v != 0 {
			t.Fatal("zero input must give exactly zero output (α = 0 short-circuit)")
		}
	}
}

func TestZeroWeightColumn(t *testing.T) {
	w := randMat(8, 6, 4)
	for i := 0; i < 6; i++ {
		w.Set(i, 2, 0)
	}
	tile := NewTile(Ideal(), w, rng.New(9))
	got := tile.MVMRow(randVec(10, 6), rng.New(11))
	if got[2] != 0 {
		t.Fatalf("all-zero column must output 0, got %v", got[2])
	}
}

func TestTileDeterminism(t *testing.T) {
	w := randMat(12, 16, 16)
	x := randVec(13, 16)
	mk := func() []float32 {
		tile := NewTile(PaperPreset(), w, rng.New(14))
		return tile.MVMRow(x, rng.New(15))
	}
	a, b := mk(), mk()
	for j := range a {
		if a[j] != b[j] {
			t.Fatal("same seeds must reproduce identical noisy MVMs")
		}
	}
}

func TestDACQuantizationErrorBounded(t *testing.T) {
	cfg := WithOnly(func(c *Config) { c.InSteps = StepsForBits(7) })
	w := randMat(16, 32, 32)
	tile := NewTile(cfg, w, rng.New(17))
	x := randVec(18, 32)
	got := tile.MVMRow(x, rng.New(19))
	want := tensor.VecMul(x, w)
	mse := stats.MSE(got, want)
	if mse == 0 {
		t.Fatal("7-bit DAC should introduce some error")
	}
	// error must shrink with more bits
	cfg12 := WithOnly(func(c *Config) { c.InSteps = StepsForBits(12) })
	tile12 := NewTile(cfg12, w, rng.New(17))
	mse12 := stats.MSE(tile12.MVMRow(x, rng.New(19)), want)
	if mse12 >= mse {
		t.Fatalf("12-bit DAC error %v not below 7-bit %v", mse12, mse)
	}
}

func TestADCQuantizationError(t *testing.T) {
	w := randMat(20, 32, 32)
	x := randVec(21, 32)
	want := tensor.VecMul(x, w)
	mse := func(bits int) float64 {
		cfg := WithOnly(func(c *Config) { c.OutSteps = StepsForBits(bits) })
		tile := NewTile(cfg, w, rng.New(22))
		return stats.MSE(tile.MVMRow(x, rng.New(23)), want)
	}
	if mse(5) <= mse(9) {
		t.Fatal("coarser ADC must hurt more")
	}
}

func TestOutputNoiseVariance(t *testing.T) {
	// With only output noise, y_j = α·c_j·(z + σ_out·ξ): the deviation's
	// std over reads should be ≈ α·c_j·σ_out.
	const sigma = 0.1
	cfg := WithOnly(func(c *Config) { c.OutNoise = sigma })
	w := randMat(24, 16, 4)
	tile := NewTile(cfg, w, rng.New(25))
	x := randVec(26, 16)
	want := tensor.VecMul(x, w)
	alpha := tensor.AbsMaxVec(x)
	r := rng.New(27)
	const n = 3000
	for j := 0; j < 4; j++ {
		var sum2 float64
		for i := 0; i < n; i++ {
			got := tile.MVMRow(x, r)
			d := float64(got[j] - want[j])
			sum2 += d * d
		}
		std := math.Sqrt(sum2 / n)
		expect := float64(alpha) * float64(tile.ColScales()[j]) * sigma
		if math.Abs(std-expect) > 0.25*expect {
			t.Fatalf("col %d: output-noise std %v, expected ≈%v", j, std, expect)
		}
	}
}

func TestWeightReadNoiseVariance(t *testing.T) {
	// With only w-noise, deviation std ≈ α·c_j·σ_w·‖x̂‖.
	const sigma = 0.05
	cfg := WithOnly(func(c *Config) { c.WNoise = sigma })
	w := randMat(28, 16, 3)
	tile := NewTile(cfg, w, rng.New(29))
	x := randVec(30, 16)
	want := tensor.VecMul(x, w)
	alpha := tensor.AbsMaxVec(x)
	var xn float64
	for _, v := range x {
		u := float64(v / alpha)
		xn += u * u
	}
	xnorm := math.Sqrt(xn)
	r := rng.New(31)
	const n = 3000
	var sum2 float64
	for i := 0; i < n; i++ {
		got := tile.MVMRow(x, r)
		d := float64(got[0] - want[0])
		sum2 += d * d
	}
	std := math.Sqrt(sum2 / n)
	expect := float64(alpha) * float64(tile.ColScales()[0]) * sigma * xnorm
	if math.Abs(std-expect) > 0.25*expect {
		t.Fatalf("w-noise std %v, expected ≈%v", std, expect)
	}
}

func TestInputNoisePropagates(t *testing.T) {
	cfg := WithOnly(func(c *Config) { c.InNoise = 0.05 })
	w := randMat(32, 16, 8)
	tile := NewTile(cfg, w, rng.New(33))
	x := randVec(34, 16)
	want := tensor.VecMul(x, w)
	got := tile.MVMRow(x, rng.New(35))
	if stats.MSE(got, want) == 0 {
		t.Fatal("input noise had no effect")
	}
}

func TestProgrammingNoisePersistsAcrossReads(t *testing.T) {
	cfg := WithOnly(func(c *Config) { c.ProgNoiseScale = 3 })
	w := randMat(36, 16, 8)
	tile := NewTile(cfg, w, rng.New(37))
	x := randVec(38, 16)
	want := tensor.VecMul(x, w)
	a := tile.MVMRow(x, rng.New(39))
	b := tile.MVMRow(x, rng.New(40))
	if stats.MSE(a, want) == 0 {
		t.Fatal("programming noise had no effect")
	}
	for j := range a {
		if a[j] != b[j] {
			t.Fatal("programming noise must be frozen at program time (reads deterministic)")
		}
	}
}

func TestBoundManagementRecoversSaturation(t *testing.T) {
	// All-positive weights and inputs drive z toward rows ≫ OutBound.
	rows := 64
	w := tensor.New(rows, 2)
	w.Fill(0.5)
	x := make([]float32, rows)
	for i := range x {
		x[i] = 1
	}
	want := tensor.VecMul(x, w)

	mk := func(bm bool) []float32 {
		cfg := Ideal()
		cfg.OutBound = 12
		cfg.BoundManagement = bm
		cfg.BMMaxIter = 4
		tile := NewTile(cfg, w, rng.New(41))
		return tile.MVMRow(x, rng.New(42))
	}
	noBM := mk(false)
	withBM := mk(true)
	errNo := stats.MSE(noBM, want)
	errBM := stats.MSE(withBM, want)
	if errNo < 1 {
		t.Fatalf("test vector failed to saturate (err %v)", errNo)
	}
	if errBM > errNo/100 {
		t.Fatalf("bound management did not recover: %v vs %v", errBM, errNo)
	}
}

func TestIRDropShrinksLoadedColumns(t *testing.T) {
	rows := 32
	w := tensor.New(rows, 2)
	for i := 0; i < rows; i++ {
		w.Set(i, 0, 1)    // column 0: heavy load
		w.Set(i, 1, 0.01) // column 1: light load
	}
	w.Set(0, 1, 1) // keep col scales comparable
	x := make([]float32, rows)
	for i := range x {
		x[i] = 1
	}
	cfg := WithOnly(func(c *Config) { c.IRDropScale = 1 })
	cfg.OutBound = 1e9 // isolate IR-drop from saturation
	tile := NewTile(cfg, w, rng.New(43))
	got := tile.MVMRow(x, rng.New(44))
	want := tensor.VecMul(x, w)
	rel0 := float64((want[0] - got[0]) / want[0])
	rel1 := float64((want[1] - got[1]) / want[1])
	if rel0 <= 0 {
		t.Fatalf("heavily loaded column must droop, rel err %v", rel0)
	}
	if rel0 <= rel1 {
		t.Fatalf("heavy column droop %v must exceed light column %v", rel0, rel1)
	}
	// deterministic
	again := tile.MVMRow(x, rng.New(45))
	if got[0] != again[0] {
		t.Fatal("IR-drop must be deterministic")
	}
}

func TestSShapeCompressesLargeOutputs(t *testing.T) {
	rows := 32
	w := tensor.New(rows, 1)
	w.Fill(1)
	x := make([]float32, rows)
	for i := range x {
		x[i] = 1
	}
	cfg := WithOnly(func(c *Config) { c.SShape = 2 })
	cfg.BoundManagement = false
	tile := NewTile(cfg, w, rng.New(46))
	got := tile.MVMRow(x, rng.New(47))
	want := tensor.VecMul(x, w)
	if got[0] >= want[0] {
		t.Fatalf("s-shape must compress: %v vs %v", got[0], want[0])
	}
}

func TestDriftReducesConductance(t *testing.T) {
	w := randMat(48, 16, 8)
	cfg := Ideal()
	tile := NewTile(cfg, w, rng.New(49))
	x := randVec(50, 16)
	fresh := tile.MVMRow(x, rng.New(51))
	tile.SetTime(3600) // 1 hour, the paper's drift experiment
	drifted := tile.MVMRow(x, rng.New(51))
	var magF, magD float64
	for j := range fresh {
		magF += math.Abs(float64(fresh[j]))
		magD += math.Abs(float64(drifted[j]))
	}
	if magD >= magF {
		t.Fatalf("drift must shrink outputs: %v → %v", magF, magD)
	}
	// drift also raises the read-noise floor
	if tile.readStd <= 0 {
		t.Fatal("1/f read noise must grow with time")
	}
	// back to t=0 restores exactness
	tile.SetTime(0)
	restored := tile.MVMRow(x, rng.New(51))
	for j := range fresh {
		if restored[j] != fresh[j] {
			t.Fatal("SetTime(0) must restore programmed state")
		}
	}
}

func TestDriftCompensationRecoversScale(t *testing.T) {
	w := randMat(52, 32, 8)
	x := randVec(53, 32)
	want := tensor.VecMul(x, w)

	run := func(comp bool) float64 {
		cfg := Ideal()
		cfg.DriftT = 3600
		cfg.DriftCompensation = comp
		tile := NewTile(cfg, w, rng.New(54))
		got := tile.MVMRow(x, rng.New(55))
		return stats.MSE(got, want)
	}
	if c, n := run(true), run(false); c >= n {
		t.Fatalf("drift compensation must reduce error: %v vs %v", c, n)
	}
}

func TestNMConstantClipsOutliers(t *testing.T) {
	w := randMat(56, 8, 4)
	x := []float32{5, 0.1, -0.2, 0.3, 0.1, -0.1, 0.2, 0.05} // outlier at 0
	cfg := Ideal()
	cfg.NM = NMConstant
	cfg.AlphaConst = 1 // DAC range ±1 → the 5 clips hard
	tile := NewTile(cfg, w, rng.New(57))
	got := tile.MVMRow(x, rng.New(58))
	want := tensor.VecMul(x, w)
	if stats.MSE(got, want) < 1e-3 {
		t.Fatal("constant-α with outlier input must clip and err")
	}
}

func TestTileTooBigPanics(t *testing.T) {
	cfg := Ideal()
	cfg.TileRows, cfg.TileCols = 4, 4
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewTile(cfg, tensor.New(8, 2), rng.New(59))
}

func TestMVMRowLengthPanics(t *testing.T) {
	tile := NewTile(Ideal(), tensor.New(4, 2), rng.New(60))
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	tile.MVMRow(make([]float32, 5), rng.New(61))
}

// progDigest is the FNV-1a digest TestTileProgrammingDigest computes,
// fixed with the per-cell NormFloat32 programming loops from before those
// loops drew their normals through FillNormal.
const progDigest = 0xade9a3a3fdf27ed0

// TestTileProgrammingDigest pins the programmed state of a tile — weights
// after programming noise and write-verify, drift exponents, effective
// weights after drift — for the signed and differential mappings, with and
// without write-verify. The 37×29 slice is odd-sized, so every fill ends
// on a cached half pair.
func TestTileProgrammingDigest(t *testing.T) {
	h := fnv.New64a()
	var word [4]byte
	put := func(v []float32) {
		for _, x := range v {
			binary.LittleEndian.PutUint32(word[:], math.Float32bits(x))
			h.Write(word[:])
		}
	}
	for _, diff := range []bool{false, true} {
		for _, wv := range []int{0, 2} {
			cfg := PaperPreset()
			cfg.DifferentialPair = diff
			cfg.WriteVerify = wv
			cfg.DriftT = 3600
			tile := NewTile(cfg, randMat(41, 37, 29), rng.New(43).Split("tile"))
			put(tile.wProg.Data)
			put(tile.wEff.Data)
			for _, nu := range []*tensor.Matrix{tile.nu, tile.nuPlus, tile.nuMinus} {
				if nu != nil {
					put(nu.Data)
				}
			}
		}
	}
	if got := h.Sum64(); got != progDigest {
		t.Fatalf("programming digest = %#x, want %#x", got, uint64(progDigest))
	}
}

// readDigest is the FNV-1a digest TestTileReadDigest computes, fixed with
// the four-row SSE2 accumulation kernel and the separate |x̂| load matmul
// that phase 1 of the tile read used before the AVX2 panel kernels.
const readDigest = 0x4adac4cd008227e4

// readInputs returns a T×width input block. The "nora" kind is what a
// rescaled layer streams: an outlier-heavy block divided channel-wise by
// s_k = √max|x_k|, so its outliers are tamed. The "outlier" kind keeps the
// raw block, with four 30× outlier channels, and silences rows: row 1 is
// all zero and, when the block spans two tile row blocks, row 2 is zero
// only over the first block's channels (cut).
func readInputs(kind string, seed uint64, T, width, cut int) *tensor.Matrix {
	x := randMat(seed, T, width)
	for _, ch := range []int{3, 11, 20, 33} {
		if ch >= width {
			continue
		}
		for i := 0; i < T; i++ {
			x.Data[i*width+ch] *= 30
		}
	}
	if kind == "nora" {
		s := x.AbsMaxPerCol()
		for k := range s {
			s[k] = float32(math.Sqrt(float64(s[k])))
		}
		for i := 0; i < T; i++ {
			row := x.Row(i)
			for k := range row {
				row[k] /= s[k]
			}
		}
		return x
	}
	if T > 1 {
		for k := range x.Row(1) {
			x.Row(1)[k] = 0
		}
	}
	if T > 2 && cut > 0 {
		for k := range x.Row(2)[:cut] {
			x.Row(2)[k] = 0
		}
	}
	return x
}

// TestTileReadDigest pins the bytes an analog read returns — the whole
// chain of Eq. 5 and Eq. 3: α, DAC conversion, the crossbar MAC, IR-drop
// load, noise, ADC, bound-management retries and the digital rescale. The
// harness goldens and determinism tests compare implementations that
// share the tensor kernels; this digest is what notices a kernel that
// changes bits everywhere. The grid: signed and differential mappings,
// IR-drop on and off, bound management that retries and none, rescaled and
// outlier-heavy inputs with silent rows, T ∈ {1, 3, 64}, read through a
// 37×29 tile and a sliced tile (MVMBatchInto) and through a 2×2 tile grid
// with and without a NORA vector installed (AnalogLinear.ForwardInto). A
// second digest, layerDigest, pins the layer reads of every read mode
// (layerReadDigest).
func TestTileReadDigest(t *testing.T) {
	h := fnv.New64a()
	var word [4]byte
	put := func(m *tensor.Matrix) {
		for _, x := range m.Data {
			binary.LittleEndian.PutUint32(word[:], math.Float32bits(x))
			h.Write(word[:])
		}
	}
	const in, out = 40, 30 // a 2×2 grid of 24×16 tiles
	w := randMat(71, 37, 29)
	wl := randMat(72, in, out)
	s := randVec(73, in)
	for k := range s {
		s[k] = 0.5 + s[k]*s[k]
	}
	for _, diff := range []bool{false, true} {
		for _, ir := range []float32{0, 1} {
			for _, bm := range []bool{true, false} {
				cfg := PaperPreset()
				cfg.DifferentialPair = diff
				cfg.IRDropScale = ir
				cfg.BoundManagement = bm
				cfg.OutBound = 3 // low enough that rescaled rows saturate
				cfg.TileRows, cfg.TileCols = 64, 64
				tile := NewTile(cfg, w, rng.New(74))
				sliced := NewSlicedTile(cfg, w, 2, 4, rng.New(75))
				gcfg := cfg
				gcfg.TileRows, gcfg.TileCols = 24, 16
				plain := NewAnalogLinear("plain", wl, nil, nil, gcfg, rng.New(76))
				nora := NewAnalogLinear("nora", wl, nil, s, gcfg, rng.New(77))
				rt, rs := rng.New(78), rng.New(79)
				for _, kind := range []string{"nora", "outlier"} {
					for _, T := range []int{1, 3, 64} {
						xs := readInputs(kind, uint64(80+T), T, 37, 0)
						for _, tl := range []struct {
							m mvmTile
							r *rng.Rand
						}{{tile, rt}, {sliced, rs}} {
							dst := tensor.New(T, 29)
							tl.m.MVMBatchInto(1, dst, xs, tl.r)
							put(dst)
						}
						layer := plain
						if kind == "nora" {
							layer = nora
						}
						xl := readInputs("outlier", uint64(90+T), T, in, 24)
						y := tensor.New(T, out)
						layer.ForwardInto(y, xl)
						put(y)
					}
				}
				retries := tile.CounterSnapshot().BMRetries + sliced.CounterSnapshot().BMRetries +
					plain.CostCounters().BMRetries + nora.CostCounters().BMRetries
				if bm && retries == 0 {
					t.Fatalf("diff=%v ir=%v: bound management never retried; the grid lost its retry arm", diff, ir)
				}
			}
		}
	}
	if got := h.Sum64(); got != readDigest {
		t.Fatalf("read digest = %#x, want %#x", got, uint64(readDigest))
	}
	if got := layerReadDigest(t); got != layerDigest {
		t.Fatalf("layer digest = %#x, want %#x", got, uint64(layerDigest))
	}
}

// layerDigest is the FNV-1a digest layerReadDigest computes. It was fixed
// while AnalogLinear still had a row-at-a-time read loop beside the
// batched one, and three read schedules gave it: the row loop, 64-row
// chunks, and 7-row chunks with the phase-1 MACs on three goroutines.
const layerDigest = 0x1ef25a2dbb870319

// layerReadDigest hashes what AnalogLinear returns in every read mode of
// determinismConfigs, plus a tight-OutBound variant of the paper,
// bit-serial, input-noise and sliced modes that forces bound-management
// retries. It covers ForwardInto and ForwardIntoRowScoped outputs and the
// layer's event counters, with and without a NORA vector. T ∈ {1, 3,
// 2·64+2}: the longest block crosses two 64-row chunk boundaries. Row 1 is
// silent, and row 2 is silent over the first row block's channels. The
// row-scoped read cycles three scopes, so one stream serves several rows
// of a block. Every tight arm must retry.
func layerReadDigest(t *testing.T) uint64 {
	h := fnv.New64a()
	var word [8]byte
	put := func(m *tensor.Matrix) {
		for _, x := range m.Data {
			binary.LittleEndian.PutUint32(word[:4], math.Float32bits(x))
			h.Write(word[:4])
		}
	}
	putCounters := func(c OpCounters) {
		for _, v := range []int64{c.MVMs, c.DACConvs, c.ADCConvs, c.CellReads, c.BMRetries} {
			binary.LittleEndian.PutUint64(word[:], uint64(v))
			h.Write(word[:])
		}
	}
	cfgs := determinismConfigs()
	for _, name := range []string{"paper", "bitserial", "innoise", "sliced"} {
		c := cfgs[name]
		c.OutBound = 0.5
		c.BMMaxIter = 3
		cfgs[name+"-tight"] = c
	}
	names := make([]string, 0, len(cfgs))
	for name := range cfgs {
		names = append(names, name)
	}
	sort.Strings(names)

	const in, out = 40, 30 // a 3×3 grid of 16×12 tiles
	w := randMat(201, in, out)
	bias := randVec(202, out)
	sv := randVec(203, in)
	for k := range sv {
		sv[k] = 0.5 + sv[k]*sv[k]
	}
	for _, name := range names {
		for _, rescale := range []bool{false, true} {
			var s []float32
			if rescale {
				s = sv
			}
			l := NewAnalogLinear("l", w, bias, s, cfgs[name], rng.New(204))
			views := []nn.LinearOp{l.WithNoiseScope("a"), l.WithNoiseScope("b"), l.WithNoiseScope("c")}
			for _, T := range []int{1, 3, 2*64 + 2} {
				x := readInputs("outlier", uint64(210+T), T, in, 16)
				y := tensor.New(T, out)
				l.ForwardInto(y, x)
				put(y)
				scopes := make([]nn.LinearOp, T)
				for i := range scopes {
					scopes[i] = views[i%len(views)]
				}
				l.ForwardIntoRowScoped(y, x, scopes)
				put(y)
				putCounters(l.CostCounters())
			}
			if strings.HasSuffix(name, "-tight") && l.CostCounters().BMRetries == 0 {
				t.Fatalf("%s rescale=%v: bound management never retried; the tight arm lost its retries", name, rescale)
			}
		}
	}
	return h.Sum64()
}
