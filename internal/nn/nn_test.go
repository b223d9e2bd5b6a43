package nn

import (
	"bytes"
	"math"
	"testing"

	"nora/internal/autograd"
	"nora/internal/rng"
	"nora/internal/tensor"
)

func optConfig() Config {
	return Config{
		Name: "opt-test", Arch: ArchOPT,
		Vocab: 31, DModel: 32, NHeads: 4, NLayers: 2, DFF: 64, MaxSeq: 24,
	}
}

func llamaConfig() Config {
	return Config{
		Name: "llama-test", Arch: ArchLLaMA,
		Vocab: 31, DModel: 32, NHeads: 4, NLayers: 2, DFF: 48, MaxSeq: 24,
		RoPEBase: 10000,
	}
}

func TestConfigValidate(t *testing.T) {
	good := optConfig()
	if err := good.Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	bad := good
	bad.NHeads = 5 // 32 % 5 != 0
	if bad.Validate() == nil {
		t.Fatal("divisibility violation accepted")
	}
	bad = good
	bad.Vocab = 0
	if bad.Validate() == nil {
		t.Fatal("zero vocab accepted")
	}
	bad = llamaConfig()
	bad.RoPEBase = 0
	if bad.Validate() == nil {
		t.Fatal("llama without RoPE base accepted")
	}
	bad = llamaConfig()
	bad.NHeads = 32 // head dim 1 is odd
	if bad.Validate() == nil {
		t.Fatal("odd RoPE head dim accepted")
	}
	bad = good
	bad.Window = -1
	if bad.Validate() == nil {
		t.Fatal("negative window accepted")
	}
}

func TestArchString(t *testing.T) {
	if ArchOPT.String() != "opt" || ArchLLaMA.String() != "llama" {
		t.Fatal("Arch.String wrong")
	}
	if Arch(9).String() == "" {
		t.Fatal("unknown arch should still render")
	}
}

func TestNewModelParamCount(t *testing.T) {
	for _, cfg := range []Config{optConfig(), llamaConfig()} {
		m, err := NewModel(cfg, rng.New(1))
		if err != nil {
			t.Fatal(err)
		}
		d, ff, v := cfg.DModel, cfg.DFF, cfg.Vocab
		var want int
		if cfg.Arch == ArchOPT {
			perBlock := 2*d + 4*(d*d+d) + 2*d + d*ff + ff + ff*d + d
			want = v*d + cfg.MaxSeq*d + cfg.NLayers*perBlock + 2*d + d*v
		} else {
			perBlock := d + 4*d*d + d + 2*d*ff + ff*d
			want = v*d + cfg.NLayers*perBlock + d + d*v
		}
		if got := m.NumParams(); got != want {
			t.Fatalf("%s: NumParams = %d, want %d", cfg.Name, got, want)
		}
	}
}

func TestLinearsEnumeration(t *testing.T) {
	mOPT, _ := NewModel(optConfig(), rng.New(2))
	specs := mOPT.Linears()
	if len(specs) != 2*6 {
		t.Fatalf("OPT linears = %d, want 12", len(specs))
	}
	if specs[0].Name != "layer0.attn.q" || specs[0].B == nil {
		t.Fatalf("OPT spec[0] = %+v", specs[0].Name)
	}
	if specs[4].Name != "layer0.mlp.fc1" || specs[4].W.Cols != 64 {
		t.Fatalf("OPT spec[4] = %v %dx%d", specs[4].Name, specs[4].W.Rows, specs[4].W.Cols)
	}

	mLL, _ := NewModel(llamaConfig(), rng.New(3))
	specs = mLL.Linears()
	if len(specs) != 2*7 {
		t.Fatalf("LLaMA linears = %d, want 14", len(specs))
	}
	for _, s := range specs {
		if s.B != nil {
			t.Fatalf("LLaMA linear %s must be bias-free", s.Name)
		}
	}
}

func TestCausalMask(t *testing.T) {
	m := CausalMask(4, 0)
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			v := m.At(i, j)
			if j <= i && v != 0 {
				t.Fatalf("mask[%d,%d] = %v, want 0", i, j, v)
			}
			if j > i && v > -1e8 {
				t.Fatalf("mask[%d,%d] = %v, want -inf-ish", i, j, v)
			}
		}
	}
	// sliding window of 2: position 3 may attend to {2,3} only
	w := CausalMask(4, 2)
	if w.At(3, 1) > -1e8 || w.At(3, 2) != 0 || w.At(3, 3) != 0 {
		t.Fatal("window mask wrong")
	}
}

// The inference Runner must agree with the autograd training forward — this
// pins the two implementations of every kernel (LN, RMSNorm, attention,
// RoPE, MLP) against each other.
func TestRunnerMatchesTrainingForward(t *testing.T) {
	for _, cfg := range []Config{optConfig(), llamaConfig()} {
		cfg := cfg
		t.Run(cfg.Name, func(t *testing.T) {
			m, err := NewModel(cfg, rng.New(4))
			if err != nil {
				t.Fatal(err)
			}
			tokens := []int{5, 1, 29, 8, 0, 17, 3, 3, 11}
			tp := autograd.NewTape()
			want := m.ForwardTrain(tp, tokens).Val
			got := allLogits(NewRunner(m), tokens)
			if !got.AllClose(want, 2e-4*(1+want.AbsMax())) {
				t.Fatalf("runner and training forward diverge (max |Δ| over %v)", want.AbsMax())
			}
		})
	}
}

func TestRunnerWindowAttention(t *testing.T) {
	cfg := llamaConfig()
	cfg.Window = 3
	m, err := NewModel(cfg, rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	tokens := []int{1, 2, 3, 4, 5, 6, 7, 8}
	tp := autograd.NewTape()
	want := m.ForwardTrain(tp, tokens).Val
	got := allLogits(NewRunner(m), tokens)
	if !got.AllClose(want, 2e-4*(1+want.AbsMax())) {
		t.Fatal("windowed runner and training forward diverge")
	}
	// windowed attention must differ from full attention
	cfgFull := llamaConfig()
	mFull, _ := NewModel(cfgFull, rng.New(5))
	full := allLogits(NewRunner(mFull), tokens)
	if got.AllClose(full, 1e-6) {
		t.Fatal("window had no effect on logits")
	}
}

func TestSetLinearUnknownPanics(t *testing.T) {
	m, _ := NewModel(optConfig(), rng.New(6))
	r := NewRunner(m)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	r.SetLinear("nope", nil)
}

func TestPreLinearHookSeesEveryLayer(t *testing.T) {
	m, _ := NewModel(optConfig(), rng.New(7))
	r := NewRunner(m)
	seen := map[string]int{}
	r.PreLinear = func(name string, x *tensor.Matrix) {
		seen[name]++
		if x.Cols == 0 || x.Rows == 0 {
			t.Fatalf("hook got empty activation for %s", name)
		}
	}
	r.Logits([]int{1, 2, 3})
	if len(seen) != 12 {
		t.Fatalf("hook saw %d layers, want 12", len(seen))
	}
	for name, n := range seen {
		if n != 1 {
			t.Fatalf("layer %s seen %d times", name, n)
		}
	}
}

// PlantOutliers must not change the model's function but must raise the
// kurtosis of the activations entering the linear layers.
func TestPlantOutliersFunctionPreserving(t *testing.T) {
	for _, cfg := range []Config{optConfig(), llamaConfig()} {
		cfg := cfg
		t.Run(cfg.Name, func(t *testing.T) {
			m, _ := NewModel(cfg, rng.New(8))
			tokens := []int{3, 14, 15, 9, 2, 6}
			before := allLogits(NewRunner(m), tokens)
			kBefore := linearInputKurtosis(m, tokens, "layer0.attn.q")

			PlantOutliers(m, []int{2, 17}, 24)
			after := allLogits(NewRunner(m), tokens)
			kAfter := linearInputKurtosis(m, tokens, "layer0.attn.q")

			if !before.AllClose(after, 5e-3*(1+before.AbsMax())) {
				t.Fatal("PlantOutliers changed model function")
			}
			if kAfter < 3*kBefore {
				t.Fatalf("kurtosis %v → %v: outliers not planted", kBefore, kAfter)
			}
		})
	}
}

func linearInputKurtosis(m *Model, tokens []int, layer string) float64 {
	r := NewRunner(m)
	var sample []float32
	r.PreLinear = func(name string, x *tensor.Matrix) {
		if name == layer {
			sample = append(sample, x.Data...)
		}
	}
	r.Logits(tokens)
	return kurtosisOf(sample)
}

func kurtosisOf(xs []float32) float64 {
	var mean float64
	for _, v := range xs {
		mean += float64(v)
	}
	mean /= float64(len(xs))
	var m2, m4 float64
	for _, v := range xs {
		d := float64(v) - mean
		m2 += d * d
		m4 += d * d * d * d
	}
	m2 /= float64(len(xs))
	m4 /= float64(len(xs))
	if m2 == 0 {
		return 0
	}
	return m4 / (m2 * m2)
}

func TestPlantOutliersPanics(t *testing.T) {
	m, _ := NewModel(optConfig(), rng.New(9))
	for name, f := range map[string]func(){
		"bad-channel": func() { PlantOutliers(m, []int{99}, 2) },
		"bad-factor":  func() { PlantOutliers(m, []int{0}, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: expected panic", name)
				}
			}()
			f()
		}()
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	for _, cfg := range []Config{optConfig(), llamaConfig()} {
		cfg := cfg
		t.Run(cfg.Name, func(t *testing.T) {
			m, _ := NewModel(cfg, rng.New(10))
			PlantOutliers(m, []int{1}, 8)
			var buf bytes.Buffer
			if err := m.Save(&buf); err != nil {
				t.Fatal(err)
			}
			m2, err := Load(&buf)
			if err != nil {
				t.Fatal(err)
			}
			if m2.Cfg != m.Cfg {
				t.Fatalf("config mismatch: %+v vs %+v", m2.Cfg, m.Cfg)
			}
			tokens := []int{1, 2, 3, 4}
			a := allLogits(NewRunner(m), tokens)
			b := allLogits(NewRunner(m2), tokens)
			if !a.AllClose(b, 0) {
				t.Fatal("loaded model differs bitwise")
			}
		})
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	if _, err := Load(bytes.NewReader([]byte("not a model file ......."))); err == nil {
		t.Fatal("garbage accepted")
	}
	if _, err := Load(bytes.NewReader(nil)); err == nil {
		t.Fatal("empty input accepted")
	}
}

// Training smoke test: a tiny model must be able to memorize a handful of
// fixed sequences (loss drops by an order of magnitude).
func TestTrainingMemorizes(t *testing.T) {
	for _, cfg := range []Config{optConfig(), llamaConfig()} {
		cfg := cfg
		t.Run(cfg.Name, func(t *testing.T) {
			m, _ := NewModel(cfg, rng.New(11))
			opt := autograd.NewAdam(m.Params(), 0.01)
			opt.ClipNorm = 1
			batch := [][]int{
				{1, 2, 3, 4, 5, 6},
				{7, 8, 9, 10, 11, 12},
				{1, 2, 3, 4, 5, 6},
				{13, 14, 15, 16, 17, 18},
			}
			first := m.LossOnBatch(batch)
			opt.Step()
			var last float64
			for i := 0; i < 60; i++ {
				last = m.LossOnBatch(batch)
				opt.Step()
			}
			if last > first/5 {
				t.Fatalf("loss did not drop: first %.4f last %.4f", first, last)
			}
		})
	}
}

func TestEvalAccuracyPerfectOnMemorized(t *testing.T) {
	cfg := optConfig()
	cfg.NLayers = 1
	m, _ := NewModel(cfg, rng.New(12))
	opt := autograd.NewAdam(m.Params(), 0.02)
	opt.ClipNorm = 1
	seqs := [][]int{
		{1, 2, 3, 4},
		{5, 6, 7, 8},
	}
	for i := 0; i < 120; i++ {
		m.LossOnBatch(seqs)
		opt.Step()
	}
	r := NewRunner(m)
	if acc := r.EvalAccuracy(seqs); acc < 1 {
		t.Fatalf("memorization accuracy = %v", acc)
	}
}

func TestEvalSkipsShortSeq(t *testing.T) {
	m, _ := NewModel(optConfig(), rng.New(13))
	r := NewRunner(m)
	// Length-<2 sequences carry no (context, target) pair: they are counted
	// as skipped, not evaluated, and must not abort the pass.
	res := r.Eval([][]int{{1}, {}, {2, 3}}, 1)
	if res.Skipped != 2 || res.Evaluated != 1 {
		t.Fatalf("skip accounting: %+v", res)
	}
	// Empty and all-skipped inputs yield accuracy 0, not NaN or a panic.
	if acc := r.EvalAccuracy(nil); acc != 0 {
		t.Fatalf("empty eval accuracy = %v", acc)
	}
	if acc := r.EvalAccuracy([][]int{{7}}); acc != 0 {
		t.Fatalf("all-skipped eval accuracy = %v", acc)
	}
}

func TestEvalParallelMatchesSerial(t *testing.T) {
	m, _ := NewModel(optConfig(), rng.New(15))
	r := NewRunner(m)
	seqs := [][]int{{1, 2, 3}, {4, 5}, {6}, {7, 8, 9, 10}, {11, 12}, {13, 14, 15}}
	serial := r.Eval(seqs, 1)
	parallel := r.Eval(seqs, 4)
	if serial != parallel {
		t.Fatalf("worker count changed the result: %+v vs %+v", serial, parallel)
	}
	if serial.Tokens != 2+1+3+1+2 {
		t.Fatalf("token accounting: %+v", serial)
	}
}

func TestLogitsValidation(t *testing.T) {
	m, _ := NewModel(optConfig(), rng.New(14))
	r := NewRunner(m)
	for name, f := range map[string]func(){
		"empty":     func() { r.Logits(nil) },
		"too-long":  func() { r.Logits(make([]int, 100)) },
		"bad-token": func() { r.Logits([]int{999}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: expected panic", name)
				}
			}()
			f()
		}()
	}
}

// The branch-free ReLU must keep exactly what !(x > 0) → +0 keeps, bit for
// bit, on the values where a bit trick can go wrong — ±0, ±Inf, quiet and
// signalling NaNs of both signs, the ±smallest subnormal, ±MaxFloat32 — at
// the head, middle and tail of every length from 0 to 70 among random
// normals.
func TestReluInPlaceEdges(t *testing.T) {
	edges := []float32{
		0, float32(math.Copysign(0, -1)),
		float32(math.Inf(1)), float32(math.Inf(-1)),
		math.Float32frombits(0x7fc00000), math.Float32frombits(0xffc00000), // quiet NaNs
		math.Float32frombits(0x7f800001), math.Float32frombits(0xff800001), // signalling NaNs
		math.Float32frombits(0x7fffffff), math.Float32frombits(0xffffffff),
		math.Float32frombits(1), math.Float32frombits(0x80000001), // ±smallest subnormal
		math.MaxFloat32, -math.MaxFloat32,
	}
	r := rng.New(819)
	for n := 0; n <= 70; n++ {
		for _, e := range edges {
			v := make([]float32, n)
			r.FillNormal(v, 0, 1)
			if n > 0 {
				v[0], v[n/2], v[n-1] = e, e, e
			}
			want := append([]float32(nil), v...)
			for i, x := range want {
				if !(x > 0) {
					want[i] = 0
				}
			}
			reluInPlace(v)
			for i := range v {
				if math.Float32bits(v[i]) != math.Float32bits(want[i]) {
					t.Fatalf("len %d, edge %v: element %d = %#08x, want %#08x",
						n, e, i, math.Float32bits(v[i]), math.Float32bits(want[i]))
				}
			}
		}
	}
}
