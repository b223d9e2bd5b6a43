package core

import (
	"sync"
	"testing"

	"nora/internal/analog"
	"nora/internal/model"
	"nora/internal/nn"
	"nora/internal/rng"
	"nora/internal/tensor"
	"nora/internal/textgen"
)

// Shared trained tiny model for the integration tests (training once keeps
// the suite fast).
var (
	onceModel sync.Once
	tinyModel *nn.Model
	tinyEval  [][]int
	tinyCalib [][]int
	tinyFPAcc float64
)

func trained(t *testing.T) (*nn.Model, [][]int, [][]int) {
	t.Helper()
	onceModel.Do(func() {
		spec := model.TinySpec()
		m, res, err := model.Train(spec)
		if err != nil {
			panic(err)
		}
		corpus, err := spec.Corpus()
		if err != nil {
			panic(err)
		}
		tinyModel = m
		tinyEval = corpus.Split("eval", 150)
		tinyCalib = corpus.Split("calibration", 24)
		tinyFPAcc = res.EvalAcc
	})
	if tinyFPAcc < 0.9 {
		t.Fatalf("prerequisite: tiny model trained to only %.3f accuracy", tinyFPAcc)
	}
	return tinyModel, tinyEval, tinyCalib
}

// allLogits returns every position's next-token logits, read through the
// sequential Generator: row i follows tokens[:i+1]. On an unscoped analog
// runner the rows draw the runner's noise stream in the order a
// whole-context read would.
func allLogits(r *nn.Runner, tokens []int) *tensor.Matrix {
	g := nn.NewGenerator(r)
	out := tensor.New(len(tokens), r.Model().Cfg.Vocab)
	for i, tok := range tokens {
		copy(out.Row(i), g.Append(tok))
	}
	return out
}

func TestCalibrateShapes(t *testing.T) {
	m, _, calib := trained(t)
	cal := Calibrate(m, calib)
	if cal.Sequences != len(calib) {
		t.Fatalf("Sequences = %d", cal.Sequences)
	}
	specs := m.Linears()
	if len(cal.InputMax) != len(specs) {
		t.Fatalf("calibrated %d layers, want %d", len(cal.InputMax), len(specs))
	}
	for _, spec := range specs {
		mx, ok := cal.InputMax[spec.Name]
		if !ok || len(mx) != spec.W.Rows {
			t.Fatalf("layer %s: missing or wrong-size stats", spec.Name)
		}
		for k, v := range mx {
			if v < statFloor {
				t.Fatalf("layer %s channel %d below floor: %v", spec.Name, k, v)
			}
		}
	}
}

func TestCalibrateSeesPlantedOutliers(t *testing.T) {
	m, _, calib := trained(t)
	cal := Calibrate(m, calib)
	// The planted outlier channels must dominate the calibrated maxima of
	// the first attention projection.
	mx := cal.InputMax["layer0.attn.q"]
	spec := model.TinySpec()
	var outlierMin, otherMax float32
	outlierMin = 1e30
	isOutlier := map[int]bool{}
	for _, ch := range spec.OutlierChannels {
		isOutlier[ch] = true
	}
	for k, v := range mx {
		if isOutlier[k] {
			if v < outlierMin {
				outlierMin = v
			}
		} else if v > otherMax {
			otherMax = v
		}
	}
	if outlierMin < 2*otherMax {
		t.Fatalf("outlier channels (min %v) do not dominate others (max %v)", outlierMin, otherMax)
	}
}

func TestComputeSProperties(t *testing.T) {
	w := tensor.FromRows([][]float32{{1, 0.5}, {2, -4}, {0.1, 0.1}})
	inputMax := []float32{8, 2, 0.5}
	s := ComputeS(w, inputMax, 0.5)
	if len(s) != 3 {
		t.Fatalf("len(s) = %d", len(s))
	}
	for _, v := range s {
		if v <= 0 {
			t.Fatal("s must be positive")
		}
	}
	// λ=0.5: s_k = sqrt(xmax_k / wmax_k)
	want := []float64{
		8.0 / 1.0, // sqrt(8/1)² ...
	}
	_ = want
	if sApprox := float64(s[0] * s[0]); sApprox < 7.9 || sApprox > 8.1 {
		t.Fatalf("s[0]² = %v, want 8 (sqrt(8/1))", sApprox)
	}
	// λ=1: s_k = xmax_k exactly
	s1 := ComputeS(w, inputMax, 1)
	for k := range s1 {
		if s1[k] != inputMax[k] {
			t.Fatalf("λ=1: s[%d] = %v, want %v", k, s1[k], inputMax[k])
		}
	}
	// larger activation max ⇒ larger s (monotonicity)
	bumped := append([]float32(nil), inputMax...)
	bumped[1] *= 10
	s2 := ComputeS(w, bumped, 0.5)
	if s2[1] <= s[1] {
		t.Fatal("s must grow with the channel's activation max")
	}
}

func TestComputeSValidation(t *testing.T) {
	w := tensor.New(2, 2)
	for name, f := range map[string]func(){
		"len":    func() { ComputeS(w, []float32{1}, 0.5) },
		"lambda": func() { ComputeS(w, []float32{1, 1}, 1.5) },
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
	// silent channels: floor keeps s finite and positive
	s := ComputeS(w, []float32{0, 0}, 0.5)
	for _, v := range s {
		if v <= 0 || v != v {
			t.Fatalf("floored s invalid: %v", s)
		}
	}
}

func TestDeployModeString(t *testing.T) {
	if DeployDigital.String() != "digital-fp" ||
		DeployAnalogNaive.String() != "analog-naive" ||
		DeployAnalogNORA.String() != "analog-nora" {
		t.Fatal("DeployMode strings wrong")
	}
	if DeployMode(9).String() == "" {
		t.Fatal("unknown mode should render")
	}
}

// With every non-ideality disabled, all three deployments must agree: the
// analog mapping (naive or NORA) is then an exact reparameterization.
func TestIdealAnalogMatchesDigitalEndToEnd(t *testing.T) {
	m, eval, calib := trained(t)
	cal := Calibrate(m, calib)
	tokens := eval[0][:len(eval[0])-1]

	digital := allLogits(Deploy(m, DeployDigital, nil, analog.Config{}, 1, Options{}), tokens)
	naive := allLogits(Deploy(m, DeployAnalogNaive, nil, analog.Ideal(), 1, Options{}), tokens)
	nora := allLogits(Deploy(m, DeployAnalogNORA, cal, analog.Ideal(), 1, Options{}), tokens)

	tol := 5e-3 * (1 + digital.AbsMax())
	if !naive.AllClose(digital, tol) {
		t.Fatal("ideal naive analog diverges from digital")
	}
	if !nora.AllClose(digital, tol) {
		t.Fatal("ideal NORA analog diverges from digital (rescaling must cancel)")
	}
}

func TestDeployNORARequiresCalibration(t *testing.T) {
	m, _, _ := trained(t)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Deploy(m, DeployAnalogNORA, nil, analog.Ideal(), 1, Options{})
}

// The headline reproduction (Fig. 5a shape): under the paper's Table II
// noise stack, the naive analog deployment of an outlier-heavy OPT-class
// model collapses, while NORA stays close to the digital baseline.
func TestNORARecoversAccuracyUnderPaperNoise(t *testing.T) {
	if testing.Short() {
		t.Skip("integration eval skipped in -short mode")
	}
	m, eval, calib := trained(t)
	cal := Calibrate(m, calib)
	cfg := analog.PaperPreset()
	cfg.TileRows, cfg.TileCols = 64, 64 // multiple tiles even on a tiny model

	digital := nn.NewRunner(m).EvalAccuracy(eval)
	naive := Deploy(m, DeployAnalogNaive, nil, cfg, 42, Options{}).EvalAccuracy(eval)
	nora := Deploy(m, DeployAnalogNORA, cal, cfg, 42, Options{}).EvalAccuracy(eval)

	t.Logf("digital %.3f | naive %.3f | NORA %.3f", digital, naive, nora)
	if digital < 0.9 {
		t.Fatalf("digital baseline too weak: %.3f", digital)
	}
	if naive > digital-0.15 {
		t.Fatalf("naive analog should collapse on an outlier-heavy model: %.3f vs digital %.3f", naive, digital)
	}
	if nora < naive+0.10 {
		t.Fatalf("NORA (%.3f) should recover well above naive (%.3f)", nora, naive)
	}
	if digital-nora > 0.08 {
		t.Fatalf("NORA (%.3f) should be close to digital (%.3f)", nora, digital)
	}
}

// Deployments must be reproducible: same (mode, cfg, seed) → identical
// noisy accuracy, bit for bit, across both analog modes and several seeds.
func TestDeployDeterminism(t *testing.T) {
	m, eval, calib := trained(t)
	cfg := analog.PaperPreset()
	cfg.TileRows, cfg.TileCols = 64, 64
	sub := eval[:20]
	cal := Calibrate(m, calib)
	for _, mode := range []DeployMode{DeployAnalogNaive, DeployAnalogNORA} {
		var c *Calibration
		if mode == DeployAnalogNORA {
			c = cal
		}
		for _, seed := range []uint64{7, 8} {
			a := Deploy(m, mode, c, cfg, seed, Options{}).EvalAccuracy(sub)
			b := Deploy(m, mode, c, cfg, seed, Options{}).EvalAccuracy(sub)
			if a != b {
				t.Fatalf("%s seed %d: different accuracies %v vs %v", mode, seed, a, b)
			}
		}
	}
}

func TestCalibrationFingerprint(t *testing.T) {
	m, _, calib := trained(t)
	cal := Calibrate(m, calib)
	again := Calibrate(m, calib)
	if cal.Fingerprint() != again.Fingerprint() {
		t.Fatal("identical calibrations must fingerprint identically")
	}
	if (*Calibration)(nil).Fingerprint() != 0 {
		t.Fatal("nil calibration must fingerprint to zero")
	}
	other := Calibrate(m, calib[:len(calib)-4])
	if other.Fingerprint() == cal.Fingerprint() {
		t.Fatal("different calibration data should change the fingerprint")
	}
}

func TestAnalyzeLayersFig6Shape(t *testing.T) {
	m, eval, calib := trained(t)
	cal := Calibrate(m, calib)
	sample := eval[:10]
	reports := AnalyzeLayers(m, cal, sample, 0, analog.PaperPreset())
	if len(reports) != len(m.Linears()) {
		t.Fatalf("got %d reports, want %d", len(reports), len(m.Linears()))
	}
	var inDropCount, agDropCount int
	for _, r := range reports {
		if r.InputKurtosisNORA < r.InputKurtosisNaive {
			inDropCount++
		}
		if r.AlphaGammaNORA < r.AlphaGammaNaive {
			agDropCount++
		}
		if r.WeightKurtosisNaive <= 0 || r.InputKurtosisNaive <= 0 {
			t.Fatalf("layer %s: degenerate kurtosis", r.Name)
		}
	}
	// Fig. 6(a): input kurtosis decreases for (at least most) layers;
	// Fig. 6(c): α·γ decreases for most layers.
	if inDropCount < len(reports)*3/4 {
		t.Fatalf("input kurtosis dropped in only %d/%d layers", inDropCount, len(reports))
	}
	if agDropCount < len(reports)/2 {
		t.Fatalf("α·γ dropped in only %d/%d layers", agDropCount, len(reports))
	}
	// The q-projection inputs (post-LN with planted outliers) must show a
	// dramatic kurtosis reduction.
	qs := FilterReports(reports, "attn.q")
	if len(qs) != m.Cfg.NLayers {
		t.Fatalf("FilterReports(attn.q) = %d entries", len(qs))
	}
	for _, r := range qs {
		if r.InputKurtosisNORA > r.InputKurtosisNaive/2 {
			t.Fatalf("layer %s: q-input kurtosis %v → %v (expected ≥2× reduction)",
				r.Name, r.InputKurtosisNaive, r.InputKurtosisNORA)
		}
	}
}

func TestFilterReports(t *testing.T) {
	rep := []LayerReport{{Name: "layer0.attn.q"}, {Name: "layer0.mlp.fc1"}}
	if got := FilterReports(rep, "attn.q"); len(got) != 1 || got[0].Name != "layer0.attn.q" {
		t.Fatalf("FilterReports = %+v", got)
	}
	if got := FilterReports(rep, "zzz"); len(got) != 0 {
		t.Fatal("FilterReports should return empty for no match")
	}
}

// λ sweeps must behave sanely end-to-end: λ=0 and λ=1 still compute the
// same ideal product.
func TestLambdaExtremesIdealInvariance(t *testing.T) {
	m, eval, calib := trained(t)
	cal := Calibrate(m, calib)
	tokens := eval[1][:10]
	digital := allLogits(nn.NewRunner(m), tokens)
	for _, lambda := range []float64{1e-9, 0.3, 1} {
		got := allLogits(Deploy(m, DeployAnalogNORA, cal, analog.Ideal(), 3, Options{Lambda: lambda}), tokens)
		if !got.AllClose(digital, 6e-3*(1+digital.AbsMax())) {
			t.Fatalf("λ=%v: ideal NORA diverges from digital", lambda)
		}
	}
}

func TestCalibrateQuantile(t *testing.T) {
	m, _, calib := trained(t)
	exact := Calibrate(m, calib)
	q1 := CalibrateQuantile(m, calib, 1)
	q9 := CalibrateQuantile(m, calib, 0.9)
	for name, mx := range exact.InputMax {
		v1 := q1.InputMax[name]
		v9 := q9.InputMax[name]
		if len(v1) != len(mx) || len(v9) != len(mx) {
			t.Fatalf("layer %s: wrong stat widths", name)
		}
		for k := range mx {
			// q=1 tracks the exact maximum
			if diff := float64(v1[k] - mx[k]); diff > 1e-5 || diff < -1e-5 {
				t.Fatalf("layer %s ch %d: q=1 stat %v != max %v", name, k, v1[k], mx[k])
			}
			// lower quantiles can only shrink the statistic
			if v9[k] > mx[k]+1e-6 {
				t.Fatalf("layer %s ch %d: q=0.9 stat %v exceeds max %v", name, k, v9[k], mx[k])
			}
		}
	}
}

func TestCalibrateQuantileValidation(t *testing.T) {
	m, _, calib := trained(t)
	for _, q := range []float64{0, -1, 1.5} {
		q := q
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("q=%v: expected panic", q)
				}
			}()
			CalibrateQuantile(m, calib, q)
		}()
	}
}

// Options.Layers must restrict the analog mapping to the named layers.
func TestDeployLayerFilter(t *testing.T) {
	m, eval, calib := trained(t)
	cal := Calibrate(m, calib)
	tokens := eval[2][:12]
	digital := allLogits(nn.NewRunner(m), tokens)

	// Only one layer analog, with the paper preset: the perturbation must
	// be smaller than the full deployment's.
	cfg := analog.PaperPreset()
	one := Deploy(m, DeployAnalogNaive, nil, cfg, 4, Options{Layers: []string{"layer0.attn.q"}})
	all := Deploy(m, DeployAnalogNaive, nil, cfg, 4, Options{})
	errOne := tensor.MSE(allLogits(one, tokens), digital)
	errAll := tensor.MSE(allLogits(all, tokens), digital)
	if errOne == 0 {
		t.Fatal("single-layer analog deployment had no effect")
	}
	if errOne >= errAll {
		t.Fatalf("one-layer error %v should be below full deployment %v", errOne, errAll)
	}

	// The non-selected layers must remain exactly digital: with an ideal
	// analog config the filtered deployment equals digital bit-for-bit on
	// the untouched layers' path, so overall divergence stays tiny.
	ideal := Deploy(m, DeployAnalogNaive, nil, analog.Ideal(), 4, Options{Layers: []string{"layer0.attn.q"}})
	if !allLogits(ideal, tokens).AllClose(digital, 2e-3*(1+digital.AbsMax())) {
		t.Fatal("ideal filtered deployment diverges from digital")
	}
	_ = cal
}

func TestDeployLayerFilterUnknownPanics(t *testing.T) {
	m, _, _ := trained(t)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Deploy(m, DeployAnalogNaive, nil, analog.Ideal(), 1, Options{Layers: []string{"nope"}})
}

// Guard: textgen corpus and rng wiring used by the shared fixture.
func TestFixtureWiring(t *testing.T) {
	spec := model.TinySpec()
	corpus, err := spec.Corpus()
	if err != nil {
		t.Fatal(err)
	}
	if corpus.Vocab() != spec.Cfg.Vocab {
		t.Fatal("corpus and model vocab mismatch")
	}
	_ = rng.New(1)
	_ = textgen.TokenBOS
}
