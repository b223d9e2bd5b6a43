package harness

import (
	"sync"
	"testing"

	"nora/internal/analog"
	"nora/internal/engine"
	"nora/internal/model"
)

var (
	fixtureOnce sync.Once
	fixture     *Workload

	// testEng is shared across experiment tests: deterministic content-keyed
	// deployments mean a cache hit returns exactly what a fresh build would,
	// so sharing only speeds the suite up.
	testEng = engine.New(engine.Config{})
)

// tinyWorkload trains the shared test model once and wraps it with a small
// eval set so experiment tests stay fast.
func tinyWorkload(t *testing.T) *Workload {
	t.Helper()
	fixtureOnce.Do(func() {
		spec := model.TinySpec()
		m, res, err := model.Train(spec)
		if err != nil {
			panic(err)
		}
		if res.EvalAcc < 0.9 {
			panic("fixture model undertrained")
		}
		corpus, err := spec.Corpus()
		if err != nil {
			panic(err)
		}
		fixture = &Workload{
			Spec:  spec,
			Model: m,
			Eval:  corpus.Split("eval", 60),
			Calib: corpus.Split("calibration", 16),
		}
	})
	return fixture
}

func TestWorkloadLazyCaches(t *testing.T) {
	if testing.Short() {
		t.Skip("needs trained fixture")
	}
	w := tinyWorkload(t)
	a := w.DigitalAccuracy(testEng)
	b := w.DigitalAccuracy(testEng)
	if a != b || a < 0.9 {
		t.Fatalf("digital accuracy cache broken: %v vs %v", a, b)
	}
	c1 := w.Calibration()
	c2 := w.Calibration()
	if c1 != c2 {
		t.Fatal("calibration must be computed once")
	}
}

func TestNewWorkloadTrainsAndCaches(t *testing.T) {
	if testing.Short() {
		t.Skip("training in test")
	}
	dir := t.TempDir()
	spec := model.TinySpec()
	spec.Train.Steps = 15 // mechanics only
	w, err := NewWorkload(dir, spec, 10, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(w.Eval) != 10 || len(w.Calib) != 5 {
		t.Fatalf("dataset sizes: %d eval, %d calib", len(w.Eval), len(w.Calib))
	}
	ws, err := LoadZoo(dir, []model.Spec{spec}, 10, 5)
	if err != nil || len(ws) != 1 {
		t.Fatalf("LoadZoo: %v", err)
	}
}

// The sensitivity experiment must reproduce the paper's key observation:
// at matched reference MSE, I/O non-idealities (ADC quantization, additive
// output noise) hurt the outlier-heavy OPT-class model far more than tile
// non-idealities (read noise, programming noise, IR-drop).
func TestSensitivityIOvsTile(t *testing.T) {
	if testing.Short() {
		t.Skip("full experiment in test")
	}
	w := tinyWorkload(t)
	points := Sensitivity(testEng, []*Workload{w}, []float64{0.0015})
	if len(points) != len(AllNoiseKinds()) {
		t.Fatalf("got %d points", len(points))
	}
	drops := map[NoiseKind]float64{}
	for _, p := range points {
		drops[p.Kind] = p.Drop
		if p.Accuracy < 0 || p.Accuracy > 1 {
			t.Fatalf("accuracy out of range: %+v", p)
		}
	}
	ioDrop := (drops[KindADCQuant] + drops[KindOutNoise]) / 2
	tileDrop := (drops[KindReadNoise] + drops[KindProgNoise] + drops[KindIRDrop]) / 3
	t.Logf("drops: %+v", drops)
	if ioDrop < tileDrop+0.05 {
		t.Fatalf("I/O drop %.3f not clearly above tile drop %.3f (paper's key observation)", ioDrop, tileDrop)
	}
	if tileDrop > 0.15 {
		t.Fatalf("tile non-idealities should be nearly harmless at matched MSE, got %.3f", tileDrop)
	}
}

func TestOverallAccuracyShape(t *testing.T) {
	if testing.Short() {
		t.Skip("full experiment in test")
	}
	w := tinyWorkload(t)
	rows := OverallAccuracy(testEng, []*Workload{w}, analog.PaperPreset())
	if len(rows) != 1 {
		t.Fatalf("rows = %d", len(rows))
	}
	r := rows[0]
	t.Logf("digital %.3f naive %.3f nora %.3f", r.Digital, r.Naive, r.NORA)
	if r.Digital < 0.9 {
		t.Fatal("digital baseline broken")
	}
	if r.Naive > r.Digital-0.2 {
		t.Fatal("naive deployment should collapse on outlier-heavy model")
	}
	if r.Digital-r.NORA > 0.05 {
		t.Fatalf("NORA should be near-lossless: %.3f vs %.3f", r.NORA, r.Digital)
	}
	if r.Family != "opt" || r.Model == "" {
		t.Fatal("metadata missing")
	}
}

func TestMitigationRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("full experiment in test")
	}
	w := tinyWorkload(t)
	rows := Mitigation(testEng, []*Workload{w}, MitigationMSETarget)
	if len(rows) != len(AllNoiseKinds()) {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.Kind == KindADCQuant || r.Kind == KindOutNoise {
			drop := r.Digital - r.Naive
			if drop > 0.1 && r.Recovery < 0.5 {
				t.Fatalf("%s: NORA recovered only %.2f of a %.2f drop", r.Kind, r.Recovery, drop)
			}
		}
	}
}

func TestDistributionAnalysisShape(t *testing.T) {
	if testing.Short() {
		t.Skip("full experiment in test")
	}
	w := tinyWorkload(t)
	rows := DistributionAnalysis(testEng, []*Workload{w}, "attn.q", analog.PaperPreset())
	if len(rows) != w.Model.Cfg.NLayers {
		t.Fatalf("rows = %d, want %d", len(rows), w.Model.Cfg.NLayers)
	}
	for _, r := range rows {
		if r.InputKurtosisNORA >= r.InputKurtosisNaive {
			t.Fatalf("%s: input kurtosis did not drop (%.1f → %.1f)",
				r.Name, r.InputKurtosisNaive, r.InputKurtosisNORA)
		}
	}
	all := DistributionAnalysis(testEng, []*Workload{w}, "", analog.PaperPreset())
	if len(all) != len(w.Model.Linears()) {
		t.Fatalf("unfiltered rows = %d", len(all))
	}
}

func TestDriftStudyShape(t *testing.T) {
	if testing.Short() {
		t.Skip("full experiment in test")
	}
	w := tinyWorkload(t)
	rows := DriftStudy(testEng, []*Workload{w}, 3600)
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	if rows[0].Compensated || !rows[1].Compensated {
		t.Fatal("row order: uncompensated first")
	}
	for _, r := range rows {
		if r.DriftSeconds != 3600 {
			t.Fatal("drift time not propagated")
		}
	}
}

func TestOverallAccuracyReplicated(t *testing.T) {
	if testing.Short() {
		t.Skip("full experiment in test")
	}
	w := tinyWorkload(t)
	stats := OverallAccuracyReplicated(testEng, []*Workload{w}, analog.PaperPreset(), 3)
	if len(stats) != 1 {
		t.Fatalf("rows = %d", len(stats))
	}
	s := stats[0]
	if s.Replicas != 3 {
		t.Fatal("replica count wrong")
	}
	if s.NaiveStd < 0 || s.NORAStd < 0 {
		t.Fatal("negative std")
	}
	// Different seeds should produce some spread in the collapsed naive
	// deployment (near-chance accuracies bounce around), while NORA stays
	// pinned near digital.
	if s.NORAMean < s.Digital-0.05 {
		t.Fatalf("NORA mean %.3f far from digital %.3f", s.NORAMean, s.Digital)
	}
	if s.NaiveMean > s.Digital-0.3 {
		t.Fatalf("naive mean %.3f did not collapse", s.NaiveMean)
	}
	if tb := AccuracyStatsTable("t", stats); len(tb.Rows) != 1 {
		t.Fatal("AccuracyStatsTable row count")
	}
	// replicas < 1 panics
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	OverallAccuracyReplicated(testEng, []*Workload{w}, analog.PaperPreset(), 0)
}

func TestModeStudyShape(t *testing.T) {
	if testing.Short() {
		t.Skip("full experiment in test")
	}
	w := tinyWorkload(t)
	rows := ModeStudy(testEng, []*Workload{w})
	if len(rows) != 5 {
		t.Fatalf("rows = %d", len(rows))
	}
	seen := map[string]bool{}
	for _, r := range rows {
		if seen[r.Mode] {
			t.Fatalf("duplicate mode %s", r.Mode)
		}
		seen[r.Mode] = true
		if r.NORA < 0.85 {
			t.Fatalf("%s: NORA accuracy %.3f too low", r.Mode, r.NORA)
		}
		if r.NORA < r.Naive {
			t.Fatalf("%s: NORA below naive", r.Mode)
		}
	}
	if tb := ModeTable(rows); len(tb.Rows) != 5 {
		t.Fatal("ModeTable row count")
	}
}

func TestSlicingStudyShape(t *testing.T) {
	if testing.Short() {
		t.Skip("full experiment in test")
	}
	w := tinyWorkload(t)
	rows := SlicingStudy(testEng, []*Workload{w}, [][2]int{{2, 4}})
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	if rows[0].Scheme != "continuous" || rows[1].Scheme != "2x4-bit" {
		t.Fatalf("schemes: %+v", rows)
	}
	for _, r := range rows {
		// NORA must rescue both weight representations.
		if r.NORA < r.Naive {
			t.Fatalf("%s: NORA %.3f below naive %.3f", r.Scheme, r.NORA, r.Naive)
		}
		if r.NORA < 0.85 {
			t.Fatalf("%s: NORA accuracy %.3f too low", r.Scheme, r.NORA)
		}
	}
	if tb := SlicingTable(rows); len(tb.Rows) != 2 {
		t.Fatal("SlicingTable row count")
	}
}

func TestCalibrationAblationShape(t *testing.T) {
	if testing.Short() {
		t.Skip("full experiment in test")
	}
	w := tinyWorkload(t)
	quantiles := []float64{0.9, 1.0}
	rows := CalibrationAblation(testEng, []*Workload{w}, quantiles)
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	// Exact-max calibration (q=1) must not lose to heavy clipping on an
	// outlier-heavy model.
	var at90, at100 float64
	for _, r := range rows {
		if r.Quantile == 0.9 {
			at90 = r.Accuracy
		} else {
			at100 = r.Accuracy
		}
	}
	if at100 < at90-0.02 {
		t.Fatalf("q=1 accuracy %.3f below q=0.9 %.3f", at100, at90)
	}
	if tb := QuantileTable(rows); len(tb.Rows) != 2 {
		t.Fatal("QuantileTable row count")
	}
}

func TestBaselineComparisonShape(t *testing.T) {
	if testing.Short() {
		t.Skip("full experiment in test")
	}
	w := tinyWorkload(t)
	rows := BaselineComparison(testEng, []*Workload{w}, analog.PaperPreset())
	if len(rows) != 1 {
		t.Fatalf("rows = %d", len(rows))
	}
	r := rows[0]
	t.Logf("fp %.3f w8a8 %.3f smooth %.3f a-naive %.3f a-nora %.3f",
		r.Digital, r.W8A8, r.SmoothQuant, r.AnalogNaive, r.AnalogNORA)
	// SmoothQuant should rescue W8A8 on an outlier-heavy model, mirroring
	// NORA rescuing the analog deployment.
	if r.SmoothQuant < r.W8A8 {
		t.Fatalf("SmoothQuant (%.3f) below naive W8A8 (%.3f)", r.SmoothQuant, r.W8A8)
	}
	if r.AnalogNORA < r.AnalogNaive+0.2 {
		t.Fatalf("NORA (%.3f) should clearly beat analog naive (%.3f)", r.AnalogNORA, r.AnalogNaive)
	}
	if r.SmoothQuant < r.Digital-0.1 {
		t.Fatalf("SmoothQuant W8A8 (%.3f) should be near FP (%.3f)", r.SmoothQuant, r.Digital)
	}
	if tb := BaselineTable(rows); len(tb.Rows) != 1 {
		t.Fatal("BaselineTable row count")
	}
}

func TestPerLayerSensitivityShape(t *testing.T) {
	if testing.Short() {
		t.Skip("full experiment in test")
	}
	w := tinyWorkload(t)
	rows := PerLayerSensitivity(testEng, []*Workload{w}, analog.PaperPreset())
	if len(rows) != len(w.Model.Linears()) {
		t.Fatalf("rows = %d, want %d", len(rows), len(w.Model.Linears()))
	}
	seen := map[string]bool{}
	var worstNaive float64 = 1
	for _, r := range rows {
		if seen[r.Layer] {
			t.Fatalf("duplicate layer %s", r.Layer)
		}
		seen[r.Layer] = true
		if r.NORA < r.Naive-0.1 {
			t.Fatalf("%s: NORA (%.3f) markedly worse than naive (%.3f)", r.Layer, r.NORA, r.Naive)
		}
		if r.Naive < worstNaive {
			worstNaive = r.Naive
		}
	}
	// At least one layer alone must visibly hurt the outlier-heavy model.
	if worstNaive > rows[0].Digital-0.05 {
		t.Fatalf("no single layer shows sensitivity (worst %.3f vs digital %.3f)", worstNaive, rows[0].Digital)
	}
	if tb := PerLayerTable(rows); len(tb.Rows) != len(rows) {
		t.Fatal("PerLayerTable row count")
	}
}

func TestCostStudyShape(t *testing.T) {
	if testing.Short() {
		t.Skip("full experiment in test")
	}
	w := tinyWorkload(t)
	rows := CostStudy(testEng, []*Workload{w}, analog.PaperPreset(), analog.DefaultCostModel())
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.AnalogEnergyPJ <= 0 || r.AnalogLatencyNS <= 0 {
			t.Fatalf("%s: zero analog cost", r.Deploy)
		}
		if r.DigitalEnergyPJ <= 0 {
			t.Fatal("zero digital cost")
		}
		if r.EnergySaving <= 1 {
			t.Fatalf("%s: analog should save energy, ratio %v", r.Deploy, r.EnergySaving)
		}
		if r.Accuracy < 0 || r.Accuracy > 1 {
			t.Fatal("accuracy out of range")
		}
	}
	// NORA row should show at least the naive row's accuracy.
	if rows[1].Accuracy < rows[0].Accuracy {
		t.Fatalf("NORA accuracy %v below naive %v", rows[1].Accuracy, rows[0].Accuracy)
	}
	if tb := CostTable(rows); len(tb.Rows) != 2 {
		t.Fatal("CostTable row count")
	}
}

func TestLambdaAblationShape(t *testing.T) {
	if testing.Short() {
		t.Skip("full experiment in test")
	}
	w := tinyWorkload(t)
	lambdas := []float64{0.25, 0.5, 0.75}
	rows := LambdaAblation(testEng, []*Workload{w}, lambdas)
	if len(rows) != len(lambdas) {
		t.Fatalf("rows = %d", len(rows))
	}
	for i := 1; i < len(rows); i++ {
		if rows[i].Lambda <= rows[i-1].Lambda {
			t.Fatal("rows not sorted by λ")
		}
	}
	// Balanced λ should be decent on this model.
	if rows[1].Accuracy < 0.8 {
		t.Fatalf("λ=0.5 accuracy %.3f unexpectedly low", rows[1].Accuracy)
	}
}
