package harness

import (
	"fmt"

	"nora/internal/analog"
	"nora/internal/core"
	"nora/internal/engine"
	"nora/internal/model"
)

// --- E25: hardware-aware training under drift ---------------------------
//
// E19 measured the problem: accuracy collapses with device age, and even
// NORA + global drift compensation bleeds accuracy at long read times,
// because GDC only fixes the systematic mean decay — the per-device ν-spread
// and the rising 1/f read-noise floor remain. Hardware-aware training (the
// Rasch et al. recipe: ramped output noise, drop-connect from the deploy-time
// stuck-at sampler, crossbar-aware weight clamping, distillation from the
// digital checkpoint) attacks exactly that residual. This sweep runs the
// digital model and its HWA variant across the E19 drift-age axis, extended
// to one simulated year:
//
//	naive         digital model, plain analog mapping, uncompensated
//	nora+gdc      digital model, NORA rescaling + global drift compensation
//	              (the best post-training arm of E19)
//	hwa+gdc       HWA variant, plain analog mapping + GDC
//	nora+hwa+gdc  HWA variant, NORA rescaling (calibrated on the HWA
//	              weights) + GDC — do the two mitigations compose?

// OneYearSeconds is the paper-style long-term retention point.
const OneYearSeconds = 3.156e7

// DefaultHWADriftAges extends the E19 age ladder with the one-year point
// the HWA recipe targets.
func DefaultHWADriftAges() []float64 {
	return append(DefaultDriftAges(), OneYearSeconds)
}

// HWADriftRow is one (model, age) measurement of the E25 study.
type HWADriftRow struct {
	Model      string
	AgeSeconds float64

	Digital    float64 // FP accuracy of the digital model
	HWADigital float64 // FP accuracy of the HWA variant (accuracy cost of HWA)

	Naive   float64 // digital model, naive analog, uncompensated
	NORA    float64 // digital model, NORA + GDC
	HWA     float64 // HWA variant, naive analog + GDC
	NORAHWA float64 // HWA variant, NORA + GDC

	// What each mitigation costs before deployment, in sequences (the
	// paper's Fig. 1 Challenge 1): HWA fine-tuning runs a forward and a
	// backward pass over every training sequence, NORA's calibration a
	// forward pass over every calibration sequence. Counts, not seconds, so
	// the table stays byte-stable and a cached checkpoint reports the same
	// cost as a fresh fine-tune.
	HWATrainSeqs  int
	NORACalibSeqs int
}

// HWAWorkload derives the deployable workload of w's hardware-aware variant
// under recipe, fine-tuning (or loading) the HWA model from modelDir. The
// derived workload shares w's eval/calibration data but carries the
// recipe-fingerprinted key, so its deployments and calibration never alias
// the digital model's.
func HWAWorkload(modelDir string, w *Workload, recipe model.HWARecipe) (*Workload, error) {
	tuned, err := model.LoadOrTrainHWA(modelDir, w.Spec, recipe)
	if err != nil {
		return nil, fmt.Errorf("harness: HWA variant of %s: %w", w.Spec.Key, err)
	}
	spec := w.Spec
	spec.Key = model.HWAKey(w.Spec.Key, recipe)
	return &Workload{Spec: spec, Model: tuned, Eval: w.Eval, Calib: w.Calib}, nil
}

// HWASweep measures the four arms across the drift-age axis. HWA variants
// are trained (or loaded) from modelDir before the sweep; each deployment is
// engine-cached under its own content key, so the digital and HWA networks
// coexist in one engine.
func HWASweep(eng *engine.Engine, ws []*Workload, modelDir string, recipe model.HWARecipe, base analog.Config, ages []float64) ([]HWADriftRow, error) {
	hwaOf := make(map[*Workload]*Workload, len(ws))
	for _, w := range ws {
		hw, err := HWAWorkload(modelDir, w, recipe)
		if err != nil {
			return nil, err
		}
		hwaOf[w] = hw
	}
	ageConfig := func(age float64, comp bool) analog.Config {
		cfg := base
		cfg.DriftT = age
		cfg.DriftCompensation = comp
		return cfg
	}
	g := Sweep[float64]{
		Points: ages,
		Arms: []Arm[float64]{
			{Name: "naive", Request: func(w *Workload, age float64) engine.Request {
				return w.Request(core.DeployAnalogNaive, ageConfig(age, false), core.Options{}, "")
			}},
			{Name: "nora+gdc", Request: func(w *Workload, age float64) engine.Request {
				return w.Request(core.DeployAnalogNORA, ageConfig(age, true), core.Options{}, "")
			}},
			{Name: "hwa+gdc", Request: func(w *Workload, age float64) engine.Request {
				return hwaOf[w].Request(core.DeployAnalogNaive, ageConfig(age, true), core.Options{}, "")
			}},
			{Name: "nora+hwa+gdc", Request: func(w *Workload, age float64) engine.Request {
				return hwaOf[w].Request(core.DeployAnalogNORA, ageConfig(age, true), core.Options{}, "")
			}},
		},
		Prepare: prepareBaselines,
	}.Run(eng, ws)
	rows := make([]HWADriftRow, 0, len(ws)*len(ages))
	for wi, w := range g.Workloads {
		for pi, age := range g.Points {
			rows = append(rows, HWADriftRow{
				Model:      w.Spec.Display,
				AgeSeconds: age,
				Digital:    w.DigitalAccuracy(eng),
				HWADigital: hwaOf[w].DigitalAccuracy(eng),
				Naive:      g.Accuracy(wi, pi, 0),
				NORA:       g.Accuracy(wi, pi, 1),
				HWA:        g.Accuracy(wi, pi, 2),
				NORAHWA:    g.Accuracy(wi, pi, 3),

				HWATrainSeqs:  recipe.Steps * recipe.BatchSize,
				NORACalibSeqs: len(w.Calib),
			})
		}
	}
	return rows, nil
}

// HWADriftTable renders E25 rows.
func HWADriftTable(rows []HWADriftRow) *Table {
	return TableOf("E25 — hardware-aware training vs drift age (paper-preset noise)",
		rows, []Col[HWADriftRow]{
			{"model", func(r HWADriftRow) any { return r.Model }},
			{"age-s", func(r HWADriftRow) any { return r.AgeSeconds }},
			{"digital", func(r HWADriftRow) any { return r.Digital }},
			{"hwa-digital", func(r HWADriftRow) any { return r.HWADigital }},
			{"naive", func(r HWADriftRow) any { return r.Naive }},
			{"nora+gdc", func(r HWADriftRow) any { return r.NORA }},
			{"hwa+gdc", func(r HWADriftRow) any { return r.HWA }},
			{"nora+hwa+gdc", func(r HWADriftRow) any { return r.NORAHWA }},
			{"hwa-train-seqs", func(r HWADriftRow) any { return r.HWATrainSeqs }},
			{"nora-calib-seqs", func(r HWADriftRow) any { return r.NORACalibSeqs }},
		})
}
