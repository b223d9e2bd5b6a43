package harness

import (
	"fmt"
	"sync"

	"nora/internal/analog"
	"nora/internal/core"
	"nora/internal/engine"
	"nora/internal/model"
	"nora/internal/nn"
)

// Workload bundles one zoo model with its evaluation and calibration data
// and its digital-baseline accuracy.
type Workload struct {
	Spec  model.Spec
	Model *nn.Model
	Eval  [][]int // Lambada-style last-word sequences
	Calib [][]int // Pile-style calibration sequences

	digOnce    sync.Once
	digitalAcc float64

	calOnce sync.Once
	cal     *core.Calibration
}

// EvalSize and CalibSize are the default dataset sizes; evaluation cost
// scales linearly with EvalSize.
const (
	EvalSize  = 150
	CalibSize = 24
)

// NewWorkload assembles a workload for spec, loading (or training and
// caching) the model from modelDir.
func NewWorkload(modelDir string, spec model.Spec, evalN, calibN int) (*Workload, error) {
	m, err := model.LoadOrTrain(modelDir, spec)
	if err != nil {
		return nil, fmt.Errorf("harness: loading %s: %w", spec.Key, err)
	}
	corpus, err := spec.Corpus()
	if err != nil {
		return nil, err
	}
	if evalN <= 0 {
		evalN = EvalSize
	}
	if calibN <= 0 {
		calibN = CalibSize
	}
	return &Workload{
		Spec:  spec,
		Model: m,
		Eval:  corpus.Split("eval", evalN),
		Calib: corpus.Split("calibration", calibN),
	}, nil
}

// LoadZoo assembles workloads for every spec, training missing models.
func LoadZoo(modelDir string, specs []model.Spec, evalN, calibN int) ([]*Workload, error) {
	ws := make([]*Workload, 0, len(specs))
	for _, spec := range specs {
		w, err := NewWorkload(modelDir, spec, evalN, calibN)
		if err != nil {
			return nil, err
		}
		ws = append(ws, w)
	}
	return ws, nil
}

// Request names the engine deployment of this workload's model under the
// given mode, configuration, options, and salt. The calibration statistics
// are attached (computing them once) only for the NORA mode, which is the
// only mode core.Deploy reads them in — so naive and digital requests key
// identically whether or not a calibration exists yet.
func (w *Workload) Request(mode core.DeployMode, cfg analog.Config, opt core.Options, salt string) engine.Request {
	req := engine.Request{
		Model:  w.Spec.Key,
		Net:    w.Model,
		Mode:   mode,
		Config: cfg,
		Opt:    opt,
		Salt:   salt,
	}
	if mode == core.DeployAnalogNORA {
		req.Cal = w.Calibration()
	}
	return req
}

// DigitalAccuracy returns (computing once) the digital full-precision
// accuracy of the workload on its eval split. With a non-nil engine the
// pass runs through the engine (parallel eval, shared memo); a nil engine
// falls back to a serial stand-alone runner. Both paths agree exactly —
// digital inference is deterministic.
func (w *Workload) DigitalAccuracy(eng *engine.Engine) float64 {
	w.digOnce.Do(func() {
		if eng != nil {
			dep := eng.Deploy(w.Request(core.DeployDigital, analog.Config{}, core.Options{}, ""))
			w.digitalAcc = dep.EvalAccuracy(w.Eval)
		} else {
			w.digitalAcc = nn.NewRunner(w.Model).EvalAccuracy(w.Eval)
		}
	})
	return w.digitalAcc
}

// Calibration returns (computing once) the NORA calibration statistics.
func (w *Workload) Calibration() *core.Calibration {
	w.calOnce.Do(func() {
		w.cal = core.Calibrate(w.Model, w.Calib)
	})
	return w.cal
}
