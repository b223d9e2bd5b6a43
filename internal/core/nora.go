// Package core implements NORA — the paper's contribution: a
// noise-optimized rescaling of LLM weights and activations for analog CIM
// accelerators.
//
// NORA adds a per-input-channel component
//
//	s_k = max|x_k|^λ / max|w_k|^(1−λ)                  (paper §IV, after [33])
//
// to the analog scale factors: weights are programmed as w_kj·s_k with
// per-column scales γ'_j = max|w_j ⊙ s|/g_max (Eq. 6), and activations are
// streamed as x_ik/(α'_i·s_k) with α'_i = max|x_i ⊘ s| (Eq. 7). The product
// x·W is mathematically unchanged, but the activation distribution entering
// the DAC is tightened (outlier channels divided down), which
//
//   - reduces DAC/ADC quantization damage for outlier-heavy models, and
//   - shrinks α·γ, raising the analog output current and hence the SNR
//     against additive output noise (Eq. 8 discussion).
//
// The per-channel maxima max|x_k| are collected offline from a small
// calibration set; outliers sit in fixed channels independent of the input
// (refs [4], [33]), so one calibration serves all tasks.
package core

import (
	"fmt"
	"math"
	"sort"

	"nora/internal/analog"
	"nora/internal/nn"
	"nora/internal/rng"
	"nora/internal/stats"
	"nora/internal/tensor"
)

// statFloor clamps calibration statistics away from zero so s_k stays
// finite on channels that were silent during calibration.
const statFloor = 1e-5

// Calibration holds per-layer, per-input-channel activation maxima
// collected from a calibration dataset (the Pile stand-in).
type Calibration struct {
	// InputMax maps linear-layer name → per-channel max|x_k|.
	InputMax map[string][]float32
	// Sequences is the number of calibration sequences observed.
	Sequences int
}

// Fingerprint returns a stable content hash of the calibration statistics:
// two calibrations with identical per-channel maxima (bit-for-bit) share a
// fingerprint. Layer names are folded in sorted order so map iteration
// order never leaks in. A nil calibration hashes to 0. The engine includes
// this in its deployment cache key — calibrations from different quantiles
// or calibration sets must never alias the same cached deployment.
func (c *Calibration) Fingerprint() uint64 {
	if c == nil {
		return 0
	}
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	names := make([]string, 0, len(c.InputMax))
	for name := range c.InputMax {
		names = append(names, name)
	}
	sort.Strings(names)
	h := uint64(offset)
	mix := func(v uint64) {
		for shift := 0; shift < 64; shift += 8 {
			h ^= (v >> shift) & 0xff
			h *= prime
		}
	}
	for _, name := range names {
		for i := 0; i < len(name); i++ {
			h ^= uint64(name[i])
			h *= prime
		}
		stats := c.InputMax[name]
		mix(uint64(len(stats)))
		for _, v := range stats {
			mix(uint64(math.Float32bits(v)))
		}
	}
	mix(uint64(c.Sequences))
	return h
}

// Calibrate runs the model digitally over the calibration set, recording
// per-channel absolute maxima of the activations entering every linear
// layer.
func Calibrate(model *nn.Model, calibSet [][]int) *Calibration {
	runner := nn.NewRunner(model)
	trackers := make(map[string]*stats.ChannelTracker)
	for _, spec := range model.Linears() {
		trackers[spec.Name] = stats.NewChannelTracker(spec.W.Rows)
	}
	runner.PreLinear = func(name string, x *tensor.Matrix) {
		tr := trackers[name]
		tr.ObserveMatrix(x.Rows, x.Cols, x.Data)
	}
	for _, seq := range calibSet {
		runner.Logits(seq)
	}
	cal := &Calibration{InputMax: make(map[string][]float32), Sequences: len(calibSet)}
	for name, tr := range trackers {
		cal.InputMax[name] = tr.MaxAbs(statFloor)
	}
	return cal
}

// CalibrateQuantile is the quantile-clipping variant of Calibrate: instead
// of the exact per-channel maxima it records the q-quantile of |x_k| via
// per-channel reservoir sampling. q = 1 reproduces Calibrate (up to the
// exact-max tracking). Quantile clipping is the standard robustness trick
// of the PTQ literature (paper refs [4], [33], [36]); the ablation in the
// harness shows how much of NORA's effect survives aggressive clipping.
func CalibrateQuantile(model *nn.Model, calibSet [][]int, q float64) *Calibration {
	if q <= 0 || q > 1 {
		panic(fmt.Sprintf("core: CalibrateQuantile: q = %v outside (0, 1]", q))
	}
	const reservoirCap = 512
	runner := nn.NewRunner(model)
	trackers := make(map[string]*stats.ChannelQuantileTracker)
	for _, spec := range model.Linears() {
		trackers[spec.Name] = stats.NewChannelQuantileTracker(spec.W.Rows, reservoirCap, 1)
	}
	runner.PreLinear = func(name string, x *tensor.Matrix) {
		tr := trackers[name]
		for i := 0; i < x.Rows; i++ {
			tr.Observe(x.Row(i))
		}
	}
	for _, seq := range calibSet {
		runner.Logits(seq)
	}
	cal := &Calibration{InputMax: make(map[string][]float32), Sequences: len(calibSet)}
	for name, tr := range trackers {
		cal.InputMax[name] = tr.Quantiles(q, statFloor)
	}
	return cal
}

// Options configures the NORA deployment.
type Options struct {
	// Lambda is the migration strength λ ∈ [0, 1]: 0 leaves all burden on
	// the activations, 1 moves it entirely to the weights. The default
	// (DefaultLambda) balances both, which also minimizes α·γ.
	Lambda float64

	// Layers, when non-empty, restricts the analog mapping to the named
	// linear layers; all others stay digital. Used by the per-layer
	// sensitivity ablation (paper §VII future work). Unknown names panic
	// (a typo would silently evaluate the wrong ablation otherwise).
	Layers []string
}

// DefaultLambda is the balanced migration strength used throughout the
// evaluation (the SmoothQuant default).
const DefaultLambda = 0.5

// ComputeS returns the rescaling vector for one linear layer from its
// weights and the calibrated per-channel activation maxima:
// s_k = max|x_k|^λ / max|w_k|^(1−λ).
func ComputeS(w *tensor.Matrix, inputMax []float32, lambda float64) []float32 {
	if len(inputMax) != w.Rows {
		panic(fmt.Sprintf("core: ComputeS: %d channel stats for %d weight rows", len(inputMax), w.Rows))
	}
	if lambda < 0 || lambda > 1 {
		panic(fmt.Sprintf("core: ComputeS: λ = %v outside [0,1]", lambda))
	}
	wmax := w.AbsMaxPerRow()
	s := make([]float32, w.Rows)
	for k := range s {
		xm := float64(inputMax[k])
		wm := float64(wmax[k])
		if xm < statFloor {
			xm = statFloor
		}
		if wm < statFloor {
			wm = statFloor
		}
		s[k] = float32(math.Pow(xm, lambda) / math.Pow(wm, 1-lambda))
		if s[k] <= 0 { // guard against float32 underflow
			s[k] = statFloor
		}
	}
	return s
}

// DeployMode selects how linear layers are realized at inference time.
type DeployMode int

const (
	// DeployDigital keeps exact float32 linears — the paper's "Digital
	// Full precision" baseline.
	DeployDigital DeployMode = iota
	// DeployAnalogNaive maps linears onto analog tiles with the plain
	// scale factors of Eq. 4–5 ("Naive analog").
	DeployAnalogNaive
	// DeployAnalogNORA maps linears onto analog tiles with the NORA
	// component folded into the scale factors (Eq. 6–7, "Our method").
	DeployAnalogNORA
)

func (m DeployMode) String() string {
	switch m {
	case DeployDigital:
		return "digital-fp"
	case DeployAnalogNaive:
		return "analog-naive"
	case DeployAnalogNORA:
		return "analog-nora"
	default:
		return fmt.Sprintf("mode(%d)", int(m))
	}
}

// Deploy builds an inference Runner for the model under the given mode.
// cal is required for DeployAnalogNORA (and ignored otherwise); cfg is the
// analog tile configuration; seed derives per-layer programming and read
// noise streams; opt tunes NORA itself (zero value = defaults).
func Deploy(model *nn.Model, mode DeployMode, cal *Calibration, cfg analog.Config, seed uint64, opt Options) *nn.Runner {
	runner := nn.NewRunner(model)
	if mode == DeployDigital {
		return runner
	}
	lambda := opt.Lambda
	if lambda == 0 {
		lambda = DefaultLambda
	}
	var only map[string]bool
	if len(opt.Layers) > 0 {
		specs := model.Linears()
		known := make(map[string]bool, len(specs))
		for _, spec := range specs {
			known[spec.Name] = true
		}
		only = make(map[string]bool, len(opt.Layers))
		for _, name := range opt.Layers {
			if !known[name] {
				panic(fmt.Sprintf("core: Deploy: unknown layer %q in Options.Layers", name))
			}
			only[name] = true
		}
	}
	root := rng.New(seed)
	for _, spec := range model.Linears() {
		if only != nil && !only[spec.Name] {
			continue
		}
		var s []float32
		if mode == DeployAnalogNORA {
			if cal == nil {
				panic("core: Deploy: NORA mode requires a calibration")
			}
			inputMax, ok := cal.InputMax[spec.Name]
			if !ok {
				panic(fmt.Sprintf("core: Deploy: no calibration for layer %q", spec.Name))
			}
			s = ComputeS(spec.W, inputMax, lambda)
		}
		layer := analog.NewAnalogLinear(spec.Name, spec.W, spec.B, s, cfg, root.Split(spec.Name))
		runner.SetLinear(spec.Name, layer)
	}
	return runner
}
