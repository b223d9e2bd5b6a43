package nn

import (
	"fmt"
	"math"

	"nora/internal/autograd"
	"nora/internal/rng"
	"nora/internal/tensor"
)

// LinearCtx identifies one block-linear application site during the training
// forward pass. Name matches the per-block suffix used by Linears()
// ("attn.q", "mlp.fc1", ...), so injectors that model device defects can key
// their realizations to the same layers the analog deployment maps to tiles.
type LinearCtx struct {
	Layer int    // transformer block index
	Name  string // linear name within the block, e.g. "attn.q", "mlp.fc1"
	Seq   int    // sequence index within the current batch
}

// Key returns a stable identifier for this site including the batch sequence
// index. Activation-space realizations (output noise) are cached under it.
func (c LinearCtx) Key() string {
	return fmt.Sprintf("layer%d/%s/seq%d", c.Layer, c.Name, c.Seq)
}

// WeightKey is Key without the sequence index: weight-space realizations
// (stuck cells, clamp thresholds) are properties of the layer and are shared
// by every sequence in a batch.
func (c LinearCtx) WeightKey() string {
	return fmt.Sprintf("layer%d/%s", c.Layer, c.Name)
}

// Injector perturbs the training forward pass of block linears, the layers
// the deployment maps onto analog tiles. Implementations model one hardware
// effect each (read noise, stuck cells, conductance clipping); a Trainer
// composes several into a hardware-aware training recipe.
//
// Contract: BeginStep announces a new optimizer step and must be idempotent
// for a repeated step index. Stochastic realizations are drawn at most once
// per (step, site), so that within one step the loss is a deterministic
// function of the parameters — finite-difference gradient checks and
// re-forwarding under distillation both depend on this.
type Injector interface {
	BeginStep(step, totalSteps int)
	// Weight transforms the weight node before the matmul (identity for
	// activation-space injectors).
	Weight(tp *autograd.Tape, ctx LinearCtx, w *autograd.Var) *autograd.Var
	// Output transforms the linear output after the bias add (identity for
	// weight-space injectors).
	Output(tp *autograd.Tape, ctx LinearCtx, out *autograd.Var) *autograd.Var
}

// OutputNoise adds Gaussian noise with std Rel·max|y| to every block-linear
// output, the standard straight-through noise-injection scheme of
// hardware-aware training (Rasch et al., Nature Electronics 2023): the noise
// enters the forward value but contributes no gradient term of its own.
// RampFrac > 0 ramps the injected magnitude linearly from 0 at step 0 to the
// full Rel over the first RampFrac fraction of training, which avoids
// destabilizing the early loss landscape.
type OutputNoise struct {
	Rel      float32   // noise std relative to max|y|; ≤0 disables
	Rng      *rng.Rand // source stream (required when Rel > 0)
	RampFrac float64   // fraction of totalSteps to ramp 0→Rel; ≤0 disables ramping

	begun   bool
	step    int
	scale   float32
	stepRng *rng.Rand
	cache   map[string]*tensor.Matrix
}

// BeginStep freezes the per-step noise stream and applies the ramp schedule.
func (o *OutputNoise) BeginStep(step, totalSteps int) {
	if o.Rel <= 0 || o.Rng == nil {
		return
	}
	if o.begun && step == o.step {
		return
	}
	o.begun, o.step = true, step
	o.scale = o.Rel
	if o.RampFrac > 0 && totalSteps > 0 {
		ramp := o.RampFrac * float64(totalSteps)
		if f := float64(step) / ramp; f < 1 {
			o.scale = o.Rel * float32(f)
		}
	}
	o.stepRng = o.Rng.Split(fmt.Sprintf("step%d", step))
	o.cache = make(map[string]*tensor.Matrix)
}

// Weight is the identity: output noise lives in activation space.
func (o *OutputNoise) Weight(tp *autograd.Tape, ctx LinearCtx, w *autograd.Var) *autograd.Var {
	return w
}

// Output adds the per-step frozen noise realization.
func (o *OutputNoise) Output(tp *autograd.Tape, ctx LinearCtx, out *autograd.Var) *autograd.Var {
	if o.Rel <= 0 || o.Rng == nil {
		return out
	}
	if !o.begun {
		panic("nn: OutputNoise.Output before BeginStep (use a Trainer)")
	}
	if o.scale <= 0 {
		return out
	}
	key := ctx.Key()
	noise, ok := o.cache[key]
	if !ok {
		// The std is captured from the first forward of the step, so repeated
		// forwards see an exact constant perturbation even as parameters are
		// finite-difference nudged.
		noise = tensor.New(out.Val.Rows, out.Val.Cols)
		o.stepRng.Split(key).FillNormal(noise.Data, 0, o.scale*out.Val.AbsMax())
		o.cache[key] = noise
	} else if noise.Rows != out.Val.Rows || noise.Cols != out.Val.Cols {
		panic(fmt.Sprintf("nn: OutputNoise shape changed within a step at %s: %dx%d vs %dx%d",
			key, noise.Rows, noise.Cols, out.Val.Rows, out.Val.Cols))
	}
	return tp.AddConst(out, noise)
}

// WeightClamp bounds every weight to ±MaxSigma·RMS(W) during the training
// forward — the crossbar-aware weight scaling of the Rasch recipe. An analog
// tile's conductance window is finite and the per-column scale is set by the
// largest weight, so training inside a bounded envelope keeps outliers from
// dictating the quantization step at deploy time. The clamp uses the exact
// clamp gradient (zero outside the window), which drives saturated weights to
// stay saturated rather than growing without bound.
type WeightClamp struct {
	MaxSigma float32 // clamp at ±MaxSigma·RMS(W); ≤0 disables

	begun bool
	step  int
	tau   map[string]float32
}

// BeginStep refreshes the per-layer clamp thresholds from the current weights.
func (c *WeightClamp) BeginStep(step, totalSteps int) {
	if c.begun && step == c.step {
		return
	}
	c.begun, c.step = true, step
	c.tau = make(map[string]float32)
}

// Weight clamps the weight node to the per-step threshold for this layer.
func (c *WeightClamp) Weight(tp *autograd.Tape, ctx LinearCtx, w *autograd.Var) *autograd.Var {
	if c.MaxSigma <= 0 {
		return w
	}
	if c.tau == nil {
		c.tau = make(map[string]float32)
	}
	key := ctx.WeightKey()
	tau, ok := c.tau[key]
	if !ok {
		tau = c.MaxSigma * rmsOf(w.Val)
		c.tau[key] = tau
	}
	if tau <= 0 {
		return w
	}
	return tp.Clamp(w, -tau, tau)
}

// Output is the identity: clamping lives in weight space.
func (c *WeightClamp) Output(tp *autograd.Tape, ctx LinearCtx, out *autograd.Var) *autograd.Var {
	return out
}

func rmsOf(m *tensor.Matrix) float32 {
	if len(m.Data) == 0 {
		return 0
	}
	var sum float64
	for _, v := range m.Data {
		sum += float64(float64(v) * float64(v))
	}
	return float32(math.Sqrt(sum / float64(len(m.Data))))
}
