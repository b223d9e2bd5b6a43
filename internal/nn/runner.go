package nn

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sync"

	"nora/internal/tensor"
)

// LinearOp computes y = f(x) for one weight-bearing linear layer during
// inference. The digital implementation is an exact x·W + b; the analog
// package provides a CIM-tile implementation with the full noise pipeline.
type LinearOp interface {
	// Name returns the layer's stable identifier (e.g. "layer2.attn.q").
	Name() string
	// Forward maps an (n × in) activation matrix to (n × out).
	Forward(x *tensor.Matrix) *tensor.Matrix
}

// DigitalLinear is the exact float32 linear layer y = x·W + b.
type DigitalLinear struct {
	spec LinearSpec
}

// NewDigitalLinear wraps a LinearSpec as an exact digital operator.
func NewDigitalLinear(spec LinearSpec) *DigitalLinear { return &DigitalLinear{spec: spec} }

// Name implements LinearOp.
func (d *DigitalLinear) Name() string { return d.spec.Name }

// Forward implements LinearOp.
func (d *DigitalLinear) Forward(x *tensor.Matrix) *tensor.Matrix {
	y := tensor.MatMul(x, d.spec.W)
	if d.spec.B != nil {
		y.AddRowVecInPlace(d.spec.B)
	}
	return y
}

// ForwardInto implements ForwardIntoOp.
func (d *DigitalLinear) ForwardInto(out, x *tensor.Matrix) {
	tensor.MatMulInto(out, x, d.spec.W)
	if d.spec.B != nil {
		out.AddRowVecInPlace(d.spec.B)
	}
}

// ForwardIntoOp is a LinearOp that can write its result into caller-owned
// storage instead of allocating a fresh matrix per call. Results must be
// bit-identical to Forward. The inference runner uses this to keep the
// steady-state forward pass allocation-free.
type ForwardIntoOp interface {
	LinearOp
	ForwardInto(out, x *tensor.Matrix)
}

// Runner executes the inference forward pass of a model with pluggable
// linear operators. A fresh Runner uses exact digital linears everywhere
// (the paper's "Digital Full precision" baseline).
type Runner struct {
	model *Model
	ops   map[string]LinearOp

	// layerNames pre-renders the "layer%d.%s" operator keys so the per-block
	// inference loop does not format strings (and allocate) on every call.
	layerNames []map[string]string

	// PreLinear, when non-nil, observes the input activations of every
	// linear layer just before the operator runs. NORA's calibration pass
	// uses this to collect per-channel max|x_k| statistics.
	PreLinear func(name string, x *tensor.Matrix)
}

// NewRunner returns a Runner over m with all-digital linears.
func NewRunner(m *Model) *Runner {
	r := &Runner{model: m, ops: make(map[string]LinearOp)}
	for _, spec := range m.Linears() {
		r.ops[spec.Name] = NewDigitalLinear(spec)
	}
	r.layerNames = make([]map[string]string, len(m.Blocks))
	for l := range m.Blocks {
		names := make(map[string]string)
		for _, suffix := range []string{
			"attn.q", "attn.k", "attn.v", "attn.o",
			"mlp.fc1", "mlp.fc2", "mlp.gate", "mlp.up", "mlp.down",
		} {
			names[suffix] = fmt.Sprintf("layer%d.%s", l, suffix)
		}
		r.layerNames[l] = names
	}
	return r
}

// Model returns the underlying model.
func (r *Runner) Model() *Model { return r.model }

// SetLinear swaps the operator for one layer. It panics if the layer name
// is unknown (a typo here would silently skip a layer otherwise).
func (r *Runner) SetLinear(name string, op LinearOp) {
	if _, ok := r.ops[name]; !ok {
		panic(fmt.Sprintf("nn: SetLinear: unknown layer %q", name))
	}
	r.ops[name] = op
}

// Linear returns the operator currently installed for name.
func (r *Runner) Linear(name string) LinearOp { return r.ops[name] }

// NoiseScopedOp is a LinearOp whose runtime stochastic behaviour can be
// re-derived as a pure function of a scope label: WithNoiseScope returns a
// lightweight view of the operator drawing its noise from a stream that
// depends only on (operator seed, label), never on how many draws other
// scopes have consumed. This is what makes parallel evaluation bit-identical
// to serial evaluation regardless of scheduling order.
//
// ForwardIntoRowScoped reads each row of a batch under a different scope:
// row i draws from scopes[i]'s stream (a WithNoiseScope view of the same
// operator) exactly as a single-row read on that view would, while the
// deterministic work — input conversion and the blocked MAC on an analog
// tile grid — is shared across the whole batch. The decode step rides on
// it: N in-flight requests' rows form one N×d read whose per-request noise
// remains a pure function of (deployment, request), independent of which
// other requests happen to share the batch.
type NoiseScopedOp interface {
	LinearOp
	WithNoiseScope(label string) LinearOp
	ForwardIntoRowScoped(out, x *tensor.Matrix, scopes []LinearOp)
}

// WithNoiseScope returns a view of the runner in which every NoiseScopedOp
// is replaced by its scoped view; deterministic operators are shared. The
// view shares the underlying model and any programmed hardware state.
func (r *Runner) WithNoiseScope(label string) *Runner {
	ops := make(map[string]LinearOp, len(r.ops))
	for name, op := range r.ops {
		if s, ok := op.(NoiseScopedOp); ok {
			ops[name] = s.WithNoiseScope(label)
		} else {
			ops[name] = op
		}
	}
	return &Runner{model: r.model, ops: ops, layerNames: r.layerNames, PreLinear: r.PreLinear}
}

// hasScopedOps reports whether any installed operator carries re-derivable
// runtime noise (pure digital runners skip per-sequence scoping entirely).
func (r *Runner) hasScopedOps() bool {
	for _, op := range r.ops {
		if _, ok := op.(NoiseScopedOp); ok {
			return true
		}
	}
	return false
}

// forwardState is the pooled single-sequence state behind Logits and
// PredictLast: a decode state whose one KV page spans exactly the context,
// plus the step's scratch. Every buffer is overwritten before it is read,
// so reuse across calls and goroutines cannot perturb results.
type forwardState struct {
	kv   kvPagePool
	st   decodeState
	page []float32
	sc   decodeScratch
}

var forwardPool = sync.Pool{New: func() any { return new(forwardState) }}

// lastLogits runs the context through the decode step as one prefill
// segment on pooled state and returns that state with the logits after the
// last token, which stay valid until the caller puts fs back in
// forwardPool. It panics on an empty or over-long context or an
// out-of-range token.
func (r *Runner) lastLogits(tokens []int) (fs *forwardState, logits []float32) {
	m := r.model
	n := len(tokens)
	if n == 0 || n > m.Cfg.MaxSeq {
		panic("nn: Logits sequence length out of range")
	}
	fs = forwardPool.Get().(*forwardState)
	layers, kvd := len(m.Blocks), m.Cfg.KVDim()
	fs.kv = kvPagePool{layers: layers, kvDim: kvd, pageTokens: n, pageLen: layers * 2 * n * kvd, total: 1}
	fs.st.runner, fs.st.pool, fs.st.pos = r, &fs.kv, 0
	fs.st.pages = append(fs.st.pages[:0], grow(&fs.page, fs.kv.pageLen))
	fs.sc.seg1[0] = stepSeg{st: &fs.st, tokens: tokens}
	out, err := stepSegments(r, fs.sc.seg1[:], &fs.sc)
	if err != nil {
		panic(err.Error())
	}
	return fs, out.Row(0)
}

// Logits returns the next-token logits after the last token of the context
// (length vocab, freshly allocated). The context runs through the same
// decode step as generation, as one prefill segment.
func (r *Runner) Logits(tokens []int) []float32 {
	fs, logits := r.lastLogits(tokens)
	defer forwardPool.Put(fs)
	return append([]float32(nil), logits...)
}

// PredictLast returns the argmax next-token prediction at the final
// position of the context.
func (r *Runner) PredictLast(context []int) int {
	fs, logits := r.lastLogits(context)
	defer forwardPool.Put(fs)
	return argmax(logits)
}

// EvalResult summarizes one evaluation pass over a sequence set.
type EvalResult struct {
	Correct   int   // sequences whose final token was predicted exactly
	Evaluated int   // sequences actually scored
	Skipped   int   // sequences shorter than 2 tokens (no context/target pair)
	Tokens    int64 // context tokens forwarded through the model
}

// Accuracy returns Correct/Evaluated; it is 0 when nothing was evaluated.
func (e EvalResult) Accuracy() float64 {
	if e.Evaluated == 0 {
		return 0
	}
	return float64(e.Correct) / float64(e.Evaluated)
}

// EvalAccuracy measures last-word prediction accuracy over sequences: for
// each sequence the final token is the target and the preceding tokens are
// the context (the Lambada protocol). Sequences shorter than 2 tokens carry
// no (context, target) pair; they are skipped (and counted in the Skipped
// field of Eval's result) instead of aborting the pass. An empty or
// all-skipped sequence set yields accuracy 0.
func (r *Runner) EvalAccuracy(sequences [][]int) float64 {
	return r.Eval(sequences, 1).Accuracy()
}

// Eval is the batched evaluation entry point: sequences are scored on up to
// workers goroutines (workers <= 0 selects GOMAXPROCS). Every sequence's
// stochastic operators draw from a noise stream derived purely from the
// operator's seed and the sequence index, so the result is bit-identical
// for any worker count — Eval(seqs, 1) and Eval(seqs, 32) agree exactly,
// and repeated calls on the same runner reproduce the same result.
func (r *Runner) Eval(sequences [][]int, workers int) EvalResult {
	// A background context is never canceled, so the error path is dead and
	// the result is bit-identical to the historical uncancellable Eval.
	res, _ := r.evalCtx(context.Background(), sequences, workers)
	return res
}

// EvalCtx is Eval with cooperative cancellation. The contract:
//
//   - Cancellation is checked between sequences: a canceled ctx stops new
//     sequences from starting, waits only for the at-most-`workers`
//     in-flight sequences to finish, and returns ctx.Err() promptly.
//   - The error return is partial-result-free: on cancellation the
//     EvalResult is the zero value, never a partially aggregated count
//     that could be mistaken for a (much worse) real accuracy.
//   - When ctx is never canceled the result is bit-identical to
//     Eval(sequences, workers) — per-sequence noise scoping keeps every
//     sequence's stochastic draws independent of scheduling, and the
//     context adds no draws.
func (r *Runner) EvalCtx(ctx context.Context, sequences [][]int, workers int) (EvalResult, error) {
	return r.evalCtx(ctx, sequences, workers)
}

func (r *Runner) evalCtx(ctx context.Context, sequences [][]int, workers int) (EvalResult, error) {
	scoped := r.hasScopedOps()
	type outcome struct {
		correct bool
		skipped bool
		tokens  int64
	}
	outcomes := make([]outcome, len(sequences))
	evalOne := func(i int) {
		seq := sequences[i]
		if len(seq) < 2 {
			outcomes[i].skipped = true
			return
		}
		rr := r
		if scoped {
			rr = r.WithNoiseScope(fmt.Sprintf("eval/seq%d", i))
		}
		ctx := seq[:len(seq)-1]
		outcomes[i] = outcome{
			correct: rr.PredictLast(ctx) == seq[len(seq)-1],
			tokens:  int64(len(ctx)),
		}
	}

	n := len(sequences)
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return EvalResult{}, err
			}
			evalOne(i)
		}
	} else {
		var wg sync.WaitGroup
		next := make(chan int)
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range next {
					evalOne(i)
				}
			}()
		}
		var canceled error
		for i := 0; i < n; i++ {
			select {
			case next <- i:
			case <-ctx.Done():
				canceled = ctx.Err()
			}
			if canceled != nil {
				break
			}
		}
		close(next)
		wg.Wait()
		if canceled != nil {
			return EvalResult{}, canceled
		}
	}

	var res EvalResult
	for _, o := range outcomes {
		switch {
		case o.skipped:
			res.Skipped++
		default:
			res.Evaluated++
			res.Tokens += o.tokens
			if o.correct {
				res.Correct++
			}
		}
	}
	return res, nil
}

// --- digital inference kernels (mirror the autograd forward exactly) ---
//
// Every product that feeds a sum is rounded explicitly — float32(x*y), not
// x*y — because the Go spec lets a compiler fuse a*b+c into one FMA (arm64
// does), and an explicit conversion is what forbids that fusion; the same
// holds for attendCachedRow.

func layerNormInferInto(out, x *tensor.Matrix, gain, bias []float32) {
	for i := 0; i < x.Rows; i++ {
		row := x.Row(i)
		var mean float64
		for _, v := range row {
			mean += float64(v)
		}
		mean /= float64(x.Cols)
		var varr float64
		for _, v := range row {
			d := float64(v) - mean
			varr += float64(d * d)
		}
		varr /= float64(x.Cols)
		is := float32(1 / math.Sqrt(varr+normEps))
		o := out.Row(i)
		for j, v := range row {
			o[j] = float32((v-float32(mean))*is*gain[j]) + bias[j]
		}
	}
}

func rmsNormInferInto(out, x *tensor.Matrix, gain []float32) {
	for i := 0; i < x.Rows; i++ {
		row := x.Row(i)
		var ms float64
		for _, v := range row {
			ms += float64(float64(v) * float64(v))
		}
		ms /= float64(x.Cols)
		ir := float32(1 / math.Sqrt(ms+normEps))
		o := out.Row(i)
		for j, v := range row {
			o[j] = v * ir * gain[j]
		}
	}
}

// reluInPlace replaces every element of v that is not > 0 by +0, so −0
// and NaN become +0 too. It has no data-dependent branch, which random-sign
// activations would mispredict half the time: x > 0 holds exactly when its
// bits b satisfy b−1 < 0x7f800000 as an unsigned compare (+0 wraps to
// 0xffffffff; negatives and NaNs land at or above it), and the borrow of
// that subtraction, widened to 64 bits, is the mask that keeps or clears b.
func reluInPlace(v []float32) {
	for i, x := range v {
		b := math.Float32bits(x)
		keep := uint32(int64(uint64(b-1)-0x7f800000) >> 63)
		v[i] = math.Float32frombits(b & keep)
	}
}

// ropeFreqCache memoizes the per-index RoPE frequencies base^(−2i/headDim):
// they depend only on (headDim, base), and recomputing math.Pow per element
// per call dominated the rotary cost. The cached values are produced by the
// exact expression the loop historically evaluated, so rotations are
// bit-identical.
var ropeFreqCache sync.Map

func ropeFreqs(headDim int, base float64) []float64 {
	type key struct {
		headDim int
		base    float64
	}
	k := key{headDim, base}
	if f, ok := ropeFreqCache.Load(k); ok {
		return f.([]float64)
	}
	freqs := make([]float64, headDim/2)
	for i := range freqs {
		freqs[i] = math.Pow(base, -2*float64(i)/float64(headDim))
	}
	f, _ := ropeFreqCache.LoadOrStore(k, freqs)
	return f.([]float64)
}

// ropeInferInPlace rotates every head of q and k (rows at positions) by
// RoPE. A row's angles pos·freq_i depend only on its position and the pair
// index i < headDim/2, so their cosines and sines are computed once per
// row, into the scratch cs, and shared by all heads of both matrices.
func ropeInferInPlace(q, k *tensor.Matrix, headDim int, positions []int, base float64, cs *[]float32) {
	freqs := ropeFreqs(headDim, base)
	half := len(freqs)
	buf := grow(cs, 2*half)
	co, si := buf[:half], buf[half:]
	for r := 0; r < q.Rows; r++ {
		pos := float64(positions[r])
		for i, f := range freqs {
			theta := pos * f
			co[i], si[i] = float32(math.Cos(theta)), float32(math.Sin(theta))
		}
		ropeRow(q.Row(r), co, si)
		ropeRow(k.Row(r), co, si)
	}
}

// ropeRow rotates each column pair (2c, 2c+1) of row by the angle of pair
// index c mod len(co).
func ropeRow(row, co, si []float32) {
	i := 0
	for c := 0; c < len(row)/2; c++ {
		x0, x1 := row[2*c], row[2*c+1]
		row[2*c] = float32(x0*co[i]) - float32(x1*si[i])
		row[2*c+1] = float32(x0*si[i]) + float32(x1*co[i])
		if i++; i == len(co) {
			i = 0
		}
	}
}
