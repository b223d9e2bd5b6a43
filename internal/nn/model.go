package nn

import (
	"fmt"
	"math"

	"nora/internal/autograd"
	"nora/internal/rng"
	"nora/internal/tensor"
)

// Block holds the parameters of one transformer block. Fields that a given
// architecture does not use are nil (e.g. biases and AttnNormBias under
// ArchLLaMA; WGate/WUp/WDown under ArchOPT).
type Block struct {
	AttnNormGain *autograd.Param // 1×d
	AttnNormBias *autograd.Param // 1×d (OPT only)

	// Attention projections, stored input-major (in × out). WQ/WO are
	// d×d; WK/WV are d×kvDim (kvDim < d under grouped-query attention).
	WQ, WK, WV, WO *autograd.Param
	BQ, BK, BV, BO *autograd.Param // 1×out (OPT only)

	MLPNormGain *autograd.Param // 1×d
	MLPNormBias *autograd.Param // 1×d (OPT only)

	W1, W2 *autograd.Param // OPT MLP: d×ff, ff×d
	B1, B2 *autograd.Param // OPT MLP biases

	WGate, WUp, WDown *autograd.Param // LLaMA MLP: d×ff, d×ff, ff×d
}

// Model is a decoder-only transformer.
type Model struct {
	Cfg Config

	TokEmb *autograd.Param // vocab×d
	PosEmb *autograd.Param // maxseq×d (OPT only)

	Blocks []*Block

	FinalNormGain *autograd.Param // 1×d
	FinalNormBias *autograd.Param // 1×d (OPT only)

	LMHead *autograd.Param // d×vocab

	// Hardware-aware training hooks; see SetInjectors.
	injectors []Injector
	trainSeq  int // batch sequence index, threaded into LinearCtx
}

// SetInjectors installs the hardware-aware training injector chain applied
// to every block linear during ForwardTrain, replacing any previous chain
// (call with no arguments to clear). Injectors run in order: Weight hooks
// before the matmul, Output hooks after the bias add. Inference paths are
// unaffected.
func (m *Model) SetInjectors(inj ...Injector) {
	m.injectors = inj
}

// Injectors returns the installed injector chain (nil when training is
// purely digital).
func (m *Model) Injectors() []Injector {
	return m.injectors
}

// NewModel builds a model with scaled Gaussian initialization
// (std 0.02 for embeddings, 1/sqrt(fanIn) for linears, ones for norm gains).
func NewModel(cfg Config, r *rng.Rand) (*Model, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	m := &Model{Cfg: cfg}
	d, ff := cfg.DModel, cfg.DFF

	gauss := func(name string, rows, cols int, std float32) *autograd.Param {
		mat := tensor.New(rows, cols)
		r.Split(name).FillNormal(mat.Data, 0, std)
		return autograd.NewParam(name, mat)
	}
	ones := func(name string, cols int) *autograd.Param {
		mat := tensor.New(1, cols)
		mat.Fill(1)
		return autograd.NewParam(name, mat)
	}
	zeros := func(name string, cols int) *autograd.Param {
		return autograd.NewParam(name, tensor.New(1, cols))
	}

	m.TokEmb = gauss("tok_emb", cfg.Vocab, d, 0.02)
	if cfg.Arch == ArchOPT {
		m.PosEmb = gauss("pos_emb", cfg.MaxSeq, d, 0.02)
	}
	linStd := float32(1 / math.Sqrt(float64(d)))
	ffStd := float32(1 / math.Sqrt(float64(ff)))
	kv := cfg.KVDim()
	for l := 0; l < cfg.NLayers; l++ {
		b := &Block{}
		p := func(s string) string { return fmt.Sprintf("layer%d.%s", l, s) }
		b.AttnNormGain = ones(p("attn_norm.gain"), d)
		b.WQ = gauss(p("attn.q.w"), d, d, linStd)
		b.WK = gauss(p("attn.k.w"), d, kv, linStd)
		b.WV = gauss(p("attn.v.w"), d, kv, linStd)
		b.WO = gauss(p("attn.o.w"), d, d, linStd)
		b.MLPNormGain = ones(p("mlp_norm.gain"), d)
		switch cfg.Arch {
		case ArchOPT:
			b.AttnNormBias = zeros(p("attn_norm.bias"), d)
			b.BQ = zeros(p("attn.q.b"), d)
			b.BK = zeros(p("attn.k.b"), kv)
			b.BV = zeros(p("attn.v.b"), kv)
			b.BO = zeros(p("attn.o.b"), d)
			b.MLPNormBias = zeros(p("mlp_norm.bias"), d)
			b.W1 = gauss(p("mlp.fc1.w"), d, ff, linStd)
			b.B1 = zeros(p("mlp.fc1.b"), ff)
			b.W2 = gauss(p("mlp.fc2.w"), ff, d, ffStd)
			b.B2 = zeros(p("mlp.fc2.b"), d)
		case ArchLLaMA:
			b.WGate = gauss(p("mlp.gate.w"), d, ff, linStd)
			b.WUp = gauss(p("mlp.up.w"), d, ff, linStd)
			b.WDown = gauss(p("mlp.down.w"), ff, d, ffStd)
		}
		m.Blocks = append(m.Blocks, b)
	}
	m.FinalNormGain = ones("final_norm.gain", d)
	if cfg.Arch == ArchOPT {
		m.FinalNormBias = zeros("final_norm.bias", d)
	}
	m.LMHead = gauss("lm_head", d, cfg.Vocab, linStd)
	return m, nil
}

// Params returns every trainable parameter, in a stable order.
func (m *Model) Params() []*autograd.Param {
	var ps []*autograd.Param
	add := func(p *autograd.Param) {
		if p != nil {
			ps = append(ps, p)
		}
	}
	add(m.TokEmb)
	add(m.PosEmb)
	for _, b := range m.Blocks {
		for _, p := range []*autograd.Param{
			b.AttnNormGain, b.AttnNormBias,
			b.WQ, b.BQ, b.WK, b.BK, b.WV, b.BV, b.WO, b.BO,
			b.MLPNormGain, b.MLPNormBias,
			b.W1, b.B1, b.W2, b.B2,
			b.WGate, b.WUp, b.WDown,
		} {
			add(p)
		}
	}
	add(m.FinalNormGain)
	add(m.FinalNormBias)
	add(m.LMHead)
	return ps
}

// NumParams returns the total scalar parameter count.
func (m *Model) NumParams() int {
	n := 0
	for _, p := range m.Params() {
		n += p.NumEl()
	}
	return n
}

// LinearSpec describes one weight-bearing linear layer of the model in the
// orientation an analog tile consumes: W is (in × out) so that y = x·W + b.
// These are exactly the layers the paper maps onto analog CIM tiles.
type LinearSpec struct {
	Name string
	W    *tensor.Matrix // in × out (aliases model storage)
	B    []float32      // nil when the layer has no bias
}

// Linears enumerates the per-block linear layers in execution order. The LM
// head is excluded: like the embedding it stays digital in our deployment
// (see DESIGN.md).
func (m *Model) Linears() []LinearSpec {
	var specs []LinearSpec
	for l, b := range m.Blocks {
		p := func(s string) string { return fmt.Sprintf("layer%d.%s", l, s) }
		bias := func(pb *autograd.Param) []float32 {
			if pb == nil {
				return nil
			}
			return pb.Value.Row(0)
		}
		specs = append(specs,
			LinearSpec{p("attn.q"), b.WQ.Value, bias(b.BQ)},
			LinearSpec{p("attn.k"), b.WK.Value, bias(b.BK)},
			LinearSpec{p("attn.v"), b.WV.Value, bias(b.BV)},
			LinearSpec{p("attn.o"), b.WO.Value, bias(b.BO)},
		)
		switch m.Cfg.Arch {
		case ArchOPT:
			specs = append(specs,
				LinearSpec{p("mlp.fc1"), b.W1.Value, bias(b.B1)},
				LinearSpec{p("mlp.fc2"), b.W2.Value, bias(b.B2)},
			)
		case ArchLLaMA:
			specs = append(specs,
				LinearSpec{p("mlp.gate"), b.WGate.Value, nil},
				LinearSpec{p("mlp.up"), b.WUp.Value, nil},
				LinearSpec{p("mlp.down"), b.WDown.Value, nil},
			)
		}
	}
	return specs
}

// CausalMask builds an n×n additive attention mask: 0 where position j may
// attend to i (j ≥ i within the window), −1e9 elsewhere. window ≤ 0 means
// full causal attention; window w > 0 restricts row j to columns
// (j−w, j] — Mistral-style sliding-window attention.
func CausalMask(n, window int) *tensor.Matrix {
	m := tensor.New(n, n)
	const neg = -1e9
	for i := 0; i < n; i++ {
		row := m.Row(i)
		for j := 0; j < n; j++ {
			if j > i || (window > 0 && i-j >= window) {
				row[j] = neg
			}
		}
	}
	return m
}
