package nn

import (
	"math"
	"testing"

	"nora/internal/autograd"
	"nora/internal/rng"
)

// fdConfig is deliberately tiny so finite-difference checks over the full
// training forward stay cheap.
func fdConfig(arch Arch) Config {
	cfg := Config{
		Name: "fd-test", Arch: arch,
		Vocab: 13, DModel: 16, NHeads: 2, NLayers: 2, DFF: 24, MaxSeq: 16,
	}
	if arch == ArchLLaMA {
		cfg.RoPEBase = 10000
	}
	return cfg
}

var fdBatch = [][]int{{1, 2, 3, 4, 5, 6, 7}, {3, 1, 4, 1, 5, 9, 2}}

// fdCheckGrads compares every parameter's analytic gradient (accumulated by
// one call to loss) against central differences of loss itself, sampling a
// spread of entries per parameter. loss must be a deterministic function of
// the parameters — injectors guarantee this within a step once BeginStep has
// frozen their realizations. skip filters entries where the check is invalid
// (e.g. weights within the finite-difference stencil of a clamp rail).
func fdCheckGrads(t *testing.T, m *Model, loss func() float64, skip func(p *autograd.Param, i int) bool) {
	t.Helper()
	params := m.Params()
	for _, p := range params {
		p.ZeroGrad()
	}
	loss()
	analytic := make(map[*autograd.Param][]float32, len(params))
	for _, p := range params {
		analytic[p] = append([]float32(nil), p.Grad.Data...)
	}
	const h = 5e-4
	checked := 0
	for _, p := range params {
		stride := p.NumEl()/3 + 1
		for i := 0; i < p.NumEl(); i += stride {
			if skip != nil && skip(p, i) {
				continue
			}
			orig := p.Value.Data[i]
			p.Value.Data[i] = orig + h
			up := loss()
			p.Value.Data[i] = orig - h
			down := loss()
			p.Value.Data[i] = orig
			a := float64(analytic[p][i])
			n := (up - down) / (2 * h)
			denom := math.Max(1, math.Max(math.Abs(a), math.Abs(n)))
			if math.Abs(a-n)/denom > 3e-2 {
				t.Fatalf("%s[%d]: analytic grad %v vs numeric %v", p.Name, i, a, n)
			}
			checked++
		}
	}
	if checked < 20 {
		t.Fatalf("only %d gradient entries checked — sampling broken", checked)
	}
}

// injectedLoss returns the step-0-frozen training loss closure for m under
// its installed injectors.
func injectedLoss(m *Model, injs []Injector) func() float64 {
	return func() float64 {
		for _, inj := range injs {
			inj.BeginStep(0, 10)
		}
		return m.LossOnBatch(fdBatch)
	}
}

func TestGradTrainForwardPlain(t *testing.T) {
	// Baseline: the hook rewrite must leave the uninjected forward exact.
	for _, arch := range []Arch{ArchOPT, ArchLLaMA} {
		m, err := NewModel(fdConfig(arch), rng.New(41))
		if err != nil {
			t.Fatal(err)
		}
		fdCheckGrads(t, m, func() float64 { return m.LossOnBatch(fdBatch) }, nil)
	}
}

func TestGradTrainForwardOutputNoise(t *testing.T) {
	m, err := NewModel(fdConfig(ArchOPT), rng.New(42))
	if err != nil {
		t.Fatal(err)
	}
	injs := []Injector{&OutputNoise{Rel: 0.1, Rng: rng.New(5)}}
	m.SetInjectors(injs...)
	fdCheckGrads(t, m, injectedLoss(m, injs), nil)
}

func TestGradTrainForwardWeightClamp(t *testing.T) {
	m, err := NewModel(fdConfig(ArchLLaMA), rng.New(43))
	if err != nil {
		t.Fatal(err)
	}
	const sigma = 1.0 // low enough that the clamp is active on real weights
	injs := []Injector{&WeightClamp{MaxSigma: sigma}}
	m.SetInjectors(injs...)
	// The clamp gradient is exact except within the finite-difference
	// stencil of the rails at ±sigma·RMS(W); skip entries there. tau is
	// frozen at the first forward, so computing it from the unperturbed
	// weights matches the injector's cached threshold.
	clamped := func(p *autograd.Param) bool {
		for _, b := range m.Blocks {
			for _, w := range []*autograd.Param{b.WQ, b.WK, b.WV, b.WO, b.WGate, b.WUp, b.WDown, b.W1, b.W2} {
				if w == p {
					return true
				}
			}
		}
		return false
	}
	tau := make(map[*autograd.Param]float32)
	skip := func(p *autograd.Param, i int) bool {
		if !clamped(p) {
			return false
		}
		tv, ok := tau[p]
		if !ok {
			tv = sigma * rmsOf(p.Value)
			tau[p] = tv
		}
		v := p.Value.Data[i]
		if v < 0 {
			v = -v
		}
		d := v - tv
		if d < 0 {
			d = -d
		}
		return d < 0.02
	}
	fdCheckGrads(t, m, injectedLoss(m, injs), skip)
}

func TestGradTrainForwardDistilled(t *testing.T) {
	cfg := fdConfig(ArchOPT)
	teacher, err := NewModel(cfg, rng.New(44))
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewModel(cfg, rng.New(45))
	if err != nil {
		t.Fatal(err)
	}
	injs := []Injector{&OutputNoise{Rel: 0.05, Rng: rng.New(6)}}
	m.SetInjectors(injs...)
	loss := func() float64 {
		for _, inj := range injs {
			inj.BeginStep(0, 10)
		}
		return m.LossOnBatchDistilled(fdBatch, teacher, 0.5, 2)
	}
	fdCheckGrads(t, m, loss, nil)
}

func TestOutputNoiseRamp(t *testing.T) {
	// With RampFrac = 0.5 over 10 steps, step 0 injects nothing and step 5+
	// injects at full scale.
	o := &OutputNoise{Rel: 0.2, Rng: rng.New(7), RampFrac: 0.5}
	o.BeginStep(0, 10)
	if o.scale != 0 {
		t.Fatalf("step 0 scale %v, want 0", o.scale)
	}
	o.BeginStep(2, 10)
	want := float32(0.2 * 2.0 / 5.0)
	if math.Abs(float64(o.scale-want)) > 1e-6 {
		t.Fatalf("step 2 scale %v, want %v", o.scale, want)
	}
	o.BeginStep(5, 10)
	if o.scale != 0.2 {
		t.Fatalf("step 5 scale %v, want full 0.2", o.scale)
	}
}

func TestOutputNoisePanicsWithoutBeginStep(t *testing.T) {
	m, err := NewModel(fdConfig(ArchOPT), rng.New(46))
	if err != nil {
		t.Fatal(err)
	}
	m.SetInjectors(&OutputNoise{Rel: 0.1, Rng: rng.New(8)})
	defer func() {
		if recover() == nil {
			t.Fatal("frozen-mode OutputNoise without BeginStep did not panic")
		}
	}()
	m.LossOnBatch(fdBatch)
}
