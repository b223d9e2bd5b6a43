package main

import (
	"fmt"
	"time"

	"nora/internal/analog"
	"nora/internal/nn"
	"nora/internal/rng"
	"nora/internal/serve"
	"nora/internal/tensor"
)

// The ladder times single calls into each layer, on the workload's own
// deployment and at the shapes serving produces: serve (one
// request alone through the handler) → nn (forward pass, batch-generator
// steps) → analog (one AnalogLinear) → analog (one tile read) → tensor (the
// tile's phase-1 MAC) and rng (noise draws). Tile read minus MAC is the
// phase-2 time: digitize, noise, ADC. Every workload runs every rung, so
// each reports the same per-layer metrics.

// rungLayer is the linear layer the analog rungs read: the first block's
// up-projection, the widest layer of every OPT-class model.
const rungLayer = "layer0.mlp.fc1"

// rungBudget bounds the time spent on each rung; rungMinCalls keeps a
// median over several calls when one call outlasts the budget.
const (
	rungBudget   = 300 * time.Millisecond
	rungMinCalls = 5
)

// target is what the ladder times: a server holding the workload's
// deployment of model in NORA mode, that deployment's runner, and an
// eval-split context of the model without its answer token.
type target struct {
	srv    *serve.Server
	model  string
	runner *nn.Runner
	ctx    []int
	seed   uint64
}

// servedTarget is the ladder target of a single-model, single-chip server.
func servedTarget(srv *serve.Server, model string, ctx []int, seed uint64) (target, error) {
	rep, err := servedReplica(srv.Fleet())
	if err != nil {
		return target{}, err
	}
	return target{srv: srv, model: model, runner: rep.Runner(), ctx: ctx, seed: seed}, nil
}

// ladder runs every rung on t, top layer first.
func ladder(t target) ([]metric, error) {
	var out []metric
	for _, f := range []func(target) ([]metric, error){
		rungServe, rungForward, rungStepDecode16, rungLinearDecode16, rungRows64, rungTile,
	} {
		got, err := f(t)
		if err != nil {
			return nil, fmt.Errorf("ladder: %w", err)
		}
		out = append(out, got...)
	}
	return out, nil
}

// timeCalls calls f until the rung budget is spent, at least rungMinCalls
// times, and returns the median call time and the number of calls.
func timeCalls(f func()) (time.Duration, int) {
	var ds []time.Duration
	begin := time.Now()
	for len(ds) < rungMinCalls || time.Since(begin) < rungBudget {
		start := time.Now()
		f()
		ds = append(ds, time.Since(start))
	}
	return medianDuration(ds), len(ds)
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// analogLayer returns the deployed analog layer the rungs read.
func analogLayer(r *nn.Runner) (*analog.AnalogLinear, error) {
	l, ok := r.Linear(rungLayer).(*analog.AnalogLinear)
	if !ok {
		return nil, fmt.Errorf("%s is not an analog layer", rungLayer)
	}
	return l, nil
}

// randomMatrix fills a rows×cols matrix with standard normal values.
func randomMatrix(rows, cols int, r *rng.Rand) *tensor.Matrix {
	m := tensor.New(rows, cols)
	r.FillNormal(m.Data, 0, 1)
	return m
}

// rungServe times one /v1/predict on the eval context and one 16-token
// /v1/generate on its first 16 tokens, each sent alone through the
// handler: the request path, the micro-batcher's coalescing window and the
// generation scheduler without company.
func rungServe(t target) ([]metric, error) {
	body := encode(predictBody{Model: t.model, Mode: "nora", Context: t.ctx})
	var err error
	dp, np := timeCalls(func() {
		if rep := predict(t.srv, body); rep.err != nil {
			err = rep.err
		}
	})
	gen := generateBody{Model: t.model, Mode: "nora", Prompt: t.ctx[:16], MaxTokens: 16}
	dg, ng := timeCalls(func() {
		if rep := generate(t.srv, gen); rep.err != nil {
			err = rep.err
		}
	})
	if err != nil {
		return nil, err
	}
	return []metric{{"serve.predict_ms", "ms", ms(dp), np}, {"serve.generate16_ms", "ms", ms(dg), ng}}, nil
}

// rungForward times Runner.Logits on the eval context.
func rungForward(t target) ([]metric, error) {
	scoped := t.runner.WithNoiseScope("perfbench/ladder")
	d, n := timeCalls(func() { scoped.Logits(t.ctx) })
	return []metric{{"nn.forward_ms", "ms", ms(d), n}}, nil
}

// rungRows64 times AnalogLinear.ForwardInto on 64 rows, the batch the
// sequence-batched read path processes at once.
func rungRows64(t target) ([]metric, error) {
	l, err := analogLayer(t.runner)
	if err != nil {
		return nil, err
	}
	x := randomMatrix(64, l.InDim(), rng.New(t.seed))
	out := tensor.New(64, l.OutDim())
	d, n := timeCalls(func() { l.ForwardInto(out, x) })
	return []metric{{"analog.linear_rows64_us", "us", us(d), n}}, nil
}

// rungLinearDecode16 times AnalogLinear.ForwardIntoRowScoped on 16 rows in
// 16 noise scopes: one decode step's read for 16 requests.
func rungLinearDecode16(t target) ([]metric, error) {
	l, err := analogLayer(t.runner)
	if err != nil {
		return nil, err
	}
	scopes := make([]nn.LinearOp, 16)
	for i := range scopes {
		scopes[i] = l.WithNoiseScope(fmt.Sprintf("perfbench/ladder/%d", i))
	}
	x := randomMatrix(16, l.InDim(), rng.New(t.seed))
	out := tensor.New(16, l.OutDim())
	d, n := timeCalls(func() { l.ForwardIntoRowScoped(out, x, scopes) })
	return []metric{{"analog.linear_decode16_us", "us", us(d), n}}, nil
}

// rungStepDecode16 times BatchGenerator.StepSegs with 16 one-token rows,
// after each slot has prefilled a 16-token prompt: one decode step of 16
// chat requests, the server's default decode batch.
func rungStepDecode16(t target) ([]metric, error) {
	const slots, prompt = 16, 16
	maxSeq := t.runner.Model().Cfg.MaxSeq
	vocab := t.runner.Model().Cfg.Vocab
	bg := nn.NewBatchGeneratorPaged(t.runner, slots, 0, 0)
	var ds []time.Duration
	begin := time.Now()
	for cycle := 0; cycle < 2 || time.Since(begin) < rungBudget; cycle++ {
		segs := make([]nn.StepSeg, slots)
		for i := range segs {
			slot, err := bg.Begin(fmt.Sprintf("perfbench/ladder/%d/%d", cycle, i), maxSeq)
			if err != nil {
				return nil, err
			}
			toks := make([]int, prompt)
			for j := range toks {
				toks[j] = (i*7 + j*3 + cycle) % vocab
			}
			segs[i] = nn.StepSeg{Slot: slot, Tokens: toks}
		}
		if _, err := bg.StepSegs(segs); err != nil {
			return nil, err
		}
		for pos := prompt; pos < maxSeq; pos++ {
			for i := range segs {
				segs[i].Tokens = segs[i].Tokens[:1]
				segs[i].Tokens[0] = (pos + i) % vocab
			}
			start := time.Now()
			if _, err := bg.StepSegs(segs); err != nil {
				return nil, err
			}
			ds = append(ds, time.Since(start))
		}
		for _, s := range segs {
			bg.Release(s.Slot)
		}
	}
	return []metric{{"nn.step_decode16_ms", "ms", ms(medianDuration(ds)), len(ds)}}, nil
}

// rungTile times Tile.MVMBatchInto on the rung layer's first tile with 1
// and 64 rows, the MAC of phase 1 at the 64-row shape
// (tensor.MatMulSerialInto, twice when IR drop needs the |W| load product),
// and Rand.FillNormal per draw on the deployment's noise stream.
func rungTile(tg target) ([]metric, error) {
	l, err := analogLayer(tg.runner)
	if err != nil {
		return nil, err
	}
	t, ok := l.Tiles()[0][0].(*analog.Tile)
	if !ok {
		return nil, fmt.Errorf("%s is built from sliced tiles", rungLayer)
	}
	cfg := l.Config()
	noise := rng.NewStream(tg.seed, cfg.NoiseStream)
	var out []metric
	for _, rows := range []int{1, 64} {
		xs := randomMatrix(rows, t.Rows(), noise)
		dst := tensor.New(rows, t.Cols())
		d, n := timeCalls(func() { t.MVMBatchInto(1, dst, xs, noise) })
		out = append(out, metric{fmt.Sprintf("analog.tile_read_t%d_us", rows), "us", us(d), n})
	}
	macs := 1
	if cfg.IRDropScale > 0 {
		macs = 2
	}
	a := randomMatrix(64, t.Rows(), noise)
	w := randomMatrix(t.Rows(), t.Cols(), noise)
	z := tensor.New(64, t.Cols())
	d, n := timeCalls(func() {
		for i := 0; i < macs; i++ {
			tensor.MatMulSerialInto(z, a, w)
		}
	})
	out = append(out, metric{"tensor.mac_t64_us", "us", us(d), n})

	const draws = 4096
	buf := make([]float32, draws)
	d, n = timeCalls(func() { noise.FillNormal(buf, 0, 1) })
	return append(out, metric{"rng.normal_ns", "ns", float64(d) / draws, n * draws}), nil
}
