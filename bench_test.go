// Package nora's root benchmarks time the layers every study is built
// from: Table I's noise inventory and Table II's preset on one analog MVM
// (with the hard zero-allocation gate on the read path), Fig. 4's
// distribution analysis, the engine's deployment cache and evaluation, the
// digital and analog forwards, training and calibration steps, and the E22
// decode and E23 chunked-prefill sets on a d=256 model. The studies
// themselves run through the registry (`go run ./cmd/nora list`), and the
// golden test in cmd/nora pins every study's quick output.
package nora

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"nora/internal/analog"
	"nora/internal/core"
	"nora/internal/engine"
	"nora/internal/harness"
	"nora/internal/model"
	"nora/internal/nn"
	"nora/internal/rng"
	"nora/internal/stats"
	"nora/internal/tensor"
	"nora/internal/textgen"
)

// ---- shared fixtures ---------------------------------------------------

var (
	benchOnce sync.Once
	benchOPT  *harness.Workload
	benchLLs  []*harness.Workload // tiny llama + mistral
)

func benchWorkloads(b *testing.B) (*harness.Workload, []*harness.Workload) {
	b.Helper()
	benchOnce.Do(func() {
		mk := func(spec model.Spec) *harness.Workload {
			m, res, err := model.Train(spec)
			if err != nil {
				panic(err)
			}
			if res.EvalAcc < 0.8 {
				panic(fmt.Sprintf("%s undertrained: %.3f", spec.Key, res.EvalAcc))
			}
			corpus, err := spec.Corpus()
			if err != nil {
				panic(err)
			}
			return &harness.Workload{
				Spec:  spec,
				Model: m,
				Eval:  corpus.Split("eval", 40),
				Calib: corpus.Split("calibration", 12),
			}
		}
		benchOPT = mk(model.TinySpec())
		benchLLs = []*harness.Workload{mk(model.TinyLlamaSpec()), mk(model.TinyMistralSpec())}
	})
	return benchOPT, benchLLs
}

func logTable(b *testing.B, tbl *harness.Table) {
	b.Helper()
	var sb strings.Builder
	if err := tbl.WriteText(&sb); err != nil {
		b.Fatal(err)
	}
	b.Log("\n" + sb.String())
}

// ---- Table I: the modeled non-idealities --------------------------------

// BenchmarkTable1NoiseInventory exercises every modeled non-ideality once
// on the reference feature map, regenerating Table I's inventory together
// with the reference MSE each knob causes at its paper-preset value.
func BenchmarkTable1NoiseInventory(b *testing.B) {
	presets := map[harness.NoiseKind]float64{
		harness.KindADCQuant:  64,     // 7-bit ADC
		harness.KindDACQuant:  64,     // 7-bit DAC
		harness.KindOutNoise:  0.04,   // Table II out_noise
		harness.KindInNoise:   0.02,   // representative input noise
		harness.KindIRDrop:    1.0,    // Table II ir_drop
		harness.KindReadNoise: 0.0175, // Table II w_noise
		harness.KindSShape:    1.0,    // representative nonlinearity
		harness.KindProgNoise: 1.0,    // PCM-like programming noise
	}
	var rows *harness.Table
	for i := 0; i < b.N; i++ {
		rows = harness.NewTable("Table I — modeled non-idealities", "noise", "category", "preset", "ref-mse")
		for _, kind := range harness.AllNoiseKinds() {
			cat := "tile"
			if kind.IsIO() {
				cat = "IO"
			}
			mse := harness.MeasureMSE(harness.ConfigFor(kind, presets[kind]), 7)
			rows.Add(kind.String(), cat, presets[kind], mse)
		}
	}
	logTable(b, rows)
}

// ---- Table II: the aihwkit preset ---------------------------------------

// BenchmarkTable2PaperPresetMVM measures the full Table II noise stack on
// one analog MVM — the micro-operation every experiment is built from —
// and reports its reference-map MSE.
func BenchmarkTable2PaperPresetMVM(b *testing.B) {
	cfg := analog.PaperPreset()
	r := rng.New(3)
	w := tensor.New(256, 256)
	r.FillNormal(w.Data, 0, 1.0/16)
	lin := analog.NewAnalogLinear("bench", w, nil, nil, cfg, rng.New(4))
	x := tensor.New(4, 256)
	r.FillNormal(x.Data, 0, 1)
	out := tensor.New(4, 256)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lin.ForwardInto(out, x)
	}
	b.StopTimer()
	b.ReportMetric(harness.MeasureMSE(cfg, 9), "ref-mse")
}

// BenchmarkMVMRowAllocs is a hard regression gate on the zero-allocation
// read path: it fails outright if the steady-state analog MVM allocates.
// The small tolerance absorbs rare sync.Pool refills after a GC.
func BenchmarkMVMRowAllocs(b *testing.B) {
	cfg := analog.PaperPreset()
	r := rng.New(3)
	w := tensor.New(256, 256)
	r.FillNormal(w.Data, 0, 1.0/16)
	lin := analog.NewAnalogLinear("bench", w, nil, nil, cfg, rng.New(4))
	x := tensor.New(4, 256)
	r.FillNormal(x.Data, 0, 1)
	out := tensor.New(4, 256)
	lin.ForwardInto(out, x) // prime the scratch pool
	avg := testing.AllocsPerRun(20, func() {
		lin.ForwardInto(out, x)
	})
	b.ReportMetric(avg, "allocs/op")
	if avg > 0.5 {
		b.Fatalf("analog read path allocates %.2f/op, want 0", avg)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lin.ForwardInto(out, x)
	}
}

// ---- Fig. 4: activation vs weight distributions ---------------------------

// BenchmarkFig4DistributionKDE regenerates the Fig. 4 analysis: kernel
// density estimates and kurtosis of a layer's input activations vs its
// query weights, showing the long-tail activation distribution.
func BenchmarkFig4DistributionKDE(b *testing.B) {
	w, _ := benchWorkloads(b)
	var tbl *harness.Table
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var acts []float32
		runner := nn.NewRunner(w.Model)
		runner.PreLinear = func(name string, x *tensor.Matrix) {
			if name == "layer1.attn.q" {
				acts = append(acts, x.Data...)
			}
		}
		for _, seq := range w.Eval[:8] {
			runner.Logits(seq[:len(seq)-1])
		}
		var wdata []float32
		for _, spec := range w.Model.Linears() {
			if spec.Name == "layer1.attn.q" {
				wdata = spec.W.Data
			}
		}
		kAct, kW := stats.Kurtosis(acts), stats.Kurtosis(wdata)
		kdeAct := stats.NewKDE(acts, 0)
		kdeW := stats.NewKDE(wdata, 0)
		tbl = harness.NewTable("Fig. 4 — layer1.attn.q distribution shape",
			"series", "kurtosis", "kde(0)", "kde(3σ-act)")
		sAct := stats.Summarize(acts)
		tbl.Add("activations", kAct, kdeAct.At(0), kdeAct.At(3*sAct.Std))
		tbl.Add("query weights", kW, kdeW.At(0), kdeW.At(3*sAct.Std))
	}
	b.StopTimer()
	logTable(b, tbl)
}

// ---- engine: deployment cache and parallel eval ----------------------------

// BenchmarkEngineDeployCacheMiss measures a cold deployment build through
// the engine (every iteration uses a distinct salt, so nothing is reused).
func BenchmarkEngineDeployCacheMiss(b *testing.B) {
	w, _ := benchWorkloads(b)
	eng := engine.New(engine.Config{})
	cfg := analog.PaperPreset()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.Deploy(w.Request(core.DeployAnalogNaive, cfg, core.Options{}, fmt.Sprintf("miss%d", i)))
	}
	b.StopTimer()
	if s := eng.Stats(); s.DeployBuilds != int64(b.N) {
		b.Fatalf("expected %d builds, got %+v", b.N, s)
	}
}

// BenchmarkEngineDeployCacheHit measures the cached path: the same request
// served repeatedly from the LRU.
func BenchmarkEngineDeployCacheHit(b *testing.B) {
	w, _ := benchWorkloads(b)
	eng := engine.New(engine.Config{})
	cfg := analog.PaperPreset()
	req := w.Request(core.DeployAnalogNaive, cfg, core.Options{}, "")
	eng.Deploy(req) // warm
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.Deploy(req)
	}
	b.StopTimer()
	if s := eng.Stats(); s.DeployHits != int64(b.N) {
		b.Fatalf("expected %d hits, got %+v", b.N, s)
	}
}

// BenchmarkEvalSerial measures the analog evaluation pass on one worker.
func BenchmarkEvalSerial(b *testing.B) {
	benchmarkEval(b, 1)
}

// BenchmarkEvalParallel measures the same pass on GOMAXPROCS workers; the
// result is bit-identical to the serial pass by the noise-scoping design.
func BenchmarkEvalParallel(b *testing.B) {
	benchmarkEval(b, 0)
}

func benchmarkEval(b *testing.B, workers int) {
	w, _ := benchWorkloads(b)
	runner := core.Deploy(w.Model, core.DeployAnalogNaive, nil, analog.PaperPreset(), 1, core.Options{})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runner.Eval(w.Eval, workers)
	}
}

// ---- substrate micro-benchmarks -------------------------------------------

// BenchmarkDigitalForward measures the digital inference forward pass.
func BenchmarkDigitalForward(b *testing.B) {
	w, _ := benchWorkloads(b)
	runner := nn.NewRunner(w.Model)
	seq := w.Eval[0][:len(w.Eval[0])-1]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runner.Logits(seq)
	}
}

// BenchmarkAnalogForward measures the analog inference forward pass under
// the full Table II noise stack.
func BenchmarkAnalogForward(b *testing.B) {
	w, _ := benchWorkloads(b)
	runner := core.Deploy(w.Model, core.DeployAnalogNaive, nil, analog.PaperPreset(), 1, core.Options{})
	seq := w.Eval[0][:len(w.Eval[0])-1]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runner.Logits(seq)
	}
}

// BenchmarkAnalogForwardStreamV2 runs the analog forward under the opt-in
// StreamV2 ziggurat noise stream — statistically equivalent Gaussians, a
// different (cheaper) draw sequence, separately fingerprinted.
func BenchmarkAnalogForwardStreamV2(b *testing.B) {
	w, _ := benchWorkloads(b)
	cfg := analog.PaperPreset()
	cfg.NoiseStream = rng.StreamV2
	runner := core.Deploy(w.Model, core.DeployAnalogNaive, nil, cfg, 1, core.Options{})
	seq := w.Eval[0][:len(w.Eval[0])-1]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runner.Logits(seq)
	}
}

// BenchmarkTrainingStep measures one training step (batch 4) of the tiny
// OPT-class model — the cost hardware-aware training would pay per step,
// which NORA avoids.
func BenchmarkTrainingStep(b *testing.B) {
	spec := model.TinySpec()
	corpus, err := textgen.New(textgen.DefaultConfig(1))
	if err != nil {
		b.Fatal(err)
	}
	m, err := nn.NewModel(spec.Cfg, rng.New(1))
	if err != nil {
		b.Fatal(err)
	}
	r := rng.New(2)
	batch := corpus.Batch(r, 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.LossOnBatch(batch)
		for _, p := range m.Params() {
			p.ZeroGrad()
		}
	}
}

// BenchmarkCalibration measures NORA's one-off calibration pass.
func BenchmarkCalibration(b *testing.B) {
	w, _ := benchWorkloads(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.Calibrate(w.Model, w.Calib)
	}
}

// ---- E22: continuous-batching decode throughput -------------------------

// admitPrompt claims a slot reserving pages for budget tokens (≤ 0: the
// full window) and prefills the whole prompt in one pass, returning the
// logits after its last token.
func admitPrompt(bg *nn.BatchGenerator, prompt []int, scope string, budget int) (int, []float32, error) {
	slot, err := bg.Begin(scope, budget)
	if err != nil {
		return -1, nil, err
	}
	logits, err := bg.StepSegs([]nn.StepSeg{{Slot: slot, Tokens: prompt}})
	if err != nil {
		bg.Release(slot)
		return -1, nil, err
	}
	return slot, logits.Row(0), nil
}

func bestToken(logits []float32) int {
	best := 0
	for i, v := range logits {
		if v > logits[best] {
			best = i
		}
	}
	return best
}

// decodeRunner deploys a mid-size untrained OPT-class model (d=256,
// 256×256 tiles — big enough that weight streaming, the cost batching
// amortizes, is visible next to the per-row digitize) under the naive
// analog stack with the v2 noise stream, once for all decode benchmarks.
// Weight quality is irrelevant to throughput, so training is skipped.
var (
	decodeOnce sync.Once
	decodeRun  *nn.Runner
)

func decodeBenchRunner(b *testing.B) *nn.Runner {
	b.Helper()
	decodeOnce.Do(func() {
		mcfg := nn.Config{Arch: nn.ArchOPT, Vocab: 256, DModel: 256, NHeads: 4, NLayers: 2, DFF: 1024, MaxSeq: 32}
		m, err := nn.NewModel(mcfg, rng.New(1))
		if err != nil {
			panic(err)
		}
		cfg := analog.PaperPreset()
		cfg.TileRows, cfg.TileCols = 256, 256
		cfg.NoiseStream = rng.StreamV2
		decodeRun = core.Deploy(m, core.DeployAnalogNaive, nil, cfg, 42, core.Options{})
	})
	return decodeRun
}

// benchmarkDecode measures aggregate greedy-decode throughput with `width`
// sequences kept in flight over one continuous-batching generator. Each
// iteration admits `width` short prompts and decodes 8 tokens per
// sequence; the reported tok/s metric is the acceptance number for the
// batched-vs-sequential decode comparison (DecodeBatch8/16 vs DecodeT1).
func benchmarkDecode(b *testing.B, width int) {
	bg := nn.NewBatchGenerator(decodeBenchRunner(b), width)
	const newTokens = 8
	prompt := []int{1, 2}
	ids := make([]int, width)
	toks := make([]int, width)
	segs := make([]nn.StepSeg, width)
	var tokens int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for s := 0; s < width; s++ {
			slot, logits, err := admitPrompt(bg, prompt, fmt.Sprintf("bench/gen/%d", s), 0)
			if err != nil {
				b.Fatal(err)
			}
			ids[s] = slot
			toks[s] = bestToken(logits) // row view dies at the next bg call
			tokens++
		}
		for t := 1; t < newTokens; t++ {
			for s := 0; s < width; s++ {
				segs[s] = nn.StepSeg{Slot: ids[s], Tokens: toks[s : s+1]}
			}
			logits, err := bg.StepSegs(segs)
			if err != nil {
				b.Fatal(err)
			}
			for s := 0; s < width; s++ {
				toks[s] = bestToken(logits.Row(s))
				tokens++
			}
		}
		for s := 0; s < width; s++ {
			bg.Release(ids[s])
		}
	}
	b.StopTimer()
	if secs := b.Elapsed().Seconds(); secs > 0 {
		b.ReportMetric(float64(tokens)/secs, "tok/s")
	}
}

// BenchmarkDecodeT1 is the sequential baseline: one sequence per step.
func BenchmarkDecodeT1(b *testing.B) { benchmarkDecode(b, 1) }

// BenchmarkDecodeBatch8 decodes eight sequences per batched step; its
// tok/s must be ≥1.5× BenchmarkDecodeT1's.
func BenchmarkDecodeBatch8(b *testing.B) { benchmarkDecode(b, 8) }

// BenchmarkDecodeBatch16 decodes sixteen sequences per batched step — the
// occupancy a loaded server converges to with the default decode batch.
func BenchmarkDecodeBatch16(b *testing.B) { benchmarkDecode(b, 16) }

// ---- E23: chunked prefill under mixed prompt lengths ---------------------

// mixedRunner deploys the long-context variant of the decode bench model
// (same d=256 geometry, MaxSeq=520 so a 512-token prompt plus a short
// decode fits) for the prefill and mixed-workload benchmarks.
var (
	mixedOnce sync.Once
	mixedRun  *nn.Runner
)

func mixedBenchRunner(b *testing.B) *nn.Runner {
	b.Helper()
	mixedOnce.Do(func() {
		mcfg := nn.Config{Arch: nn.ArchOPT, Vocab: 256, DModel: 256, NHeads: 4, NLayers: 2, DFF: 1024, MaxSeq: 520}
		m, err := nn.NewModel(mcfg, rng.New(1))
		if err != nil {
			panic(err)
		}
		cfg := analog.PaperPreset()
		cfg.TileRows, cfg.TileCols = 256, 256
		cfg.NoiseStream = rng.StreamV2
		mixedRun = core.Deploy(m, core.DeployAnalogNaive, nil, cfg, 42, core.Options{})
	})
	return mixedRun
}

// benchmarkPrefill feeds a 512-token prompt through Begin+StepSegs in
// `chunk`-token pieces (chunk=512 is the monolithic single pass) and
// reports prompt tok/s — the per-token cost of chunking a prefill, i.e.
// the throughput side of the chunk-size tradeoff.
func benchmarkPrefill(b *testing.B, chunk int) {
	bg := nn.NewBatchGeneratorPaged(mixedBenchRunner(b), 1, 0, 0)
	const promptLen = 512
	prompt := make([]int, promptLen)
	for i := range prompt {
		prompt[i] = (i*7 + 3) % 256
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		slot, err := bg.Begin("bench/prefill", promptLen)
		if err != nil {
			b.Fatal(err)
		}
		for off := 0; off < promptLen; off += chunk {
			end := off + chunk
			if end > promptLen {
				end = promptLen
			}
			if _, err := bg.StepSegs([]nn.StepSeg{{Slot: slot, Tokens: prompt[off:end]}}); err != nil {
				b.Fatal(err)
			}
		}
		bg.Release(slot)
	}
	b.StopTimer()
	if secs := b.Elapsed().Seconds(); secs > 0 {
		b.ReportMetric(float64(promptLen)*float64(b.N)/secs, "tok/s")
	}
}

// BenchmarkPrefillMonolithic512 prefills 512 tokens in one batched pass.
func BenchmarkPrefillMonolithic512(b *testing.B) { benchmarkPrefill(b, 512) }

// BenchmarkPrefillChunked64 prefills the same 512 tokens in eight 64-token
// chunks — the serving default. Its tok/s must stay within a few percent
// of the monolithic pass (weight streaming is already amortized at 64
// rows), which is what makes chunked admission nearly free.
func BenchmarkPrefillChunked64(b *testing.B) { benchmarkPrefill(b, 64) }

// mixSeq is one request of the simulated mixed-length serving workload.
type mixSeq struct {
	slot    int
	pending []int // unfed prompt suffix (chunked scheduler only)
	next    int
	emitted int
	short   bool
	born    time.Time
}

// benchmarkDecodeMixed replays the checked-in mixed-length workload —
// prompt lengths 512/16/16/128/16/16 arriving together, 8 new tokens each
// — through a scheduler shaped like internal/serve's. chunk <= 0 selects
// monolithic admission (PR7 behavior: each prompt prefills in one
// uninterrupted pass at admission, decode steps in between); chunk > 0
// selects chunked prefill with a shortest-remaining-first per-step token
// budget. Reported metrics are the acceptance numbers: aggregate tok/s
// (prompt + generated tokens) and the p95 TTFT of the short (16-token)
// prompts. Chunked must hold short-prompt p95 TTFT ≥2× below monolithic at
// aggregate tok/s within 5%.
func benchmarkDecodeMixed(b *testing.B, chunk int) {
	bg := nn.NewBatchGeneratorPaged(mixedBenchRunner(b), 8, 0, 0)
	const newTokens = 8
	lengths := []int{512, 16, 16, 128, 16, 16}
	prompts := make([][]int, len(lengths))
	var workTokens int64 // prompt + generated tokens per iteration
	for i, n := range lengths {
		p := make([]int, n)
		for j := range p {
			p[j] = (j*11 + i*17 + 5) % 256
		}
		prompts[i] = p
		workTokens += int64(n + newTokens)
	}
	var shortTTFT []time.Duration
	var tokens int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		born := time.Now() // all requests arrive together, FIFO: long first
		queue := prompts
		var live []*mixSeq
		for len(queue) > 0 || len(live) > 0 {
			// Admit at the step boundary while slots last (FIFO).
			for len(queue) > 0 && bg.Free() > 0 {
				p := queue[0]
				queue = queue[1:]
				seq := &mixSeq{short: len(p) == 16, born: born}
				if chunk <= 0 {
					// Monolithic: the whole prompt in one blocking pass.
					slot, logits, err := admitPrompt(bg, p, "bench/mix", len(p)+newTokens-1)
					if err != nil {
						b.Fatal(err)
					}
					seq.slot, seq.next, seq.emitted = slot, bestToken(logits), 1
					if seq.short {
						shortTTFT = append(shortTTFT, time.Since(seq.born))
					}
					tokens++
				} else {
					slot, err := bg.Begin("bench/mix", len(p)+newTokens-1)
					if err != nil {
						b.Fatal(err)
					}
					seq.slot, seq.pending = slot, p
				}
				live = append(live, seq)
			}
			// One mixed step: decode rows plus (chunked only) prefill chunks
			// under a shortest-remaining-first budget.
			alloc := make([]int, len(live))
			budget := chunk
			order := make([]int, 0, len(live))
			for idx, seq := range live {
				if len(seq.pending) > 0 {
					order = append(order, idx)
				}
			}
			sort.SliceStable(order, func(a, c int) bool {
				return len(live[order[a]].pending) < len(live[order[c]].pending)
			})
			for _, idx := range order {
				if budget <= 0 {
					break
				}
				n := len(live[idx].pending)
				if n > budget {
					n = budget
				}
				alloc[idx] = n
				budget -= n
			}
			var segs []nn.StepSeg
			var rows []*mixSeq
			for idx, seq := range live {
				if len(seq.pending) == 0 {
					segs = append(segs, nn.StepSeg{Slot: seq.slot, Tokens: []int{seq.next}})
					rows = append(rows, seq)
				} else if alloc[idx] > 0 {
					segs = append(segs, nn.StepSeg{Slot: seq.slot, Tokens: seq.pending[:alloc[idx]]})
					rows = append(rows, seq)
				}
			}
			if len(segs) == 0 {
				break // unreachable: live is empty or a seg was built
			}
			logits, err := bg.StepSegs(segs)
			if err != nil {
				b.Fatal(err)
			}
			out := live[:0]
			row := 0
			for _, seq := range live {
				if row < len(rows) && rows[row] == seq {
					lr := logits.Row(row)
					if len(seq.pending) > 0 {
						seq.pending = seq.pending[len(segs[row].Tokens):]
						row++
						if len(seq.pending) > 0 {
							out = append(out, seq)
							continue
						}
						if seq.short {
							shortTTFT = append(shortTTFT, time.Since(seq.born))
						}
					} else {
						row++
					}
					seq.next = bestToken(lr)
					seq.emitted++
					tokens++
					if seq.emitted >= newTokens {
						bg.Release(seq.slot)
						continue
					}
				}
				out = append(out, seq)
			}
			live = out
		}
	}
	b.StopTimer()
	if secs := b.Elapsed().Seconds(); secs > 0 {
		b.ReportMetric(float64(workTokens)*float64(b.N)/secs, "tok/s")
	}
	if len(shortTTFT) > 0 {
		sort.Slice(shortTTFT, func(i, j int) bool { return shortTTFT[i] < shortTTFT[j] })
		p95 := shortTTFT[int(0.95*float64(len(shortTTFT)-1))]
		b.ReportMetric(float64(p95)/1e6, "ttft-p95-ms")
	}
}

// BenchmarkDecodeMixedMonolithic is the PR7 baseline: prompts prefill in
// one uninterrupted pass each, so every short prompt behind the 512-token
// one waits out its entire prefill.
func BenchmarkDecodeMixedMonolithic(b *testing.B) { benchmarkDecodeMixed(b, 0) }

// BenchmarkDecodeMixedChunked64 runs the same workload with 64-token
// chunked prefill: short prompts overtake the long prefill within one
// budget round and stream their first token ~an order of magnitude sooner.
func BenchmarkDecodeMixedChunked64(b *testing.B) { benchmarkDecodeMixed(b, 64) }
