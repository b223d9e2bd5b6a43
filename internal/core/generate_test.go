package core

import (
	"fmt"
	"runtime"
	"testing"

	"nora/internal/analog"
	"nora/internal/nn"
	"nora/internal/rng"
	"nora/internal/tensor"
)

// greedyRef decodes the reference continuation for one request with the
// sequential Generator over a scoped runner view — the path every request
// would take if it were served alone, one token per analog read.
func greedyRef(r *nn.Runner, scope string, prompt []int, n int) ([][]float32, []int) {
	g := nn.NewGenerator(r.WithNoiseScope(scope))
	logits, err := g.PrefillChecked(prompt)
	if err != nil {
		panic(err)
	}
	rows := [][]float32{append([]float32(nil), logits...)}
	var toks []int
	for i := 0; i < n; i++ {
		next := argmaxF(logits)
		toks = append(toks, next)
		if g.Pos() >= r.Model().Cfg.MaxSeq {
			break
		}
		logits, err = g.AppendChecked(next)
		if err != nil {
			panic(err)
		}
		rows = append(rows, append([]float32(nil), logits...))
	}
	return rows, toks
}

// admitPrompt claims a full-window slot under scope and prefills the whole
// prompt in one pass, returning the logits after its last token.
func admitPrompt(bg *nn.BatchGenerator, prompt []int, scope string) (int, []float32, error) {
	slot, err := bg.Begin(scope, 0)
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

// stepTokens appends toks[i] to the sequence in slot ids[i] in one batched
// decode step; row i of the result belongs to ids[i].
func stepTokens(bg *nn.BatchGenerator, ids, toks []int) (*tensor.Matrix, error) {
	segs := make([]nn.StepSeg, len(ids))
	for i, id := range ids {
		segs[i] = nn.StepSeg{Slot: id, Tokens: toks[i : i+1]}
	}
	return bg.StepSegs(segs)
}

func argmaxF(xs []float32) int {
	best, bi := float32(-1e38), 0
	for i, v := range xs {
		if v > best {
			best, bi = v, i
		}
	}
	return bi
}

// The tentpole guarantee, end to end on analog deployments: continuous-
// batched decode (BatchGenerator: staggered admission, mixed batches, early
// retirement) must reproduce every request's logits BIT-IDENTICALLY to
// decoding that request alone with the sequential Generator under the same
// noise scope — for both naive and NORA analog modes under the paper's full
// noise stack.
func TestBatchedGenerationBitIdenticalToSequentialAnalog(t *testing.T) {
	m, eval, calib := trained(t)
	cal := Calibrate(m, calib)
	cfg := analog.PaperPreset()
	cfg.TileRows, cfg.TileCols = 64, 64 // multi-tile grids even on the tiny model

	for _, tc := range []struct {
		name string
		mode DeployMode
		cal  *Calibration
	}{
		{"naive", DeployAnalogNaive, nil},
		{"nora", DeployAnalogNORA, cal},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := Deploy(m, tc.mode, tc.cal, cfg, 42, Options{})
			prompts := [][]int{
				eval[0][:6],
				eval[1][:3],
				eval[2][:8],
				eval[3][:2],
			}
			const steps = 6
			scope := func(i int) string { return fmt.Sprintf("gen/req%d", i) }
			want := make([][][]float32, len(prompts))
			for i, p := range prompts {
				want[i], _ = greedyRef(r, scope(i), p, steps)
			}

			bg := nn.NewBatchGenerator(r, 3)
			slot := make(map[int]int)
			next := make(map[int]int)
			emit := make(map[int]int)
			check := func(seq int, row []float32) {
				w := want[seq][emit[seq]]
				for j := range row {
					if row[j] != w[j] {
						t.Fatalf("seq %d logits row %d col %d: batched %v != sequential %v",
							seq, emit[seq], j, row[j], w[j])
					}
				}
				emit[seq]++
			}
			admit := func(seq int) {
				s, logits, err := admitPrompt(bg, prompts[seq], scope(seq))
				if err != nil {
					t.Fatalf("admit %d: %v", seq, err)
				}
				slot[seq] = s
				check(seq, logits)
				next[seq] = argmaxF(logits)
			}
			step := func(seqs ...int) {
				ids := make([]int, len(seqs))
				toks := make([]int, len(seqs))
				for i, q := range seqs {
					ids[i] = slot[q]
					toks[i] = next[q]
				}
				logits, err := stepTokens(bg, ids, toks)
				if err != nil {
					t.Fatalf("step %v: %v", seqs, err)
				}
				for i, q := range seqs {
					check(q, logits.Row(i))
					next[q] = argmaxF(logits.Row(i))
				}
			}

			// Staggered continuous-batching schedule: admissions and
			// retirements at step boundaries, row order varying per step.
			admit(0)
			step(0)
			admit(1)
			admit(2)
			step(2, 0, 1)
			step(1, 2, 0)
			bg.Release(slot[1])
			admit(3) // reuses seq 1's freed KV slot
			step(3, 0, 2)
			step(0, 3, 2)
			step(2, 0, 3)
		})
	}
}

// Chunked prefill on analog deployments: feeding a prompt through Begin +
// StepSegs in fixed-size chunks — each chunk batched with another
// sequence's live decode row — must reproduce the sequential Generator's
// logits bit-identically for every chunk size, in both naive and NORA
// modes. This is the noise-stream half of the chunked-prefill contract: a
// sequence's rows consume its scoped operator streams in prompt order no
// matter how the scheduler chunks or batches them, and the paged KV layout
// never enters the arithmetic.
func TestChunkedPrefillBitIdenticalAnalog(t *testing.T) {
	m, eval, calib := trained(t)
	cal := Calibrate(m, calib)
	cfg := analog.PaperPreset()
	cfg.TileRows, cfg.TileCols = 64, 64

	for _, tc := range []struct {
		name string
		mode DeployMode
		cal  *Calibration
	}{
		{"naive", DeployAnalogNaive, nil},
		{"nora", DeployAnalogNORA, cal},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := Deploy(m, tc.mode, tc.cal, cfg, 42, Options{})
			long := eval[2][:8]
			short := eval[3][:2]
			const steps = 3
			wantLong, _ := greedyRef(r, "gen/long", long, steps)
			wantShort, _ := greedyRef(r, "gen/short", short, len(long)+steps)

			for _, chunk := range []int{1, 4, len(long)} {
				bg := nn.NewBatchGeneratorPaged(r, 2, 4, 0)
				emitL, emitS := 0, 0
				check := func(want [][]float32, emit *int, row []float32) {
					w := want[*emit]
					for j := range row {
						if row[j] != w[j] {
							t.Fatalf("chunk=%d: row %d col %d: chunked %v != sequential %v",
								chunk, *emit, j, row[j], w[j])
						}
					}
					*emit++
				}
				slotS, logitsS, err := admitPrompt(bg, short, "gen/short")
				if err != nil {
					t.Fatal(err)
				}
				check(wantShort, &emitS, logitsS)
				nextS := argmaxF(logitsS)
				slotL, err := bg.Begin("gen/long", 0)
				if err != nil {
					t.Fatal(err)
				}
				var nextL int
				for off := 0; off < len(long); {
					n := chunk
					if off+n > len(long) {
						n = len(long) - off
					}
					logits, err := bg.StepSegs([]nn.StepSeg{
						{Slot: slotS, Tokens: []int{nextS}},
						{Slot: slotL, Tokens: long[off : off+n]},
					})
					if err != nil {
						t.Fatalf("chunk=%d off=%d: %v", chunk, off, err)
					}
					check(wantShort, &emitS, logits.Row(0))
					nextS = argmaxF(logits.Row(0))
					off += n
					if off == len(long) {
						check(wantLong, &emitL, logits.Row(1))
						nextL = argmaxF(logits.Row(1))
					}
				}
				for s := 0; s < steps-1; s++ {
					logits, err := stepTokens(bg, []int{slotL, slotS}, []int{nextL, nextS})
					if err != nil {
						t.Fatal(err)
					}
					check(wantLong, &emitL, logits.Row(0))
					check(wantShort, &emitS, logits.Row(1))
					nextL = argmaxF(logits.Row(0))
					nextS = argmaxF(logits.Row(1))
				}
				bg.Release(slotL)
				bg.Release(slotS)
			}
		})
	}
}

// Noise-scope independence at the serving boundary: a request's full
// continuation is identical whether it is decoded alone or admitted into a
// fully occupied batch — and identical across two separate BatchGenerators
// over the same deployment.
func TestGenerationScopeIndependentOfBatchComposition(t *testing.T) {
	m, eval, _ := trained(t)
	cfg := analog.PaperPreset()
	r := Deploy(m, DeployAnalogNaive, nil, cfg, 7, Options{})

	decode := func(bg *nn.BatchGenerator, prompt []int, scope string, others [][]int) []int {
		slot, logits, err := admitPrompt(bg, prompt, scope)
		if err != nil {
			t.Fatal(err)
		}
		next := argmaxF(logits) // consume before the next bg call invalidates the row
		otherSlots := make([]int, 0, len(others))
		otherNext := make([]int, 0, len(others))
		for i, p := range others {
			s, lg, err := admitPrompt(bg, p, fmt.Sprintf("other%d", i))
			if err != nil {
				t.Fatal(err)
			}
			otherSlots = append(otherSlots, s)
			otherNext = append(otherNext, argmaxF(lg))
		}
		var out []int
		for len(out) < 4 {
			out = append(out, next)
			ids := append([]int{slot}, otherSlots...)
			toks := append([]int{next}, otherNext...)
			res, err := stepTokens(bg, ids, toks)
			if err != nil {
				t.Fatal(err)
			}
			next = argmaxF(res.Row(0))
			for i := range otherSlots {
				otherNext[i] = argmaxF(res.Row(1 + i))
			}
		}
		for _, s := range otherSlots {
			bg.Release(s)
		}
		bg.Release(slot)
		return out
	}

	prompt := eval[5][:5]
	alone := decode(nn.NewBatchGenerator(r, 4), prompt, "req", nil)
	crowded := decode(nn.NewBatchGenerator(r, 4), prompt, "req", [][]int{
		eval[6][:7], eval[7][:2], eval[8][:4],
	})
	if fmt.Sprint(alone) != fmt.Sprint(crowded) {
		t.Fatalf("tokens depend on batch composition: alone %v vs crowded %v", alone, crowded)
	}
}

// A step split across workers changes no bit: random mixes of decode rows
// and prefill chunks of 1–17 tokens over several slots, in shuffled
// segment order, on digital, naive and NORA deployments, must give every
// sequence exactly the logits rows — and so the tokens — of decoding it
// alone with the sequential Generator under its scope. GOMAXPROCS is
// raised to at least 2 so the steps split on 1-CPU runners too.
func TestSplitStepMatchesAlone(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 2 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	}
	cfg := nn.Config{Name: "split", Arch: nn.ArchOPT, Vocab: 40, DModel: 32, NHeads: 4, NLayers: 2, DFF: 64, MaxSeq: 48}
	m, err := nn.NewModel(cfg, rng.New(23))
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(24)
	randTokens := func(n int) []int {
		toks := make([]int, n)
		for i := range toks {
			toks[i] = int(r.Uint64() % uint64(cfg.Vocab))
		}
		return toks
	}
	var calib [][]int
	for i := 0; i < 8; i++ {
		calib = append(calib, randTokens(16))
	}
	acfg := analog.PaperPreset()
	acfg.TileRows, acfg.TileCols = 16, 16 // multi-tile grids
	for _, tc := range []struct {
		name   string
		runner *nn.Runner
	}{
		{"digital", nn.NewRunner(m)},
		{"naive", Deploy(m, DeployAnalogNaive, nil, acfg, 42, Options{})},
		{"nora", Deploy(m, DeployAnalogNORA, Calibrate(m, calib), acfg, 42, Options{})},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const reqs, slots, decode = 10, 4, 5
			prompts := make([][]int, reqs)
			want := make([][][]float32, reqs)
			scope := func(i int) string { return fmt.Sprintf("split/req%d", i) }
			for i := range prompts {
				prompts[i] = randTokens(1 + int(r.Uint64()%30))
				want[i], _ = greedyRef(tc.runner, scope(i), prompts[i], decode)
			}
			type seq struct {
				req, slot, next, emit int
				pending               []int
			}
			bg := nn.NewBatchGeneratorPaged(tc.runner, slots, 4, 0)
			var live []*seq
			admitted := 0
			for admitted < reqs || len(live) > 0 {
				for admitted < reqs && bg.Free() > 0 {
					p := prompts[admitted]
					slot, err := bg.Begin(scope(admitted), len(p)+decode)
					if err != nil {
						t.Fatal(err)
					}
					live = append(live, &seq{req: admitted, slot: slot, pending: p})
					admitted++
				}
				for i := len(live) - 1; i > 0; i-- {
					j := int(r.Uint64() % uint64(i+1))
					live[i], live[j] = live[j], live[i]
				}
				var segs []nn.StepSeg
				var rows []*seq
				for i, q := range live {
					if i > 0 && r.Uint64()%5 == 0 {
						continue // sits this step out
					}
					toks := []int{q.next}
					if len(q.pending) > 0 {
						n := min(1+int(r.Uint64()%17), len(q.pending))
						toks, q.pending = q.pending[:n], q.pending[n:]
					}
					segs = append(segs, nn.StepSeg{Slot: q.slot, Tokens: toks})
					rows = append(rows, q)
				}
				logits, err := bg.StepSegs(segs)
				if err != nil {
					t.Fatal(err)
				}
				for i, q := range rows {
					if len(q.pending) > 0 {
						continue // mid-prompt: no observable row
					}
					row, w := logits.Row(i), want[q.req][q.emit]
					for j := range row {
						if row[j] != w[j] {
							t.Fatalf("req %d row %d col %d: split step %v != alone %v", q.req, q.emit, j, row[j], w[j])
						}
					}
					q.emit++
					q.next = argmaxF(row)
				}
				out := live[:0]
				for _, q := range live {
					if q.emit > decode {
						bg.Release(q.slot)
						continue
					}
					out = append(out, q)
				}
				live = out
			}
		})
	}

	// An unscoped sequence on an analog runner shares the runner's stream,
	// so its steps must not split: on two procs a step reads exactly what it
	// reads on one.
	t.Run("unscoped", func(t *testing.T) {
		step := func(procs int) []float32 {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			bg := nn.NewBatchGenerator(Deploy(m, DeployAnalogNaive, nil, acfg, 43, Options{}), 2)
			a, _ := bg.Begin("", 0)
			b, _ := bg.Begin("", 0)
			var out []float32
			for i := 0; i < 8; i += 2 {
				logits, err := bg.StepSegs([]nn.StepSeg{{Slot: a, Tokens: calib[0][i : i+2]}, {Slot: b, Tokens: calib[1][i : i+1]}})
				if err != nil {
					t.Fatal(err)
				}
				out = append(out, logits.Data...)
			}
			return out
		}
		one, two := step(1), step(2)
		for i := range one {
			if one[i] != two[i] {
				t.Fatalf("logit %d: %v on two procs, %v on one", i, two[i], one[i])
			}
		}
	})
}
