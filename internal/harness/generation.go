package harness

import (
	"fmt"
	"time"

	"nora/internal/analog"
	"nora/internal/core"
	"nora/internal/engine"
	"nora/internal/nn"
)

// GenRow is one (workload, mode, concurrency) cell of the E22
// continuous-batching generation throughput study.
type GenRow struct {
	Model        string
	Mode         string
	Concurrency  int     // in-flight sequence target (BatchGenerator slots)
	Sequences    int     // sequences completed
	Tokens       int64   // tokens emitted (prefill logits count as the first)
	Steps        int64   // batched decode steps issued
	MeanBatch    float64 // Tokens emitted per decode step (occupancy)
	TokensPerSec float64 // aggregate wall-clock token throughput
	ReadsPerTok  float64 // analog tile reads (MVMs) per emitted token
	Speedup      float64 // TokensPerSec over the same row at concurrency 1
}

// GenSpec parameterizes the generation throughput study.
type GenSpec struct {
	Mode          core.DeployMode
	Config        analog.Config
	Concurrencies []int // batch widths to sweep; 1 is the speedup baseline
	Sequences     int   // sequences per cell (0 → 4 × max concurrency)
	TokensPerSeq  int   // greedy tokens per sequence (0 → 8)
}

// GenerationThroughput measures aggregate decode throughput of the
// continuous-batching generator at each concurrency level: per cell it
// keeps up to c sequences in flight over one nn.BatchGenerator, admitting
// a replacement prompt the moment a sequence retires, and decodes a fixed
// number of greedy tokens per sequence. It is wall-clock-shaped rather
// than accuracy-shaped, so it does not ride the Sweep framework — but it
// reuses the same engine deployments, so the operators under test are
// exactly the ones the accuracy experiments score.
func GenerationThroughput(eng *engine.Engine, ws []*Workload, spec GenSpec) ([]GenRow, error) {
	if len(spec.Concurrencies) == 0 {
		spec.Concurrencies = []int{1, 2, 4, 8}
	}
	maxC := 0
	for _, c := range spec.Concurrencies {
		if c > maxC {
			maxC = c
		}
	}
	if spec.Sequences <= 0 {
		spec.Sequences = 4 * maxC
	}
	if spec.TokensPerSeq <= 0 {
		spec.TokensPerSeq = 8
	}

	var rows []GenRow
	for _, w := range ws {
		dep := eng.Deploy(w.Request(spec.Mode, spec.Config, core.Options{}, ""))
		prompts := genPrompts(w, spec.Sequences, spec.TokensPerSeq)
		baseline := 0.0
		for _, c := range spec.Concurrencies {
			row, err := runGenCell(dep, w, c, prompts, spec.TokensPerSeq)
			if err != nil {
				return nil, fmt.Errorf("harness: generation %s c=%d: %w", w.Spec.Key, c, err)
			}
			if c == 1 || baseline == 0 {
				baseline = row.TokensPerSec
			}
			if baseline > 0 {
				row.Speedup = row.TokensPerSec / baseline
			}
			row.Mode = spec.Mode.String()
			rows = append(rows, row)
		}
	}
	return rows, nil
}

// genPrompts trims eval sequences so every prompt leaves room in the KV
// cache for the full decode budget (emitting n tokens appends n-1).
func genPrompts(w *Workload, n, tokensPerSeq int) [][]int {
	maxPrompt := w.Model.Cfg.MaxSeq - tokensPerSeq + 1
	if maxPrompt < 1 {
		maxPrompt = 1
	}
	prompts := make([][]int, n)
	for i := range prompts {
		src := w.Eval[i%len(w.Eval)]
		pl := len(src)
		if pl > maxPrompt {
			pl = maxPrompt
		}
		if pl > 8 {
			pl = 8 // prefill length is not the subject of the study
		}
		prompts[i] = src[:pl]
	}
	return prompts
}

// runGenCell drives one continuous-batching cell: up to c sequences in
// flight, each decoding tokensPerSeq greedy tokens, with retired slots
// refilled at step boundaries until all prompts are consumed.
func runGenCell(dep *engine.Deployment, w *Workload, c int, prompts [][]int, tokensPerSeq int) (GenRow, error) {
	type flight struct {
		slot int
		next [1]int // sampled token awaiting the next step
		got  int    // tokens emitted so far
	}
	bg := nn.NewBatchGenerator(dep.Runner(), c)
	var (
		active   []flight
		admitted int
		done     int
		tokens   int64
		steps    int64
	)
	segs := make([]nn.StepSeg, 0, c)
	reads0 := dep.OpCounters().MVMs
	start := time.Now()
	for admitted < len(prompts) || len(active) > 0 {
		// Fill free slots before stepping, like the serving scheduler. Each
		// prompt prefills in a pass of its own, which is not a decode step.
		for bg.Free() > 0 && admitted < len(prompts) {
			scope := fmt.Sprintf("harness/gen/%s/%d", w.Spec.Key, admitted)
			slot, err := bg.Begin(scope, 0)
			if err != nil {
				return GenRow{}, err
			}
			logits, err := bg.StepSegs([]nn.StepSeg{{Slot: slot, Tokens: prompts[admitted]}})
			if err != nil {
				return GenRow{}, err
			}
			tok := argmaxRow(logits.Row(0)) // consume before the next bg call
			admitted++
			tokens++
			if tokensPerSeq <= 1 {
				bg.Release(slot)
				done++
				continue
			}
			active = append(active, flight{slot: slot, next: [1]int{tok}, got: 1})
		}
		if len(active) == 0 {
			continue
		}
		segs = segs[:0]
		for i := range active {
			segs = append(segs, nn.StepSeg{Slot: active[i].slot, Tokens: active[i].next[:]})
		}
		logits, err := bg.StepSegs(segs)
		if err != nil {
			return GenRow{}, err
		}
		steps++
		live := active[:0]
		for i := range active {
			f := active[i]
			f.next[0] = argmaxRow(logits.Row(i))
			f.got++
			tokens++
			if f.got >= tokensPerSeq {
				bg.Release(f.slot)
				done++
				continue
			}
			live = append(live, f)
		}
		active = live
	}
	elapsed := time.Since(start)
	reads := dep.OpCounters().MVMs - reads0
	row := GenRow{
		Model:       w.Spec.Key,
		Concurrency: c,
		Sequences:   done,
		Tokens:      tokens,
		Steps:       steps,
	}
	if steps > 0 {
		// Prefill logits are counted as emitted tokens but not as decode
		// steps, so occupancy reflects the decode batch alone.
		row.MeanBatch = float64(tokens-int64(done)) / float64(steps)
	}
	if elapsed > 0 {
		row.TokensPerSec = float64(tokens) / elapsed.Seconds()
	}
	if tokens > 0 {
		row.ReadsPerTok = float64(reads) / float64(tokens)
	}
	return row, nil
}

func argmaxRow(logits []float32) int {
	best := 0
	for i, v := range logits {
		if v > logits[best] {
			best = i
		}
	}
	return best
}

// GenerationTable renders E22 rows.
func GenerationTable(rows []GenRow) *Table {
	return TableOf("E22 — continuous-batching generation throughput",
		rows, []Col[GenRow]{
			{"model", func(r GenRow) any { return r.Model }},
			{"mode", func(r GenRow) any { return r.Mode }},
			{"concurrency", func(r GenRow) any { return r.Concurrency }},
			{"seqs", func(r GenRow) any { return r.Sequences }},
			{"tokens", func(r GenRow) any { return r.Tokens }},
			{"steps", func(r GenRow) any { return r.Steps }},
			{"mean-batch", func(r GenRow) any { return r.MeanBatch }},
			{"tok/s", func(r GenRow) any { return r.TokensPerSec }},
			{"reads/tok", func(r GenRow) any { return r.ReadsPerTok }},
			{"speedup", func(r GenRow) any { return r.Speedup }},
		})
}
