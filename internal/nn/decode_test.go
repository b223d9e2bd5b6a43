package nn

import (
	"errors"
	"runtime"
	"testing"

	"nora/internal/rng"
	"nora/internal/tensor"
)

// admitPrompt claims a slot reserving pages for budget tokens (≤ 0: the
// full window) and prefills the whole prompt in one pass, returning the
// logits after its last token. On error no slot stays claimed.
func admitPrompt(bg *BatchGenerator, prompt []int, scope string, budget int) (int, []float32, error) {
	slot, err := bg.Begin(scope, budget)
	if err != nil {
		return -1, nil, err
	}
	logits, err := bg.StepSegs([]StepSeg{{Slot: slot, Tokens: prompt}})
	if err != nil {
		bg.Release(slot)
		return -1, nil, err
	}
	return slot, logits.Row(0), nil
}

// stepTokens appends toks[i] to the sequence in slot ids[i] in one batched
// decode step; row i of the result belongs to ids[i].
func stepTokens(bg *BatchGenerator, ids, toks []int) (*tensor.Matrix, error) {
	segs := make([]StepSeg, len(ids))
	for i, id := range ids {
		segs[i] = StepSeg{Slot: id, Tokens: toks[i : i+1]}
	}
	return bg.StepSegs(segs)
}

// greedySequential decodes a reference continuation with the sequential
// Generator: prefill then greedy steps, collecting every logits row.
func greedySequential(r *Runner, prompt []int, n int) ([][]float32, []int) {
	g := NewGenerator(r)
	logits := g.Prefill(prompt)
	rows := [][]float32{append([]float32(nil), logits...)}
	var toks []int
	for i := 0; i < n; i++ {
		next := argmax(logits)
		toks = append(toks, next)
		if g.Pos() >= r.Model().Cfg.MaxSeq {
			break
		}
		logits = g.Append(next)
		rows = append(rows, append([]float32(nil), logits...))
	}
	return rows, toks
}

// The batched continuous decode must be bit-identical per sequence to the
// sequential Generator, across batch compositions and arrival orders:
// sequences are admitted staggered, stepped together, and retired at
// different times, and every logits row must equal the sequential run's
// row exactly (float bit equality, not tolerance).
func TestBatchGeneratorMatchesSequential(t *testing.T) {
	for _, cfg := range []Config{optConfig(), llamaConfig()} {
		cfg := cfg
		t.Run(cfg.Name, func(t *testing.T) {
			m, err := NewModel(cfg, rng.New(810))
			if err != nil {
				t.Fatal(err)
			}
			r := NewRunner(m)
			prompts := [][]int{
				{5, 1, 29, 8},
				{2, 2},
				{7, 0, 3, 3, 11, 24, 9},
				{30},
			}
			const steps = 6
			want := make([][][]float32, len(prompts))
			for i, p := range prompts {
				want[i], _ = greedySequential(r, p, steps)
			}

			bg := NewBatchGenerator(r, 3)
			// Staggered schedule: admit 0 and 1, step twice, retire 1 early,
			// admit 2, finish 0, admit 3 into 0's freed slot. next[i] is the
			// sequence's pending token, got[i] the logits rows seen so far.
			slot := make(map[int]int) // seq -> slot
			next := make(map[int]int) // seq -> pending token
			emit := make(map[int]int) // seq -> rows checked
			check := func(seq int, row []float32) {
				w := want[seq][emit[seq]]
				for j := range row {
					if row[j] != w[j] {
						t.Fatalf("seq %d row %d col %d: batched %v != sequential %v", seq, emit[seq], j, row[j], w[j])
					}
				}
				emit[seq]++
			}
			admit := func(seq int) {
				s, logits, err := admitPrompt(bg, prompts[seq], "", 0)
				if err != nil {
					t.Fatalf("admit seq %d: %v", seq, err)
				}
				slot[seq] = s
				check(seq, logits)
				next[seq] = argmax(logits)
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
					next[q] = argmax(logits.Row(i))
				}
			}

			admit(0)
			admit(1)
			step(0, 1)
			step(1, 0) // arrival order within the batch must not matter
			bg.Release(slot[1])
			admit(2)
			step(2, 0)
			step(0, 2)
			step(0, 2)
			step(0, 2)
			bg.Release(slot[0])
			admit(3)
			step(3, 2)
			if bg.Free() != 1 {
				t.Fatalf("free slots = %d, want 1", bg.Free())
			}
		})
	}
}

func TestBatchGeneratorErrors(t *testing.T) {
	cfg := optConfig()
	cfg.MaxSeq = 6
	m, _ := NewModel(cfg, rng.New(811))
	bg := NewBatchGenerator(NewRunner(m), 2)

	if _, _, err := admitPrompt(bg, nil, "", 0); !errors.Is(err, ErrEmptyPrompt) {
		t.Fatalf("empty prompt: %v", err)
	}
	if _, _, err := admitPrompt(bg, []int{1, 2, 3, 4, 5, 6, 7}, "", 0); !errors.Is(err, ErrCacheFull) {
		t.Fatalf("over-long prompt: %v", err)
	}
	var tre *TokenRangeError
	if _, _, err := admitPrompt(bg, []int{1, 999}, "", 0); !errors.As(err, &tre) {
		t.Fatalf("bad token: %v", err)
	}
	if bg.Free() != 2 {
		t.Fatalf("failed admits must not consume slots, free = %d", bg.Free())
	}

	s0, _, err := admitPrompt(bg, []int{1, 2}, "", 0)
	if err != nil {
		t.Fatal(err)
	}
	s1, _, err := admitPrompt(bg, []int{3}, "", 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := admitPrompt(bg, []int{4}, "", 0); !errors.Is(err, ErrNoFreeSlot) {
		t.Fatalf("full generator: %v", err)
	}
	if _, err := stepTokens(bg, []int{s0}, []int{999}); err == nil {
		t.Fatal("out-of-range step token must error")
	}
	if _, err := stepTokens(bg, []int{5}, []int{1}); err == nil {
		t.Fatal("inactive slot must error")
	}
	if _, err := stepTokens(bg, []int{s0, s0}, []int{1, 1}); err == nil || bg.Pos(s0) != 2 {
		t.Fatalf("a slot twice in one step must error before any position advances: %v, pos %d", err, bg.Pos(s0))
	}
	bg.Release(s1)
	if _, err := stepTokens(bg, []int{s1}, []int{1}); err == nil {
		t.Fatal("released slot must error")
	}
	// Fill slot 0's cache, then the step must report ErrCacheFull.
	for bg.Pos(s0) < cfg.MaxSeq {
		if _, err := stepTokens(bg, []int{s0}, []int{1}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := stepTokens(bg, []int{s0}, []int{1}); !errors.Is(err, ErrCacheFull) {
		t.Fatalf("full cache: %v", err)
	}
}

// Chunked prefill must be bit-identical to the sequential Generator for
// every chunk size and page size, even while the prefilling prompt's chunks
// share their steps with another sequence's live decode rows — the tentpole
// contract of the chunked-prefill scheduler. The long prompt is fed through
// Begin + StepSegs in fixed-size chunks riding along with a decoding short
// sequence, then both decode together; every observable logits row must
// equal the sequential run's row exactly (float bit equality).
func TestChunkedPrefillMatchesSequential(t *testing.T) {
	for _, cfg := range []Config{optConfig(), llamaConfig()} {
		cfg := cfg
		t.Run(cfg.Name, func(t *testing.T) {
			m, err := NewModel(cfg, rng.New(815))
			if err != nil {
				t.Fatal(err)
			}
			r := NewRunner(m)
			long := []int{7, 0, 3, 3, 11, 24, 9, 16, 2, 28, 5, 1}
			short := []int{5, 1, 29}
			const steps = 5
			wantLong, _ := greedySequential(r, long, steps)
			// The short sequence decodes one token per prefill chunk plus the
			// joint steps; size its reference for the smallest chunk size.
			wantShort, _ := greedySequential(r, short, len(long)+steps)

			for _, pageTokens := range []int{3, DefaultKVPageTokens, cfg.MaxSeq} {
				for _, chunk := range []int{1, 3, 5, len(long)} {
					bg := NewBatchGeneratorPaged(r, 2, pageTokens, 0)
					emitL, emitS := 0, 0
					check := func(want [][]float32, emit *int, row []float32) {
						w := want[*emit]
						for j := range row {
							if row[j] != w[j] {
								t.Fatalf("page=%d chunk=%d: row %d col %d: chunked %v != sequential %v",
									pageTokens, chunk, *emit, j, row[j], w[j])
							}
						}
						*emit++
					}
					slotS, logitsS, err := admitPrompt(bg, short, "", 0)
					if err != nil {
						t.Fatal(err)
					}
					check(wantShort, &emitS, logitsS)
					nextS := argmax(logitsS)
					slotL, err := bg.Begin("", 0)
					if err != nil {
						t.Fatal(err)
					}
					// Prefill the long prompt chunk by chunk, each chunk batched
					// with one of the short sequence's decode rows.
					var nextL int
					for off := 0; off < len(long); {
						n := chunk
						if off+n > len(long) {
							n = len(long) - off
						}
						logits, err := bg.StepSegs([]StepSeg{
							{Slot: slotS, Tokens: []int{nextS}},
							{Slot: slotL, Tokens: long[off : off+n]},
						})
						if err != nil {
							t.Fatalf("page=%d chunk=%d off=%d: %v", pageTokens, chunk, off, err)
						}
						check(wantShort, &emitS, logits.Row(0))
						nextS = argmax(logits.Row(0))
						off += n
						if off == len(long) {
							// The completing chunk's row is the prompt's logits.
							check(wantLong, &emitL, logits.Row(1))
							nextL = argmax(logits.Row(1))
						}
					}
					if bg.Pos(slotL) != len(long) {
						t.Fatalf("prefilled pos = %d, want %d", bg.Pos(slotL), len(long))
					}
					// Joint decode: both sequences advance together.
					for s := 0; s < steps-1; s++ {
						logits, err := stepTokens(bg, []int{slotL, slotS}, []int{nextL, nextS})
						if err != nil {
							t.Fatal(err)
						}
						check(wantLong, &emitL, logits.Row(0))
						check(wantShort, &emitS, logits.Row(1))
						nextL = argmax(logits.Row(0))
						nextS = argmax(logits.Row(1))
					}
					bg.Release(slotL)
					bg.Release(slotS)
				}
			}
		})
	}
}

// Chunked prefill + decode must stay allocation-free in steady state, like
// the pure-decode path: pooled segments, pooled per-row tables, pooled
// pages.
func TestChunkedStepAllocs(t *testing.T) {
	cfg := optConfig()
	cfg.MaxSeq = 256
	m, _ := NewModel(cfg, rng.New(816))
	bg := NewBatchGeneratorPaged(NewRunner(m), 2, 8, 0)
	prompt := []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12}
	slotD, _, err := admitPrompt(bg, []int{3, 4}, "", 0)
	if err != nil {
		t.Fatal(err)
	}
	segs := make([]StepSeg, 2)
	tokD := []int{2}
	runOnce := func() {
		slotP, err := bg.Begin("", 0)
		if err != nil {
			panic(err)
		}
		for off := 0; off < len(prompt); off += 4 {
			segs[0] = StepSeg{Slot: slotD, Tokens: tokD}
			segs[1] = StepSeg{Slot: slotP, Tokens: prompt[off : off+4]}
			if _, err := bg.StepSegs(segs); err != nil {
				panic(err)
			}
		}
		bg.Release(slotP)
		if bg.Pos(slotD) >= cfg.MaxSeq-1 {
			bg.Release(slotD)
			slotD, _, err = admitPrompt(bg, []int{3, 4}, "", 0)
			if err != nil {
				panic(err)
			}
		}
	}
	runOnce() // warm the scratch
	allocs := testing.AllocsPerRun(50, runOnce)
	if allocs != 0 {
		t.Fatalf("chunked step allocates %v times in steady state, want 0", allocs)
	}

	// AllocsPerRun pins GOMAXPROCS to 1, which keeps every step on one
	// worker; count the split steps' allocations on two procs by hand. The
	// count is process-wide, and the runtime now and then allocates for
	// itself when a hand-off wakes another thread (a new M, a refilled
	// cache of wait records), so gate the quietest of five rounds: an
	// allocation per step would show in every round.
	if runtime.GOMAXPROCS(0) < 2 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	}
	runOnce() // warm the second worker's scratch and start its helper
	fewest := uint64(1 << 63)
	for round := 0; round < 5; round++ {
		// Restart the decoding sequence so the round's runs fit its window.
		bg.Release(slotD)
		if slotD, _, err = admitPrompt(bg, []int{3, 4}, "", 0); err != nil {
			t.Fatal(err)
		}
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		before := ms.Mallocs
		for i := 0; i < 50; i++ {
			runOnce()
		}
		runtime.ReadMemStats(&ms)
		fewest = min(fewest, ms.Mallocs-before)
	}
	if fewest != 0 {
		t.Fatalf("split chunked steps allocate at least %d times in 50 runs, want 0", fewest)
	}
}

// A split step starts no goroutine of its own: its helpers belong to the
// package. Creating, stepping and dropping 100 generators leaves the
// goroutine count where the first split step left it.
func TestSplitStepStartsNoGoroutines(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 2 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	}
	m, _ := NewModel(optConfig(), rng.New(817))
	r := NewRunner(m)
	step := func() {
		bg := NewBatchGenerator(r, 2)
		a, _ := bg.Begin("", 0)
		b, _ := bg.Begin("", 0)
		if _, err := bg.StepSegs([]StepSeg{{Slot: a, Tokens: []int{1, 2}}, {Slot: b, Tokens: []int{3}}}); err != nil {
			t.Fatal(err)
		}
	}
	step()
	stepMu.Lock()
	started := stepHelpers
	stepMu.Unlock()
	if started < 1 {
		t.Fatal("a two-sequence step on two procs ran on one worker")
	}
	before := runtime.NumGoroutine()
	for i := 0; i < 100; i++ {
		step()
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("100 dropped generators raised the goroutine count from %d to %d", before, after)
	}
}

func TestGeneratorCheckedErrors(t *testing.T) {
	cfg := optConfig()
	cfg.MaxSeq = 4
	m, _ := NewModel(cfg, rng.New(812))
	g := NewGenerator(NewRunner(m))

	var tre *TokenRangeError
	if _, err := g.AppendChecked(-1); !errors.As(err, &tre) {
		t.Fatalf("bad token: %v", err)
	}
	if _, err := g.PrefillChecked(nil); !errors.Is(err, ErrEmptyPrompt) {
		t.Fatalf("empty prompt: %v", err)
	}
	if _, err := g.PrefillChecked([]int{1, 2, 3, 4, 5}); !errors.Is(err, ErrCacheFull) {
		t.Fatalf("over-capacity prompt: %v", err)
	}
	if g.Pos() != 0 {
		t.Fatalf("failed calls must not advance pos, got %d", g.Pos())
	}
	if _, err := g.PrefillChecked([]int{1, 2, 3, 4}); err != nil {
		t.Fatal(err)
	}
	if _, err := g.AppendChecked(1); !errors.Is(err, ErrCacheFull) {
		t.Fatalf("append past MaxSeq: %v", err)
	}
}

// The decode step must be allocation-free in steady state (satellite of the
// continuous-batching PR): pooled activations, pooled logits, pooled
// matrix headers. Guarded here for the digital path; the analog path's
// scratch is gated by the existing analog 0-alloc tests.
func TestDecodeStepAllocs(t *testing.T) {
	cfg := optConfig()
	cfg.MaxSeq = 512
	m, _ := NewModel(cfg, rng.New(813))
	g := NewGenerator(NewRunner(m))
	g.Append(1) // warm the scratch
	allocs := testing.AllocsPerRun(200, func() {
		if g.Pos() >= cfg.MaxSeq {
			g.Reset()
		}
		g.Append(2)
	})
	if allocs != 0 {
		t.Fatalf("decode step allocates %v times in steady state, want 0", allocs)
	}
}

// BenchmarkDecodeStepAllocs is the benchmark face of the alloc gate: run
// with -benchmem to see steady-state decode allocations (0 allocs/op).
func BenchmarkDecodeStepAllocs(b *testing.B) {
	cfg := optConfig()
	cfg.MaxSeq = 512
	m, _ := NewModel(cfg, rng.New(814))
	g := NewGenerator(NewRunner(m))
	g.Append(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if g.Pos() >= cfg.MaxSeq {
			g.Reset()
		}
		g.Append(2)
	}
}
