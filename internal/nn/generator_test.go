package nn

import (
	"math"
	"testing"

	"nora/internal/autograd"
	"nora/internal/rng"
	"nora/internal/tensor"
)

// allLogits returns every position's next-token logits, read through the
// Generator one Append at a time: row i follows tokens[:i+1].
func allLogits(r *Runner, tokens []int) *tensor.Matrix {
	g := NewGenerator(r)
	out := tensor.New(len(tokens), r.Model().Cfg.Vocab)
	for i, tok := range tokens {
		copy(out.Row(i), g.Append(tok))
	}
	return out
}

// The three ways into the one decode step must agree bit for bit on every
// prefix: Runner.Logits (the whole context as one segment), the sequential
// Generator (one token per step), and a BatchGenerator prefill split into
// two chunks over small KV pages. Covers OPT, plain LLaMA, grouped-query
// attention, and a sliding window that binds.
func TestGeneratorMatchesFullForward(t *testing.T) {
	windowed := llamaConfig()
	windowed.Name, windowed.Window = "window-test", 4
	for _, tc := range []struct {
		cfg  Config
		seed uint64
	}{
		{optConfig(), 700},
		{llamaConfig(), 700},
		{gqaConfig(), 1003},
		{windowed, 701},
	} {
		t.Run(tc.cfg.Name, func(t *testing.T) {
			m, err := NewModel(tc.cfg, rng.New(tc.seed))
			if err != nil {
				t.Fatal(err)
			}
			r := NewRunner(m)
			tokens := []int{5, 1, 29, 8, 0, 17, 3, 3, 11, 24, 9, 2}
			g := NewGenerator(r)
			bg := NewBatchGeneratorPaged(r, 1, 3, 0)
			for p := 1; p <= len(tokens); p++ {
				full := r.Logits(tokens[:p])
				seq := g.Append(tokens[p-1])
				slot, err := bg.Begin("", p)
				if err != nil {
					t.Fatal(err)
				}
				h := p / 2
				if h > 0 {
					if _, err := bg.StepSegs([]StepSeg{{Slot: slot, Tokens: tokens[:h]}}); err != nil {
						t.Fatal(err)
					}
				}
				res, err := bg.StepSegs([]StepSeg{{Slot: slot, Tokens: tokens[h:p]}})
				if err != nil {
					t.Fatal(err)
				}
				chunked := res.Row(0)
				for j := range full {
					f := math.Float32bits(full[j])
					if f != math.Float32bits(seq[j]) || f != math.Float32bits(chunked[j]) {
						t.Fatalf("prefix %d vocab %d: Logits %v, Append %v, chunked %v", p, j, full[j], seq[j], chunked[j])
					}
				}
				bg.Release(slot)
			}
		})
	}
}

func TestGeneratorResetReusesCache(t *testing.T) {
	m, _ := NewModel(optConfig(), rng.New(702))
	r := NewRunner(m)
	g := NewGenerator(r)
	a := g.Prefill([]int{3, 7, 9})
	g.Reset()
	if g.Pos() != 0 {
		t.Fatal("Reset must zero position")
	}
	b := g.Prefill([]int{3, 7, 9})
	for j := range a {
		if a[j] != b[j] {
			t.Fatal("post-Reset generation must be identical (digital ops are pure)")
		}
	}
}

func TestGeneratorPanics(t *testing.T) {
	m, _ := NewModel(optConfig(), rng.New(703))
	g := NewGenerator(NewRunner(m))
	for name, f := range map[string]func(){
		"bad-token":    func() { g.Append(999) },
		"empty-prompt": func() { g.Prefill(nil) },
		"overflow": func() {
			g.Reset()
			for i := 0; i <= m.Cfg.MaxSeq; i++ {
				g.Append(1)
			}
		},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: expected panic", name)
				}
			}()
			f()
		}()
	}
}

func TestGreedyGeneratesRequestedTokens(t *testing.T) {
	m, _ := NewModel(optConfig(), rng.New(704))
	g := NewGenerator(NewRunner(m))
	out := g.Greedy([]int{1, 2, 3}, 5)
	if len(out) != 5 {
		t.Fatalf("generated %d tokens", len(out))
	}
	for _, tok := range out {
		if tok < 0 || tok >= m.Cfg.Vocab {
			t.Fatalf("generated token %d out of vocab", tok)
		}
	}
}

func TestGreedyStopsAtMaxSeq(t *testing.T) {
	cfg := optConfig()
	cfg.MaxSeq = 6
	m, _ := NewModel(cfg, rng.New(705))
	g := NewGenerator(NewRunner(m))
	out := g.Greedy([]int{1, 2, 3}, 10)
	// prompt used 3 slots; generation may fill at most 3 more appends
	if len(out) > 4 {
		t.Fatalf("generated %d tokens past MaxSeq", len(out))
	}
}

func TestSampleTokenGreedyDegenerate(t *testing.T) {
	logits := []float32{0.1, 5, -2, 3}
	r := rng.New(800)
	if sampleToken(logits, 0, 0, r) != 1 {
		t.Fatal("temperature 0 must be greedy")
	}
	if sampleToken(logits, 1, 1, r) != 1 {
		t.Fatal("topK 1 must be greedy")
	}
}

func TestSampleTokenTopKRestriction(t *testing.T) {
	logits := []float32{10, 9, -100, -100}
	r := rng.New(801)
	for i := 0; i < 200; i++ {
		got := sampleToken(logits, 1, 2, r)
		if got != 0 && got != 1 {
			t.Fatalf("top-2 sampled excluded token %d", got)
		}
	}
	// both candidates should appear at temperature 1 (logit gap 1)
	seen := map[int]bool{}
	for i := 0; i < 200; i++ {
		seen[sampleToken(logits, 1, 2, r)] = true
	}
	if !seen[0] || !seen[1] {
		t.Fatalf("sampling not stochastic: %v", seen)
	}
}

func TestSampleTokenHighTemperatureSpreads(t *testing.T) {
	logits := []float32{2, 1, 0, -1}
	r := rng.New(802)
	counts := make([]int, 4)
	for i := 0; i < 4000; i++ {
		counts[sampleToken(logits, 5, 0, r)]++
	}
	for id, n := range counts {
		if n == 0 {
			t.Fatalf("token %d never sampled at high temperature", id)
		}
	}
	if counts[0] <= counts[3] {
		t.Fatal("higher-logit token should still be more likely")
	}
}

func TestGeneratorSampleAPI(t *testing.T) {
	m, _ := NewModel(optConfig(), rng.New(707))
	g := NewGenerator(NewRunner(m))
	out := g.Sample([]int{1, 2}, 4, 0.8, 5, rng.New(803))
	if len(out) != 4 {
		t.Fatalf("sampled %d tokens", len(out))
	}
	for _, tok := range out {
		if tok < 0 || tok >= m.Cfg.Vocab {
			t.Fatalf("token %d out of vocab", tok)
		}
	}
	// temperature 0 sampling equals greedy decoding
	g.Reset()
	greedy := g.Greedy([]int{1, 2}, 4)
	g2 := NewGenerator(NewRunner(m))
	zeroTemp := g2.Sample([]int{1, 2}, 4, 0, 0, rng.New(804))
	for i := range greedy {
		if greedy[i] != zeroTemp[i] {
			t.Fatal("temperature-0 sampling must equal greedy")
		}
	}
}

// A trained model's greedy continuation after QUERY must be the correct
// answer token — generation agrees with the evaluation protocol.
func TestGreedyAnswersTask(t *testing.T) {
	if testing.Short() {
		t.Skip("training in test")
	}
	cfg := optConfig()
	m, _ := NewModel(cfg, rng.New(706))
	opt := autograd.NewAdam(m.Params(), 0.01)
	opt.ClipNorm = 1
	seqs := [][]int{
		{1, 2, 3, 4, 5, 6},
		{7, 8, 9, 10, 11, 12},
	}
	for i := 0; i < 150; i++ {
		m.LossOnBatch(seqs)
		opt.Step()
	}
	g := NewGenerator(NewRunner(m))
	for _, seq := range seqs {
		g.Reset()
		out := g.Greedy(seq[:3], 3)
		for j, want := range seq[3:] {
			if out[j] != want {
				t.Fatalf("greedy continuation %v, want %v", out, seq[3:])
			}
		}
	}
}
