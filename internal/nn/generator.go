package nn

import (
	"math"

	"nora/internal/rng"
)

// Generator performs incremental (token-at-a-time) decoding with per-layer
// key/value caches, so autoregressive generation costs O(n) attention per
// step instead of re-running the full sequence. It drives the same
// pluggable linear operators as Runner — generation runs on analog tiles
// when the Runner is an analog deployment. It is the single-sequence front
// of the shared decode machinery (decode.go); BatchGenerator drives the
// same step over many sequences at once, bit-identically per sequence.
type Generator struct {
	r  *Runner
	st *decodeState
	sc decodeScratch
}

// NewGenerator returns an empty-generation state over the runner's model
// and operators. The single sequence owns a private one-page KV pool
// spanning the whole context window — the degenerate page size, so the
// sequential path pays no paging overhead.
func NewGenerator(r *Runner) *Generator {
	m := r.model
	pool := newKVPagePool(len(m.Blocks), m.Cfg.KVDim(), m.Cfg.MaxSeq, 1)
	st := newDecodeState(r, pool)
	if err := st.reserve(m.Cfg.MaxSeq); err != nil {
		panic(err.Error()) // unreachable: the pool was sized for exactly this
	}
	return &Generator{r: r, st: st}
}

// Pos returns the number of tokens consumed so far.
func (g *Generator) Pos() int { return g.st.pos }

// Reset clears the cache for a new sequence.
func (g *Generator) Reset() {
	g.st.pos = 0
}

// AppendChecked consumes one token and returns the next-token logits row
// (length vocab, valid until the next call on this generator). It returns
// ErrCacheFull once MaxSeq tokens have been consumed and *TokenRangeError
// for out-of-vocabulary ids — the serving path maps both to 4xx responses
// instead of crashing the process. State is unchanged on error.
func (g *Generator) AppendChecked(token int) ([]float32, error) {
	g.sc.tok1[0] = token
	return g.PrefillChecked(g.sc.tok1[:])
}

// Append consumes one token and returns the next-token logits row
// (length vocab). It panics when the cache is full (MaxSeq tokens) or the
// token is out of range; AppendChecked is the error-returning variant.
func (g *Generator) Append(token int) []float32 {
	logits, err := g.AppendChecked(token)
	if err != nil {
		panic(err.Error())
	}
	return logits
}

// PrefillChecked consumes the prompt as one segment of the decode step and
// returns the logits after its last token (valid until the next call on
// this generator). Capacity and token range are validated before any
// position advances, so a rejected prompt leaves the state untouched.
func (g *Generator) PrefillChecked(tokens []int) ([]float32, error) {
	g.sc.seg1[0] = stepSeg{st: g.st, tokens: tokens}
	logits, err := stepSegments(g.r, g.sc.seg1[:], &g.sc)
	if err != nil {
		return nil, err
	}
	return logits.Row(0), nil
}

// Prefill consumes the prompt and returns the logits after its last token.
// It panics on invalid input; PrefillChecked is the error-returning variant.
func (g *Generator) Prefill(tokens []int) []float32 {
	logits, err := g.PrefillChecked(tokens)
	if err != nil {
		panic(err.Error())
	}
	return logits
}

// Greedy generates n tokens greedily after the prompt, returning only the
// generated continuation.
func (g *Generator) Greedy(prompt []int, n int) []int {
	logits := g.Prefill(prompt)
	out := make([]int, 0, n)
	for i := 0; i < n; i++ {
		next := argmax(logits)
		out = append(out, next)
		if g.st.pos >= g.r.model.Cfg.MaxSeq {
			break
		}
		logits = g.Append(next)
	}
	return out
}

func argmax(xs []float32) int {
	best, bi := float32(math.Inf(-1)), 0
	for i, v := range xs {
		if v > best {
			best, bi = v, i
		}
	}
	return bi
}

// Sample generates n tokens after the prompt using temperature and top-k
// sampling (temperature ≤ 0 or topK == 1 degenerate to greedy decoding;
// topK ≤ 0 keeps the full vocabulary). r drives the categorical draws.
func (g *Generator) Sample(prompt []int, n int, temperature float64, topK int, r *rng.Rand) []int {
	logits := g.Prefill(prompt)
	out := make([]int, 0, n)
	for i := 0; i < n; i++ {
		next := sampleToken(logits, temperature, topK, r)
		out = append(out, next)
		if g.st.pos >= g.r.model.Cfg.MaxSeq {
			break
		}
		logits = g.Append(next)
	}
	return out
}

// SampleToken draws one token id from temperature-scaled, top-k-filtered
// logits: temperature ≤ 0 or topK == 1 select the argmax, topK ≤ 0 keeps
// the full vocabulary. r drives the categorical draw; the serving layer
// gives every request its own seed-derived stream so sampled continuations
// are reproducible.
func SampleToken(logits []float32, temperature float64, topK int, r *rng.Rand) int {
	return sampleToken(logits, temperature, topK, r)
}

// sampleToken draws one token id from temperature-scaled, top-k-filtered
// logits.
func sampleToken(logits []float32, temperature float64, topK int, r *rng.Rand) int {
	if temperature <= 0 || topK == 1 {
		return argmax(logits)
	}
	// Collect the top-k candidate set (or everything when topK ≤ 0).
	type cand struct {
		id int
		lg float64
	}
	cands := make([]cand, len(logits))
	for i, v := range logits {
		cands[i] = cand{i, float64(v)}
	}
	if topK > 0 && topK < len(cands) {
		// partial selection: simple selection of the k largest
		for i := 0; i < topK; i++ {
			best := i
			for j := i + 1; j < len(cands); j++ {
				if cands[j].lg > cands[best].lg {
					best = j
				}
			}
			cands[i], cands[best] = cands[best], cands[i]
		}
		cands = cands[:topK]
	}
	// Softmax over the candidates at the given temperature.
	mx := math.Inf(-1)
	for _, c := range cands {
		if c.lg > mx {
			mx = c.lg
		}
	}
	var sum float64
	weights := make([]float64, len(cands))
	for i, c := range cands {
		w := math.Exp((c.lg - mx) / temperature)
		weights[i] = w
		sum += w
	}
	u := r.Float64() * sum
	for i, w := range weights {
		u -= w
		if u <= 0 {
			return cands[i].id
		}
	}
	return cands[len(cands)-1].id
}
