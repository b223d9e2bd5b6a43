package nn

import (
	"errors"
	"fmt"
	"math"

	"nora/internal/tensor"
)

// The one transformer forward. Runner.Logits and PredictLast (one context
// as one prefill segment), Generator (one sequence) and BatchGenerator (N
// in-flight sequences, continuous batching) all drive stepSegments: every
// segment — one decode token, a prefill chunk, or a whole prompt —
// contributes its rows to one stacked n×d matrix, the whole step (QKV
// projections, cached attention, MLP, LM head) runs through the batched
// operators, and stochastic operators read each row under its own
// sequence's noise scope (NoiseScopedOp). A sequence's rows pass through
// every operator in prompt order no matter how they are split into chunks
// or interleaved with other sequences' rows, so each sequence is
// bit-identical to appending its tokens one at a time on that sequence
// alone — the property the serving layer's chunked-prefill continuous-
// batching scheduler depends on.

// Sentinel errors of the checked decode API. The serving path maps these to
// 4xx responses instead of letting a bad request crash the process.
var (
	// ErrCacheFull reports a sequence that has consumed MaxSeq tokens.
	ErrCacheFull = errors.New("nn: decode: KV cache full (MaxSeq reached)")
	// ErrEmptyPrompt reports a prefill with no tokens.
	ErrEmptyPrompt = errors.New("nn: decode: empty prompt")
	// ErrNoFreeSlot reports a BatchGenerator with every sequence slot taken.
	ErrNoFreeSlot = errors.New("nn: decode: no free sequence slot")
)

// TokenRangeError reports a token id outside [0, Vocab).
type TokenRangeError struct {
	Token int
	Vocab int
}

func (e *TokenRangeError) Error() string {
	return fmt.Sprintf("nn: decode: token %d out of range [0, %d)", e.Token, e.Vocab)
}

// decodeState is the per-sequence state of incremental decoding: position,
// reserved KV pages (kvpage.go), and the (possibly noise-scoped) runner view
// whose operator streams this sequence draws from.
type decodeState struct {
	runner *Runner
	pos    int
	pool   *kvPagePool
	pages  [][]float32 // positions [0, pos) valid; cap len(pages)·pageTokens
}

func newDecodeState(r *Runner, pool *kvPagePool) *decodeState {
	return &decodeState{runner: r, pool: pool}
}

// stepSeg is one sequence's contribution to a unified step: tokens are
// consumed at consecutive positions starting at st.pos. One token makes a
// decode row; several make a prefill chunk.
type stepSeg struct {
	st     *decodeState
	tokens []int
}

// decodeScratch pools every intermediate buffer of a step — activations,
// logits, positions, per-row state/view tables, the matrix headers — so
// steady-state decoding allocates nothing. All buffers are fully overwritten
// before being read (Into kernels, norm helpers, attendCachedRow), so reuse
// cannot perturb results.
type decodeScratch struct {
	x, h, q, k, v, attn, o, ff1, ff2 []float32
	end                              []float32
	logits                           []float32
	scores, mx                       []float32
	sums                             []float64
	rope                             []float32
	pos                              []int
	views                            []LinearOp
	rowStates                        []*decodeState

	xM, hM, qM, kM, vM, attnM, oM, ff1M, ff2M tensor.Matrix
	endM, logitsM                             tensor.Matrix

	seg1 [1]stepSeg
	tok1 [1]int
}

// mat re-points one of the scratch's matrix headers at a rows×cols buffer
// grown in place. The header lives inside the scratch, so taking its
// address never escapes to the heap.
func (sc *decodeScratch) mat(m *tensor.Matrix, buf *[]float32, rows, cols int) *tensor.Matrix {
	m.Rows, m.Cols = rows, cols
	m.Data = grow(buf, rows*cols)
	return m
}

// grow returns *buf resliced to n elements, reallocating only when its
// capacity is short; the contents are the caller's to overwrite.
func grow[T any](buf *[]T, n int) []T {
	if cap(*buf) < n {
		*buf = make([]T, n)
	}
	*buf = (*buf)[:n]
	return *buf
}

// stepSegments runs one batched pass over the segments: segment i's tokens
// are appended to its sequence at consecutive positions, and row i of the
// returned logits matrix (len(segs) × vocab, valid until the scratch's next
// use) is that sequence's next-token distribution after the segment's last
// token. Mixing one-token decode segments with multi-token prefill chunks in
// a single pass is what lets long prompts ride along with live decodes
// instead of stalling them.
//
// A slot must appear in at most one segment per step. No sequence position
// advances when an error is returned (page reservations may grow, which is
// unobservable).
func stepSegments(base *Runner, segs []stepSeg, sc *decodeScratch) (*tensor.Matrix, error) {
	if err := prepareSegments(base.model, segs); err != nil {
		return nil, err
	}
	return runSegments(base, segs, sc), nil
}

// prepareSegments validates a step's segments and reserves the KV pages
// their new positions need. It is the only part of a step that touches the
// shared page pool, so a step split across workers runs it first, serially.
func prepareSegments(m *Model, segs []stepSeg) error {
	if len(segs) == 0 {
		return fmt.Errorf("nn: decode: empty step")
	}
	for _, s := range segs {
		T := len(s.tokens)
		if T == 0 {
			return ErrEmptyPrompt
		}
		if s.st.pos+T > m.Cfg.MaxSeq {
			return ErrCacheFull
		}
		for _, tok := range s.tokens {
			if tok < 0 || tok >= m.Cfg.Vocab {
				return &TokenRangeError{Token: tok, Vocab: m.Cfg.Vocab}
			}
		}
	}
	for _, s := range segs {
		if err := s.st.reserve(s.st.pos + len(s.tokens)); err != nil {
			return err
		}
	}
	return nil
}

// runSegments is the body of a step over prepared segments. It writes only
// the segments' own sequences and sc, so disjoint sets of sequences can run
// it concurrently on separate scratches.
//
// Bit-exactness: stochastic operators consume row i under rowStates[i]'s
// scoped stream in ascending row order (applyRowScoped), so a sequence's
// rows draw exactly what they would draw appended one at a time, whatever
// the chunking or batch composition. Attention is computed per row against
// only that sequence's cache, in position order within each segment. The LM
// head is evaluated only for each segment's last row — earlier rows'
// logits are unobservable, and the head draws nothing, so skipping them
// cannot change results.
func runSegments(base *Runner, segs []stepSeg, sc *decodeScratch) *tensor.Matrix {
	m := base.model
	n := 0
	for _, s := range segs {
		n += len(s.tokens)
	}
	d := m.Cfg.DModel
	rowStates := grow(&sc.rowStates, n)
	positions := grow(&sc.pos, n)
	x := sc.mat(&sc.xM, &sc.x, n, d)
	r := 0
	for _, s := range segs {
		for j, tok := range s.tokens {
			rowStates[r] = s.st
			positions[r] = s.st.pos + j
			copy(x.Row(r), m.TokEmb.Value.Row(tok))
			if m.Cfg.Arch == ArchOPT {
				tensor.Axpy(1, m.PosEmb.Value.Row(positions[r]), x.Row(r))
			}
			r++
		}
	}
	for l, b := range m.Blocks {
		stepBlock(base, l, b, x, rowStates, positions, sc)
	}
	// Gather each segment's last row and run norm + LM head over just those.
	e := sc.mat(&sc.endM, &sc.end, len(segs), d)
	r = 0
	for i, s := range segs {
		r += len(s.tokens)
		copy(e.Row(i), x.Row(r-1))
	}
	h := sc.mat(&sc.hM, &sc.h, len(segs), d)
	if m.Cfg.Arch == ArchOPT {
		layerNormInferInto(h, e, m.FinalNormGain.Value.Row(0), m.FinalNormBias.Value.Row(0))
	} else {
		rmsNormInferInto(h, e, m.FinalNormGain.Value.Row(0))
	}
	logits := sc.mat(&sc.logitsM, &sc.logits, len(segs), m.Cfg.Vocab)
	tensor.MatMulInto(logits, h, m.LMHead.Value)
	for _, s := range segs {
		s.st.pos += len(s.tokens)
	}
	return logits
}

// stepBlock runs one transformer block over the stacked rows x (row i
// belonging to rowStates[i] at positions[i]), updating x in place and
// filling each sequence's KV cache.
func stepBlock(base *Runner, layer int, b *Block, x *tensor.Matrix, rowStates []*decodeState, positions []int, sc *decodeScratch) {
	m := base.model
	names := base.layerNames[layer]
	n, d := x.Rows, x.Cols

	h := sc.mat(&sc.hM, &sc.h, n, d)
	if m.Cfg.Arch == ArchOPT {
		layerNormInferInto(h, x, b.AttnNormGain.Value.Row(0), b.AttnNormBias.Value.Row(0))
	} else {
		rmsNormInferInto(h, x, b.AttnNormGain.Value.Row(0))
	}
	q := sc.mat(&sc.qM, &sc.q, n, b.WQ.Value.Cols)
	k := sc.mat(&sc.kM, &sc.k, n, b.WK.Value.Cols)
	v := sc.mat(&sc.vM, &sc.v, n, b.WV.Value.Cols)
	applyRowScoped(base, rowStates, names["attn.q"], h, q, sc)
	applyRowScoped(base, rowStates, names["attn.k"], h, k, sc)
	applyRowScoped(base, rowStates, names["attn.v"], h, v, sc)
	if m.Cfg.Arch == ArchLLaMA {
		ropeInferInPlace(q, k, m.Cfg.HeadDim(), positions, m.Cfg.RoPEBase, &sc.rope)
	}
	attn := sc.mat(&sc.attnM, &sc.attn, n, d)
	// Write each row's K/V into its sequence's cache before attending, in
	// row order: within a segment the rows sit at ascending positions, so
	// every row attends causally to its own prompt prefix exactly as a
	// sequential decode would.
	for i := 0; i < n; i++ {
		st := rowStates[i]
		st.storeKV(layer, positions[i], k.Row(i), v.Row(i))
		attendCachedRow(attn.Row(i), m, st, layer, q.Row(i), positions[i], sc)
	}
	o := sc.mat(&sc.oM, &sc.o, n, d)
	applyRowScoped(base, rowStates, names["attn.o"], attn, o, sc)
	x.AddInPlace(o)

	if m.Cfg.Arch == ArchOPT {
		layerNormInferInto(h, x, b.MLPNormGain.Value.Row(0), b.MLPNormBias.Value.Row(0))
		ff := b.W1.Value.Cols
		f1 := sc.mat(&sc.ff1M, &sc.ff1, n, ff)
		applyRowScoped(base, rowStates, names["mlp.fc1"], h, f1, sc)
		reluInPlace(f1.Data)
		applyRowScoped(base, rowStates, names["mlp.fc2"], f1, o, sc)
	} else {
		rmsNormInferInto(h, x, b.MLPNormGain.Value.Row(0))
		ff := b.WGate.Value.Cols
		gate := sc.mat(&sc.ff1M, &sc.ff1, n, ff)
		applyRowScoped(base, rowStates, names["mlp.gate"], h, gate, sc)
		tensor.SiLUInPlace(gate.Data)
		up := sc.mat(&sc.ff2M, &sc.ff2, n, ff)
		applyRowScoped(base, rowStates, names["mlp.up"], h, up, sc)
		gate.MulInPlace(up)
		applyRowScoped(base, rowStates, names["mlp.down"], gate, o, sc)
	}
	x.AddInPlace(o)
}

// applyRowScoped runs the named linear once over the stacked batch x (row
// i belonging to states[i]), writing into out. A noise-scoped operator reads
// row i under states[i]'s view — rows of one sequence consume that
// sequence's stream in row order, exactly as a single-sequence call would;
// any other operator draws nothing, so one read of the whole batch serves
// every sequence. Operators without ForwardInto run Forward plus a copy.
func applyRowScoped(base *Runner, states []*decodeState, name string, x, out *tensor.Matrix, sc *decodeScratch) {
	if base.PreLinear != nil {
		base.PreLinear(name, x)
	}
	op, ok := states[0].runner.ops[name]
	if !ok {
		panic(fmt.Sprintf("nn: no operator for layer %q", name))
	}
	switch op := op.(type) {
	case NoiseScopedOp:
		views := sc.views[:0]
		for _, st := range states {
			views = append(views, st.runner.ops[name])
		}
		sc.views = views
		op.ForwardIntoRowScoped(out, x, views)
	case ForwardIntoOp:
		op.ForwardInto(out, x)
	default:
		res := op.Forward(x)
		if res.Rows != out.Rows || res.Cols != out.Cols {
			panic(fmt.Sprintf("nn: %s: result %dx%d, expected %dx%d", name, res.Rows, res.Cols, out.Rows, out.Cols))
		}
		copy(out.Data, res.Data)
	}
}

// attendCachedRow computes multi-head attention of the single query row q
// (length DModel) at position pos against st's cached positions
// [max(0, pos-window+1), pos] of one layer, writing into out (length DModel,
// fully overwritten). It honors the sliding window and grouped-query head
// sharing, and is the one attention kernel: Logits, sequential Append,
// batched decode and chunked prefill all run it. Each row attends only to
// its own sequence's cache, so batching cannot change its result. The cache
// is paged: positions are walked page-segment by page-segment in ascending
// order, so the arithmetic (and therefore the result, bit for bit) is
// independent of the page size.
//
// The arithmetic is tensor's (AttnScores, AttnSoftmax, AttnValues), which
// runs packed where the CPU allows with the bits of the scalar loops: each
// score sums its products in column order, the softmax max skips NaN, each
// head's float64 sum of numerators runs in position order, and each output
// column adds its weighted values in position order. The row runs in three
// passes over every head, scores, softmax and values, so the heads' serial
// sums overlap; the query heads of one grouped-query group go through the
// score and value kernels in pairs that share every K and V load.
func attendCachedRow(out []float32, m *Model, st *decodeState, layer int, q []float32, pos int, sc *decodeScratch) {
	heads, dh := m.Cfg.NHeads, m.Cfg.HeadDim()
	group := heads / m.Cfg.KVHeads()
	scale := float32(1 / math.Sqrt(float64(dh)))
	lo := 0
	if w := m.Cfg.Window; w > 0 && pos-w+1 > 0 {
		lo = pos - w + 1
	}
	span := pos - lo + 1
	clear(out)
	pt, kvd := st.pool.pageTokens, st.pool.kvDim
	kOff, vOff := layer*2*pt*kvd, (layer*2+1)*pt*kvd
	// One score row per head, sized to the reserved capacity, not the
	// current span — span grows with every decode step, and growing to it
	// exactly would reallocate once per token.
	rows := len(st.pages) * pt
	buf := grow(&sc.scores, heads*rows)
	mx, sums := grow(&sc.mx, heads), grow(&sc.sums, heads)
	for h := 0; h < heads; {
		pair := (h+1)%group != 0
		kvLo := (h / group) * dh
		d0, q0 := buf[h*rows:][:span], q[h*dh:][:dh]
		var d1, q1 []float32
		if pair {
			d1, q1 = buf[(h+1)*rows:][:span], q[(h+1)*dh:][:dh]
		}
		mx0, mx1 := float32(math.Inf(-1)), float32(math.Inf(-1))
		for t0, t := lo, 0; t0 <= pos; {
			p, s := t0/pt, t0%pt
			n := min(pt-s, pos+1-t0)
			kb := st.pages[p][kOff+kvLo*pt+s:]
			mx0, mx1 = tensor.AttnScores(d0[t:t+n], part(d1, t, n), q0, q1, kb, pt, scale, mx0, mx1)
			t0, t = t0+n, t+n
		}
		mx[h] = mx0
		if h++; pair {
			mx[h] = mx1
			h++
		}
	}
	tensor.AttnSoftmax(buf, span, rows, mx, sums)
	for h := 0; h < heads; {
		pair := (h+1)%group != 0
		kvLo := (h / group) * dh
		w0, o0 := buf[h*rows:][:span], out[h*dh:][:dh]
		inv0 := float32(1 / sums[h])
		var w1, o1 []float32
		var inv1 float32
		if pair {
			w1, o1, inv1 = buf[(h+1)*rows:][:span], out[(h+1)*dh:][:dh], float32(1/sums[h+1])
		}
		for t0, t := lo, 0; t0 <= pos; {
			p, s := t0/pt, t0%pt
			n := min(pt-s, pos+1-t0)
			vb := st.pages[p][vOff+s*kvd+kvLo:]
			tensor.AttnValues(o0, o1, w0[t:t+n], part(w1, t, n), vb, kvd, inv0, inv1)
			t0, t = t0+n, t+n
		}
		if h++; pair {
			h++
		}
	}
}

// part returns d[t:t+n], or nil for a nil d (the absent second head).
func part(d []float32, t, n int) []float32 {
	if d == nil {
		return nil
	}
	return d[t : t+n]
}
