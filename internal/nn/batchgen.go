package nn

import (
	"fmt"

	"nora/internal/tensor"
)

// BatchGenerator decodes many sequences at once over one runner: every
// step stacks the live rows — one per decoding sequence, plus up to a
// chunk's worth of prompt rows per prefilling sequence — into a single n×d
// matrix driven through the batched operators, so N requests share one
// blocked analog MAC per linear instead of issuing N single-row reads.
// Each sequence owns a pooled slot, KV pages from a shared freelist
// (kvpage.go), and (on noisy runners) a noise-scoped operator view, so
// every row of every step is bit-identical to sequentially decoding that
// sequence alone with Generator.Append — batch composition, admission
// order, prefill chunking, page size, and retirement order never change any
// request's tokens. That is the contract a continuous-batching scheduler
// needs to admit, chunk-prefill, and retire sequences at step boundaries
// freely.
//
// A BatchGenerator is not safe for concurrent use; the serving scheduler
// drives it from a single goroutine.
type BatchGenerator struct {
	r     *Runner
	pool  *kvPagePool
	slots []*decodeState // pooled per-slot sequence states
	inUse []bool
	free  int
	sc    decodeScratch
	segs  []stepSeg // step assembly buffer
}

// NewBatchGenerator returns a generator with maxSlots pooled sequence slots
// over the runner's model and operators, with the default page granularity
// and enough pages for every slot to reach the full context window — the
// same total KV memory as the historical per-slot slabs, allocated once
// here and reused across admissions.
func NewBatchGenerator(r *Runner, maxSlots int) *BatchGenerator {
	return NewBatchGeneratorPaged(r, maxSlots, 0, 0)
}

// NewBatchGeneratorPaged is NewBatchGenerator with explicit KV paging:
// pageTokens positions per page (≤ 0 for DefaultKVPageTokens) and
// totalPages in the shared pool (≤ 0 reserves maxSlots × pagesFor(MaxSeq),
// the slab-equivalent capacity). A smaller pool trades worst-case capacity
// for memory: admission then fails with ErrNoFreePages when the pool is
// exhausted, even while slots remain free — capacity governed by pages, not
// slots.
func NewBatchGeneratorPaged(r *Runner, maxSlots, pageTokens, totalPages int) *BatchGenerator {
	if maxSlots <= 0 {
		panic("nn: NewBatchGenerator: non-positive slot count")
	}
	m := r.model
	if pageTokens <= 0 {
		pageTokens = DefaultKVPageTokens
	}
	if pageTokens > m.Cfg.MaxSeq {
		pageTokens = m.Cfg.MaxSeq
	}
	if totalPages <= 0 {
		perSlot := (m.Cfg.MaxSeq + pageTokens - 1) / pageTokens
		totalPages = maxSlots * perSlot
	}
	bg := &BatchGenerator{
		r:    r,
		free: maxSlots,
		pool: newKVPagePool(len(m.Blocks), m.Cfg.KVDim(), pageTokens, totalPages),
	}
	for i := 0; i < maxSlots; i++ {
		bg.slots = append(bg.slots, newDecodeState(r, bg.pool))
	}
	bg.inUse = make([]bool, maxSlots)
	return bg
}

// Slots returns the total slot count.
func (bg *BatchGenerator) Slots() int { return len(bg.slots) }

// Free returns the number of currently unclaimed slots.
func (bg *BatchGenerator) Free() int { return bg.free }

// MaxSeq returns the model's KV-cache capacity in tokens per sequence.
func (bg *BatchGenerator) MaxSeq() int { return bg.r.model.Cfg.MaxSeq }

// Pos returns the number of tokens slot has consumed.
func (bg *BatchGenerator) Pos(slot int) int { return bg.slots[slot].pos }

// PageTokens returns the page granularity in token positions.
func (bg *BatchGenerator) PageTokens() int { return bg.pool.pageTokens }

// TotalPages returns the KV page pool's total capacity.
func (bg *BatchGenerator) TotalPages() int { return bg.pool.total }

// FreePages returns the number of currently unreserved KV pages.
func (bg *BatchGenerator) FreePages() int { return len(bg.pool.free) }

// PagesFor returns the number of KV pages a sequence of n total tokens
// (prompt plus continuation) reserves.
func (bg *BatchGenerator) PagesFor(n int) int { return bg.pool.pagesFor(n) }

// Begin claims a free slot and reserves KV pages for a sequence of up to
// budget total tokens (prompt plus continuation; ≤ 0 or > MaxSeq reserves
// the full context window) without consuming any tokens yet — the prompt is
// then fed in chunks via StepSegs. Reserving the whole budget up front
// means a sequence admitted here can always run to that budget: decode can
// never die mid-flight on an exhausted pool. scope labels the sequence's
// noise streams: on a noisy runner every stochastic operator reads this
// sequence under a stream that is a pure function of (operator seed,
// scope), which is what keeps its decode independent of batch composition.
// An empty scope shares the runner's own streams — fine for digital
// runners, but it forfeits per-request determinism on analog ones. On error
// (ErrNoFreeSlot, ErrNoFreePages) no slot or page stays claimed.
func (bg *BatchGenerator) Begin(scope string, budget int) (int, error) {
	slot := -1
	for i, used := range bg.inUse {
		if !used {
			slot = i
			break
		}
	}
	if slot < 0 {
		return -1, ErrNoFreeSlot
	}
	if budget <= 0 || budget > bg.MaxSeq() {
		budget = bg.MaxSeq()
	}
	st := bg.slots[slot]
	st.pos = 0
	if err := st.reserve(budget); err != nil {
		st.releasePages()
		return -1, err
	}
	if scope != "" && bg.r.hasScopedOps() {
		st.runner = bg.r.WithNoiseScope(scope)
	} else {
		st.runner = bg.r
	}
	bg.inUse[slot] = true
	bg.free--
	return slot, nil
}

// Release returns a slot and its KV pages to their pools; releasing an
// inactive slot is a no-op.
func (bg *BatchGenerator) Release(slot int) {
	if slot < 0 || slot >= len(bg.slots) || !bg.inUse[slot] {
		return
	}
	bg.inUse[slot] = false
	bg.slots[slot].pos = 0
	bg.slots[slot].releasePages()
	bg.slots[slot].runner = bg.r // drop the scoped view so it can be collected
	bg.free++
}

// StepSeg describes one sequence's contribution to a mixed prefill/decode
// step: Tokens are consumed at the slot's next consecutive positions. One
// token is a decode row; several are a prefill chunk.
type StepSeg struct {
	Slot   int
	Tokens []int
}

// StepSegs runs one batched pass over a mix of decode rows and prefill
// chunks: segment i's tokens extend the sequence in its slot, and row i of
// the returned logits (len(segs) × vocab, valid until the next call) is
// that sequence's next-token distribution after the segment's last token —
// meaningful to sample from only when the segment completes the prompt.
// A slot may appear in at most one segment per step. Every sequence's
// tokens remain bit-identical to a sequential Generator run regardless of
// how prompts are chunked across steps or what shares each batch. Errors
// are reported before any sequence position advances.
func (bg *BatchGenerator) StepSegs(segs []StepSeg) (*tensor.Matrix, error) {
	if len(segs) == 0 {
		return nil, fmt.Errorf("nn: decode: empty step")
	}
	ss := bg.segs[:0]
	for _, s := range segs {
		if s.Slot < 0 || s.Slot >= len(bg.slots) || !bg.inUse[s.Slot] {
			return nil, fmt.Errorf("nn: decode: slot %d not active", s.Slot)
		}
		ss = append(ss, stepSeg{st: bg.slots[s.Slot], tokens: s.Tokens})
	}
	bg.segs = ss
	return stepSegments(bg.r, ss, &bg.sc)
}
