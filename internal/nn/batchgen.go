package nn

import (
	"fmt"
	"runtime"
	"sync"

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
// A step with several sequences runs on every core: StepSegs cuts them
// into contiguous groups and steps each group on its own worker.
//
// A BatchGenerator is not safe for concurrent use; the serving scheduler
// drives it from a single goroutine.
type BatchGenerator struct {
	r      *Runner
	noisy  bool // the runner has operators that draw read noise
	pool   *kvPagePool
	slots  []*decodeState // pooled per-slot sequence states
	inUse  []bool
	stamp  []uint64 // step that last carried each slot (duplicate check)
	steps  uint64
	free   int
	segs   []stepSeg    // step assembly buffer
	groups []*stepGroup // per-worker shares of a step; groups[0] runs unsplit steps too
	wg     sync.WaitGroup
	logits []float32 // the gathered logits of a split step
	outM   tensor.Matrix
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
		r:     r,
		noisy: r.hasScopedOps(),
		free:  maxSlots,
		pool:  newKVPagePool(len(m.Blocks), m.Cfg.KVDim(), pageTokens, totalPages),
	}
	for i := 0; i < maxSlots; i++ {
		bg.slots = append(bg.slots, newDecodeState(r, bg.pool))
	}
	bg.inUse = make([]bool, maxSlots)
	bg.stamp = make([]uint64, maxSlots)
	bg.groups = []*stepGroup{{bg: bg}}
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
	if scope != "" && bg.noisy {
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
// how prompts are chunked across steps, what shares each batch, or how the
// step is split across workers. Errors are reported before any sequence
// position advances.
func (bg *BatchGenerator) StepSegs(segs []StepSeg) (*tensor.Matrix, error) {
	if len(segs) == 0 {
		return nil, fmt.Errorf("nn: decode: empty step")
	}
	bg.steps++
	ss := bg.segs[:0]
	scoped := true // every sequence draws from its own streams
	for _, s := range segs {
		if s.Slot < 0 || s.Slot >= len(bg.slots) || !bg.inUse[s.Slot] {
			return nil, fmt.Errorf("nn: decode: slot %d not active", s.Slot)
		}
		if bg.stamp[s.Slot] == bg.steps {
			return nil, fmt.Errorf("nn: decode: slot %d appears twice in one step", s.Slot)
		}
		bg.stamp[s.Slot] = bg.steps
		st := bg.slots[s.Slot]
		scoped = scoped && (!bg.noisy || st.runner != bg.r)
		ss = append(ss, stepSeg{st: st, tokens: s.Tokens})
	}
	bg.segs = ss
	if err := prepareSegments(bg.r.model, ss); err != nil {
		return nil, err
	}
	// An unscoped sequence on a noisy runner shares the runner's stream, and
	// a PreLinear hook sees every batch: either keeps the step on one worker.
	workers := min(runtime.GOMAXPROCS(0), len(ss))
	if workers < 2 || !scoped || bg.r.PreLinear != nil {
		return runSegments(bg.r, ss, &bg.groups[0].sc), nil
	}
	return bg.runSplit(ss, workers), nil
}

// stepGroup is one worker's share of a split step: a contiguous run of
// whole sequences and the scratch its step body runs on.
type stepGroup struct {
	bg   *BatchGenerator
	segs []stepSeg
	sc   decodeScratch
	out  *tensor.Matrix
}

func (g *stepGroup) run() { g.out = runSegments(g.bg.r, g.segs, &g.sc) }

// runSplit steps prepared segments on k ≥ 2 workers. The segments are cut
// into k contiguous groups of whole sequences holding about the same number
// of rows; the calling goroutine steps the first group and package helpers
// the rest, each on its group's own scratch. A sequence's rows stay in
// order on one worker and draw only from its own streams, and no row's
// arithmetic depends on what else shares its read, so the split changes no
// bit. The logits rows are gathered in segment order.
func (bg *BatchGenerator) runSplit(segs []stepSeg, k int) *tensor.Matrix {
	for len(bg.groups) < k {
		bg.groups = append(bg.groups, &stepGroup{bg: bg})
	}
	n := 0
	for _, s := range segs {
		n += len(s.tokens)
	}
	// Close group g after segment i once the next segment's midpoint lies
	// past the group's share of the rows, g·n/k; the last group takes the
	// rest. With k ≥ 2 the first group always closes before the last
	// segment, so every group holds at least one sequence.
	groups, lo, rows := 0, 0, 0
	for i, s := range segs {
		rows += len(s.tokens)
		if i == len(segs)-1 || (groups < k-1 && (2*rows+len(segs[i+1].tokens))*k >= 2*(groups+1)*n) {
			bg.groups[groups].segs = segs[lo : i+1]
			groups++
			lo = i + 1
		}
	}
	startStepHelpers(groups - 1)
	bg.wg.Add(groups - 1)
	for _, g := range bg.groups[1:groups] {
		stepWork <- g
	}
	bg.groups[0].run()
	bg.wg.Wait()

	vocab := bg.r.model.Cfg.Vocab
	out := &bg.outM
	out.Rows, out.Cols = len(segs), vocab
	out.Data = grow(&bg.logits, len(segs)*vocab)
	r := 0
	for _, g := range bg.groups[:groups] {
		r += copy(out.Data[r:], g.out.Data)
	}
	return out
}

// stepWork feeds split-step groups to the helper goroutines. The helpers
// belong to the package, not to a generator: they start on demand, at most
// one per group a step has needed beyond its caller's, and live for the
// process, so a step starts no goroutine in steady state and a dropped
// generator leaks none.
var (
	stepWork    = make(chan *stepGroup)
	stepMu      sync.Mutex
	stepHelpers int // helpers started; guarded by stepMu
)

// startStepHelpers makes sure at least n helpers are running.
func startStepHelpers(n int) {
	stepMu.Lock()
	defer stepMu.Unlock()
	for ; stepHelpers < n; stepHelpers++ {
		go func() {
			for g := range stepWork {
				g.run()
				g.bg.wg.Done()
			}
		}()
	}
}
