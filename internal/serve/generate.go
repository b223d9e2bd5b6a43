package serve

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"net/http"
	"sort"
	"time"

	"nora/internal/core"
	"nora/internal/engine"
	"nora/internal/fleet"
	"nora/internal/harness"
	"nora/internal/nn"
	"nora/internal/rng"
)

// generateRequest is the /v1/generate wire format. Sampling defaults to
// greedy (temperature 0); seed makes sampled continuations reproducible.
type generateRequest struct {
	Model       string  `json:"model"`
	Mode        string  `json:"mode"`
	Prompt      []int   `json:"prompt"`
	MaxTokens   int     `json:"max_tokens"`
	Temperature float64 `json:"temperature"`
	TopK        int     `json:"top_k"`
	Seed        uint64  `json:"seed"`
	StopTokens  []int   `json:"stop_tokens"`
	TimeoutMS   int     `json:"timeout_ms"`
}

// generateEvent is one NDJSON line of the /v1/generate stream: token lines
// first ({"token":..,"index":..}), then exactly one final line with
// Done=true summarizing the request. FinishReason is "length" (max_tokens
// or context window reached), "stop" (a stop_tokens match), "canceled"
// (client context ended mid-generation), "shutdown" (server closed), or
// "error" (the decode step failed; Error carries the message).
type generateEvent struct {
	Token int  `json:"token"`
	Index int  `json:"index"`
	Done  bool `json:"done,omitempty"`

	FinishReason string  `json:"finish_reason,omitempty"`
	Tokens       int     `json:"tokens,omitempty"`
	PromptTokens int     `json:"prompt_tokens,omitempty"`
	TotalMS      float64 `json:"total_ms,omitempty"`
	Error        string  `json:"error,omitempty"`
}

// genJob is one admitted request travelling through a scheduler: a
// generate, or a predict, which is a greedy one-token generate whose
// handler answers from the token event. events is buffered for the full
// clamped token budget plus the final, so the scheduler can always retire
// a sequence without blocking — even when the client has stopped reading.
type genJob struct {
	ctx         context.Context
	prompt      []int
	maxTokens   int // clamped to the remaining KV-cache capacity
	temperature float64
	topK        int
	stop        map[int]bool
	scope       string
	sampler     *rng.Rand
	enqueued    time.Time
	events      chan generateEvent
	predict     bool

	// Written by the scheduler before it sends the job's token event.
	firstStep time.Time // start of the first step that carried the job
	batchSize int       // sequences in the step that emitted the last token
}

// newPredictJob is the scheduler job of one /v1/predict context.
func newPredictJob(ctx context.Context, tokens []int, enqueued time.Time) *genJob {
	return &genJob{
		ctx:       ctx,
		prompt:    tokens,
		maxTokens: 1,
		scope:     contentScope("serve/predict/", tokens),
		enqueued:  enqueued,
		events:    make(chan generateEvent, 2),
		predict:   true,
	}
}

// genSeq is a job while it occupies a BatchGenerator slot. pending holds
// the prompt suffix not yet fed through the model: admission only reserves
// the slot and its KV pages, then the prompt is consumed in chunks of at
// most Config.PrefillChunk tokens that ride along with the other sequences'
// decode rows. Once pending drains, next carries the sampled-but-not-yet-
// appended token like any decode-phase sequence.
type genSeq struct {
	job     *genJob
	slot    int
	pending []int // unfed prompt suffix; non-empty ⇒ mid-prefill
	next    int   // sampled but not yet appended token (decode phase)
	emitted int
}

// genScheduler owns continuous batching for one replica of a (model, mode)
// deployment, for predicts and generates alike: a single goroutine drives
// a paged-KV BatchGenerator, admitting queued requests in FIFO order
// whenever their full page budget fits (at step boundaries, never
// mid-step), advancing every in-flight sequence through mixed
// decode+prefill steps, and retiring finished or canceled sequences
// without flushing the rest of the batch. Each request reads under its own
// content-derived noise scope, so its answer is a pure function of
// (deployment, its own tokens) regardless of what shares the batch — and,
// with chunked prefill, regardless of how its prompt was chunked.
type genScheduler struct {
	srv  *Server
	wl   *harness.Workload
	mode core.DeployMode
	rep  *fleet.Replica

	queue chan *genJob  // buffered QueueDepth: the admission bound
	stop  chan struct{} // closed by Server.Close after admission stops
}

// genSchedulerFor returns (creating and starting on first use) the
// scheduler for one workload, mode, and routed replica (each replica
// decodes on its own simulated chip, so each has its own scheduler and KV
// pool).
func (s *Server) genSchedulerFor(wl *harness.Workload, mode core.DeployMode, rep *fleet.Replica) (*genScheduler, error) {
	key := fmt.Sprintf("%s/%s#%d", wl.Spec.Key, mode, rep.Index)
	s.mu.RLock()
	g, ok := s.genScheds[key]
	closed := s.closed
	s.mu.RUnlock()
	if closed {
		return nil, fmt.Errorf("server shutting down")
	}
	if ok {
		return g, nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, fmt.Errorf("server shutting down")
	}
	if g, ok := s.genScheds[key]; ok {
		return g, nil
	}
	g = &genScheduler{
		srv:   s,
		wl:    wl,
		mode:  mode,
		rep:   rep,
		queue: make(chan *genJob, s.cfg.QueueDepth),
		stop:  make(chan struct{}),
	}
	s.genScheds[key] = g
	s.wg.Add(1)
	go g.loop()
	return g, nil
}

// enqueue admits the job into the bounded queue, reporting false when the
// queue is full or the server closed. The read lock orders admission
// against Close: once Close has set closed (under the write lock), no new
// job can slip into a queue the draining scheduler has already emptied.
func (g *genScheduler) enqueue(job *genJob) bool {
	g.srv.mu.RLock()
	defer g.srv.mu.RUnlock()
	if g.srv.closed {
		return false
	}
	select {
	case g.queue <- job:
		return true
	default:
		return false
	}
}

// finish emits the job's final event. The events channel is sized so this
// never blocks.
func (j *genJob) finish(reason string, errText string) {
	j.events <- generateEvent{
		Done:         true,
		FinishReason: reason,
		PromptTokens: len(j.prompt),
		Error:        errText,
	}
}

// loop is the scheduler goroutine: run mixed decode+prefill steps until
// the server closes. Admission happens only between steps. A job that does
// not fit the KV page pool right now parks (at most one — the queue stays
// FIFO behind it) and retries at every step boundary until retirements
// free enough pages. Once Close signals stop, generations retire with
// "shutdown" finals (a decode can be arbitrarily long), while the loop
// keeps stepping until every admitted predict is answered.
//
// Live KV caches are bound to the runner that filled them, so a chip
// re-programming mid-decode does not swap hardware under running
// sequences: they finish on the realization they started on. Once the
// batch is empty the scheduler re-reads the replica's deployment and
// rebuilds its generator on the new realization; a job that arrives while
// old-realization sequences are still retiring waits for them.
func (g *genScheduler) loop() {
	defer g.srv.wg.Done()
	stop := g.stop             // nil once Close is seen: the loop drains
	var dep *engine.Deployment // the realization bg decodes on
	var bg *nn.BatchGenerator
	var active []*genSeq
	var parked *genJob // pulled from the queue, waiting on a KV slot or pages
	for {
		if len(active) == 0 && parked == nil {
			if stop != nil {
				select {
				case parked = <-g.queue:
				case <-stop:
					stop = nil
				}
			}
			if stop == nil && parked == nil {
				select {
				case parked = <-g.queue:
				default:
					return // admission is closed, so the queue stays empty
				}
			}
		} else if stop != nil {
			select {
			case <-stop:
				stop = nil
			default:
			}
		}
		if stop == nil {
			active = g.endGenerations(bg, active)
			if parked != nil && !parked.predict {
				parked.finish("shutdown", "")
				parked = nil
			}
		}
		if cur := g.rep.Dep(); cur != dep {
			if len(active) > 0 {
				// Old-realization sequences are still retiring: admit
				// nothing until they have.
				active = g.step(dep, bg, active)
				continue
			}
			dep = cur
			bg = nn.NewBatchGeneratorPaged(dep.Runner(), g.srv.cfg.MaxDecodeBatch, 0, g.srv.cfg.KVPages)
		}
		// Step boundary: retry the parked job first (admission stays FIFO),
		// then drain the queue while slots last.
		if parked != nil {
			job := parked
			parked = nil
			active, parked = g.admit(bg, active, job)
		}
	fill:
		for parked == nil && bg.Free() > 0 {
			select {
			case job := <-g.queue:
				if stop == nil && !job.predict {
					job.finish("shutdown", "")
					continue
				}
				active, parked = g.admit(bg, active, job)
			default:
				break fill
			}
		}
		active = g.step(dep, bg, active)
	}
}

// endGenerations retires every in-flight generate with a "shutdown" final,
// keeping the predicts.
func (g *genScheduler) endGenerations(bg *nn.BatchGenerator, active []*genSeq) []*genSeq {
	out := active[:0]
	for _, seq := range active {
		if seq.job.predict {
			out = append(out, seq)
			continue
		}
		bg.Release(seq.slot)
		seq.job.finish("shutdown", "")
	}
	return out
}

// cancel retires a job whose context is done. A predict's handler answers
// 504 and counts it itself.
func (g *genScheduler) cancel(job *genJob) {
	if !job.predict {
		g.srv.genCanceled.Add(1)
	}
	job.finish("canceled", "")
}

// admit claims a KV slot and reserves the request's full page budget
// (prompt plus decode continuation), then parks the prompt for chunked
// prefill: no model work happens here. The prompt is consumed at most
// Config.PrefillChunk tokens per step inside the batched passes, so a long
// prompt never stalls the other sequences' decode — that is the TTFT win.
// When the generator is out of slots or pages the job is handed back as
// parked and retried after the next step, once retirements have freed
// capacity; a budget that could never fit even an idle generator fails
// immediately instead of parking forever.
func (g *genScheduler) admit(bg *nn.BatchGenerator, active []*genSeq, job *genJob) ([]*genSeq, *genJob) {
	if job.ctx.Err() != nil {
		g.cancel(job)
		return active, nil
	}
	// Emitting m tokens appends only m-1 of them after the prompt.
	budget := len(job.prompt) + job.maxTokens - 1
	slot, err := bg.Begin(job.scope, budget)
	if err != nil {
		if errors.Is(err, nn.ErrNoFreeSlot) || errors.Is(err, nn.ErrNoFreePages) {
			if bg.PagesFor(budget) <= bg.TotalPages() {
				return active, job // transient: retry at the next step boundary
			}
			err = fmt.Errorf("request needs %d KV pages, pool holds %d: %w",
				bg.PagesFor(budget), bg.TotalPages(), err)
		}
		job.finish("error", err.Error())
		return active, nil
	}
	return append(active, &genSeq{job: job, slot: slot, pending: job.prompt}), nil
}

// step advances the batch one mixed pass: every decode-phase sequence
// contributes its one-token row, every admitted predict its whole context,
// and mid-prefill generations contribute prompt chunks until the per-step
// prefill token budget (Config.PrefillChunk) is spent — one batched pass
// over the analog tiles serves them all. The budget is allocated
// shortest-remaining-first: a 16-token prompt finishes its prefill (and
// starts streaming) in its first ride even when a 512-token prompt is
// mid-prefill ahead of it, while the long prompt concedes at most the short
// prompts' tokens per step — that bounded concession is the short-prompt
// TTFT win. Afterwards decode rows and prompt-completing rows sample their
// next token (the latter closes the request's TTFT); mid-prompt rows return
// no usable logits and just advance their pending cursor. Canceled
// sequences — mid-prefill or not — are retired before the pass, releasing
// every reserved KV page immediately. The step's analog reads are counted
// on dep, the deployment whose runner bg decodes on.
func (g *genScheduler) step(dep *engine.Deployment, bg *nn.BatchGenerator, active []*genSeq) []*genSeq {
	live := active[:0]
	for _, seq := range active {
		if seq.job.ctx.Err() != nil {
			bg.Release(seq.slot)
			g.cancel(seq.job)
			continue
		}
		live = append(live, seq)
	}
	if len(live) == 0 {
		return live
	}
	// Allocate the prefill budget shortest-remaining-first (stable, so ties
	// keep admission order): alloc[i] is live[i]'s chunk for this step. A
	// predict's whole context rides outside the budget: it is answered from
	// its last prompt row, so chunking it would only delay it and shrink the
	// steps that concurrent predicts share.
	alloc := make([]int, len(live))
	prefillTokens := 0
	var prefilling []int
	for i, seq := range live {
		switch {
		case seq.job.predict:
			alloc[i] = len(seq.pending)
			prefillTokens += alloc[i]
		case len(seq.pending) > 0:
			prefilling = append(prefilling, i)
		}
	}
	sort.SliceStable(prefilling, func(a, b int) bool {
		return len(live[prefilling[a]].pending) < len(live[prefilling[b]].pending)
	})
	budget := g.srv.cfg.PrefillChunk
	for _, i := range prefilling {
		if budget <= 0 {
			break
		}
		n := len(live[i].pending)
		if n > budget {
			n = budget
		}
		alloc[i] = n
		budget -= n
		prefillTokens += n
	}
	segs := make([]nn.StepSeg, 0, len(live))
	rows := make([]*genSeq, 0, len(live)) // rows[i] owns segs[i], in live order
	toks := make([]int, len(live))        // backing for the decode rows' single tokens
	decodeRows := 0
	for i, seq := range live {
		if len(seq.pending) == 0 {
			toks[i] = seq.next
			segs = append(segs, nn.StepSeg{Slot: seq.slot, Tokens: toks[i : i+1]})
			rows = append(rows, seq)
			decodeRows++
			continue
		}
		if alloc[i] == 0 {
			continue // no budget this step; this prompt rides the next one
		}
		segs = append(segs, nn.StepSeg{Slot: seq.slot, Tokens: seq.pending[:alloc[i]]})
		rows = append(rows, seq)
	}
	reads0 := dep.OpCounters().MVMs
	start := time.Now()
	for _, seq := range rows {
		if seq.job.firstStep.IsZero() {
			seq.job.firstStep = start
		}
	}
	logits, err := bg.StepSegs(segs)
	elapsed := time.Since(start)
	if err != nil {
		for _, seq := range live {
			bg.Release(seq.slot)
			seq.job.finish("error", err.Error())
		}
		return live[:0]
	}
	dep.RecordGenStep(decodeRows, prefillTokens, elapsed, dep.OpCounters().MVMs-reads0)
	g.srv.stepHist.observe(elapsed, false)
	g.srv.stepSeqs.Add(int64(len(segs)))
	for {
		old := g.srv.genMaxBatch.Load()
		if int64(len(segs)) <= old || g.srv.genMaxBatch.CompareAndSwap(old, int64(len(segs))) {
			break
		}
	}
	// Route each row's result. Sample from a snapshot of each row before
	// emitting: emit only appends to the survivor list, never touches
	// logits. Mid-prefill sequences skipped by the budget carry straight
	// over to the survivor list.
	out := live[:0]
	row := 0
	for _, seq := range live {
		if len(seq.pending) > 0 {
			if row < len(rows) && rows[row] == seq {
				seq.pending = seq.pending[len(segs[row].Tokens):]
				row++
				if len(seq.pending) == 0 {
					// The chunk that finished the prompt: its row holds the
					// prompt's last-token logits — sample the first token.
					if !seq.job.predict {
						g.srv.genPrefills.Add(1)
						g.srv.ttftHist.observe(time.Since(seq.job.enqueued), false)
					}
					tok := nn.SampleToken(logits.Row(row-1), seq.job.temperature, seq.job.topK, seq.job.sampler)
					out = g.emit(bg, out, seq, tok, len(segs))
					continue
				}
			}
			out = append(out, seq)
			continue
		}
		tok := nn.SampleToken(logits.Row(row), seq.job.temperature, seq.job.topK, seq.job.sampler)
		row++
		out = g.emit(bg, out, seq, tok, len(segs))
	}
	return out
}

// emit delivers one sampled token, from a step of seqs sequences, to the
// sequence's stream and either keeps the sequence in flight (recording the
// token as its pending input) or retires it, freeing the KV slot and pages
// for the next admission. A predict retires with its one token.
func (g *genScheduler) emit(bg *nn.BatchGenerator, active []*genSeq, seq *genSeq, tok, seqs int) []*genSeq {
	seq.job.batchSize = seqs
	seq.job.events <- generateEvent{Token: tok, Index: seq.emitted}
	seq.emitted++
	if !seq.job.predict {
		g.srv.genTokens.Add(1)
	}
	switch {
	case seq.job.stop[tok]:
		bg.Release(seq.slot)
		seq.job.finish("stop", "")
	case seq.emitted >= seq.job.maxTokens:
		bg.Release(seq.slot)
		seq.job.finish("length", "")
	default:
		seq.next = tok
		active = append(active, seq)
	}
	return active
}

// contentScope labels a request's stochastic draws by its tokens: prefix
// followed by the FNV-64a hash of the tokens as little-endian 64-bit
// words, so the answer is independent of batch composition and scheduling.
// Predicts use "serve/predict/" and generates "serve/gen/". Requests
// sharing tokens and prefix share a scope — and therefore, by design,
// identical per-position noise (sampling still differs by seed).
func contentScope(prefix string, tokens []int) string {
	h := fnv.New64a()
	var buf [8]byte
	for _, tok := range tokens {
		binary.LittleEndian.PutUint64(buf[:], uint64(tok))
		h.Write(buf[:])
	}
	return fmt.Sprintf("%s%016x", prefix, h.Sum64())
}

// DefaultMaxNewTokens bounds generation when the client omits max_tokens.
const DefaultMaxNewTokens = 16

func (s *Server) handleGenerate(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	if code, body := s.generate(w, r, start); body != nil {
		// Pre-stream failure: plain JSON error, histogrammed as an error.
		s.generateHist.observe(time.Since(start), true)
		if code == http.StatusTooManyRequests {
			w.Header().Set("Retry-After", "1")
		}
		writeJSON(w, code, body)
		return
	}
	s.generateHist.observe(time.Since(start), false)
}

// generate validates, admits, and streams one request. A non-nil return
// body means nothing has been written yet and the handler should reply with
// that JSON error; a nil body means the NDJSON stream was (fully) written.
func (s *Server) generate(w http.ResponseWriter, r *http.Request, start time.Time) (int, any) {
	if r.Method != http.MethodPost {
		return http.StatusMethodNotAllowed, errorBody{Error: "POST required"}
	}
	var req generateRequest
	if err := json.NewDecoder(http.MaxBytesReader(nil, r.Body, 1<<20)).Decode(&req); err != nil {
		return http.StatusBadRequest, errorBody{Error: "malformed JSON: " + err.Error()}
	}
	wl, ok := s.workloads[req.Model]
	if !ok {
		return http.StatusNotFound, errorBody{Error: fmt.Sprintf("unknown model %q (see /healthz for the loaded set)", req.Model)}
	}
	mode, err := parseMode(req.Mode)
	if err != nil {
		return http.StatusBadRequest, errorBody{Error: err.Error()}
	}
	if err := validateContext(wl, req.Prompt); err != nil {
		return http.StatusBadRequest, errorBody{Error: err.Error()}
	}
	if req.MaxTokens < 0 {
		return http.StatusBadRequest, errorBody{Error: fmt.Sprintf("max_tokens = %d must be positive", req.MaxTokens)}
	}
	maxTokens := req.MaxTokens
	if maxTokens == 0 {
		maxTokens = DefaultMaxNewTokens
	}
	// Clamp to the remaining KV-cache capacity: emitting m tokens appends
	// only m-1 of them, so a full-context prompt can still produce one.
	if remaining := wl.Model.Cfg.MaxSeq - len(req.Prompt) + 1; maxTokens > remaining {
		maxTokens = remaining
	}
	var stop map[int]bool
	if len(req.StopTokens) > 0 {
		stop = make(map[int]bool, len(req.StopTokens))
		for _, tok := range req.StopTokens {
			stop[tok] = true
		}
	}

	grp, err := s.group(wl, mode)
	if err != nil {
		return http.StatusInternalServerError, errorBody{Error: err.Error()}
	}
	rep, release, err := grp.Acquire()
	if err != nil {
		return http.StatusServiceUnavailable, errorBody{Error: err.Error()}
	}
	// The handler streams until the final event, so the request stays
	// charged to the replica (and its chip) for the whole generation — a
	// chip drain waits for every admitted stream to finish.
	defer release()

	ctx, cancel := s.requestCtx(r, req.TimeoutMS)
	defer cancel()
	job := &genJob{
		ctx:         ctx,
		prompt:      req.Prompt,
		maxTokens:   maxTokens,
		temperature: req.Temperature,
		topK:        req.TopK,
		stop:        stop,
		scope:       contentScope("serve/gen/", req.Prompt),
		sampler:     rng.New(req.Seed),
		enqueued:    start,
		events:      make(chan generateEvent, maxTokens+1),
	}
	sched, err := s.genSchedulerFor(wl, mode, rep)
	if err != nil {
		return http.StatusServiceUnavailable, errorBody{Error: err.Error()}
	}
	if !sched.enqueue(job) {
		s.genQueueFull.Add(1)
		return http.StatusTooManyRequests, errorBody{Error: "generation queue full, retry shortly"}
	}
	s.genRequests.Add(1)

	w.Header().Set("Content-Type", "application/x-ndjson")
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	tokens := 0
	for {
		select {
		case ev := <-job.events:
			if ev.Done {
				ev.Tokens = tokens
				ev.TotalMS = float64(time.Since(start)) / 1e6
				_ = enc.Encode(ev)
				if flusher != nil {
					flusher.Flush()
				}
				return 0, nil
			}
			tokens++
			if err := enc.Encode(ev); err != nil {
				// Client hung up mid-stream; the context will cancel and the
				// scheduler retires the sequence at the next step boundary.
				return 0, nil
			}
			if flusher != nil {
				flusher.Flush()
			}
		case <-ctx.Done():
			// Canceled while waiting for the next token. The scheduler owns
			// the slot and will observe the done context; the buffered events
			// channel guarantees it never blocks on this abandoned job.
			_ = enc.Encode(generateEvent{
				Done:         true,
				FinishReason: "canceled",
				Tokens:       tokens,
				PromptTokens: len(req.Prompt),
				TotalMS:      float64(time.Since(start)) / 1e6,
			})
			return 0, nil
		}
	}
}
