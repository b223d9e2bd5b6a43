// Package serve is the online inference layer over the experiment engine:
// a stdlib-only HTTP service that turns the repo's offline deploy→eval
// machinery into a request/response system with dynamic micro-batching,
// bounded admission, per-request deadlines, and live observability.
//
// Endpoints:
//
//	POST /v1/predict  — last-word prediction for one context, micro-batched
//	POST /v1/generate — streaming autoregressive generation (NDJSON token
//	                    events), continuous-batched across requests
//	POST /v1/eval     — batch accuracy over a sequence set (engine-memoized)
//	GET  /healthz     — liveness + preloaded model list
//	GET  /statz       — engine stats, cache hit rates, fault stats, batcher
//	                    + generation counters, latency histograms, per-chip
//	                    fleet state
//	GET  /v1/chips    — fleet chip states (admin)
//	POST /v1/chips    — chip lifecycle actions: drain, fail, restore,
//	                    reprogram, rolling-reprogram (admin)
//
// Requests route through a fleet (internal/fleet): every deployment is a
// replica group with one replica on each of N simulated chips, each chip
// realizing independent fault/drift/G_max draws under its own content key. The router picks a
// replica per request by chip availability plus (under the health-aware
// policy) in-flight load and fault-derived health, so draining or failing
// a chip shifts traffic to survivors with zero dropped in-flight requests.
// The zero fleet.Config is one implicit chip — bit-identical to the
// pre-fleet single-deployment server.
//
// Generation (generate.go) uses vLLM-style continuous batching with
// chunked prefill over a paged KV cache: one scheduler goroutine per
// (model, mode) drives an nn.BatchGenerator, admitting queued prompts
// whenever their KV page budget fits — at step boundaries, never mid-step —
// and retiring finished sequences without flushing the rest of the batch.
// Every step runs one batched pass over the analog tiles carrying all live
// decode rows plus up to Config.PrefillChunk tokens of pending prompts, so
// long prompts prefill incrementally instead of stalling every running
// sequence (short-prompt TTFT stays flat under mixed-length load).
//
// The core is the dynamic micro-batcher (batcher.go): concurrent predict
// requests that target the same (model, mode, config) deployment coalesce
// into one batch, flushed when it reaches Config.MaxBatch or when
// Config.MaxDelay elapses after the first request. Each batch fans out
// across the engine's eval workers, and every sequence forward rides the
// zero-allocation MVMBatchInto read path, so server throughput inherits
// the batched analog kernels.
//
// Determinism: a predict response is a pure function of (deployment,
// context tokens) — each request's stochastic read noise is scoped by a
// hash of its own tokens, never by its position in a batch — so batching,
// concurrency, cancellations, and retries cannot change any answer.
// Cancelled or deadline-exceeded requests are dropped between sequences
// (engine.Deployment.EvalCtx's contract) and never advance the engine's
// completed-work counters or poison its memo.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"nora/internal/analog"
	"nora/internal/core"
	"nora/internal/engine"
	"nora/internal/fleet"
	"nora/internal/harness"
)

// Config tunes the server. The zero value selects the defaults noted on
// each field.
type Config struct {
	// MaxBatch caps one micro-batch; a batch flushes as soon as it holds
	// this many requests. <= 0 selects DefaultMaxBatch.
	MaxBatch int
	// MaxDelay bounds how long the first request of a batch waits for
	// company before the batch flushes anyway. <= 0 selects
	// DefaultMaxDelay.
	MaxDelay time.Duration
	// QueueDepth bounds each deployment's admission queue; requests
	// arriving beyond it are rejected with 429 + Retry-After instead of
	// piling up unbounded. <= 0 selects DefaultQueueDepth.
	QueueDepth int
	// RequestTimeout is the server-side deadline applied to every request
	// (clients may shorten it per request via "timeout_ms", never extend
	// it). <= 0 selects DefaultRequestTimeout.
	RequestTimeout time.Duration
	// MaxDecodeBatch caps the continuous-batching decode batch: the number
	// of /v1/generate sequences one scheduler advances per decode step (and
	// the number of preallocated KV-cache slots per (model, mode)). <= 0
	// selects DefaultMaxDecodeBatch.
	MaxDecodeBatch int
	// PrefillChunk bounds the prompt tokens one mixed decode step consumes
	// across all mid-prefill sequences: long prompts are fed through the
	// model in chunks of at most this many tokens, riding along with the
	// live decode rows, so a 512-token prompt never stalls every other
	// sequence's next token for a monolithic prefill. Smaller chunks mean
	// lower inter-token latency for running sequences and later first
	// tokens for long prompts. Chunking never changes any answer — each
	// sequence's noise streams depend only on its own scope and token
	// order. <= 0 selects DefaultPrefillChunk.
	PrefillChunk int
	// KVPages sizes each scheduler's paged KV pool (pages of
	// nn.DefaultKVPageTokens positions each). Admission reserves
	// ceil((prompt+max_tokens-1)/pageTokens) pages per request, so capacity
	// is governed by actual sequence lengths instead of slots × MaxSeq
	// worst-case slabs. <= 0 sizes the pool so MaxDecodeBatch full-window
	// sequences fit — the slab-equivalent default.
	KVPages int
	// Analog is the tile configuration for analog deployments. The zero
	// value selects analog.PaperPreset().
	Analog analog.Config
	// Fleet describes the simulated chip fleet requests route through. The
	// zero value is one implicit fresh chip — bit-identical to the
	// pre-fleet server.
	Fleet fleet.Config
}

// Default serving knobs.
const (
	DefaultMaxBatch       = 16
	DefaultMaxDelay       = 2 * time.Millisecond
	DefaultQueueDepth     = 256
	DefaultRequestTimeout = 30 * time.Second
	DefaultMaxDecodeBatch = 16
	DefaultPrefillChunk   = 64
)

func (c Config) withDefaults() Config {
	if c.MaxBatch <= 0 {
		c.MaxBatch = DefaultMaxBatch
	}
	if c.MaxDelay <= 0 {
		c.MaxDelay = DefaultMaxDelay
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = DefaultQueueDepth
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = DefaultRequestTimeout
	}
	if c.MaxDecodeBatch <= 0 {
		c.MaxDecodeBatch = DefaultMaxDecodeBatch
	}
	if c.PrefillChunk <= 0 {
		c.PrefillChunk = DefaultPrefillChunk
	}
	// KVPages <= 0 stays as-is: the BatchGenerator sizes the slab-equivalent
	// pool itself.
	if c.Analog == (analog.Config{}) {
		c.Analog = analog.PaperPreset()
	}
	return c
}

// Server is the HTTP inference service. It implements http.Handler; wire
// it into an http.Server (or httptest) for transport. Close drains the
// micro-batchers; call it after the HTTP listener has stopped accepting.
type Server struct {
	eng   *engine.Engine
	cfg   Config
	mux   *http.ServeMux
	start time.Time
	flt   *fleet.Fleet

	// workloads is immutable after New.
	workloads map[string]*harness.Workload

	mu        sync.RWMutex // guards batchers, genScheds, groups, closed
	closed    bool
	batchers  map[string]*batcher
	genScheds map[string]*genScheduler
	groups    map[string]*fleet.Group // keyed "<model>/<mode>"

	predictHist histogram
	evalHist    histogram
	batches     atomic.Int64 // micro-batches flushed
	batched     atomic.Int64 // predict requests carried by those batches
	maxBatch    atomic.Int64 // largest batch flushed so far
	queueFull   atomic.Int64 // predicts rejected with 429
	canceled    atomic.Int64 // predicts dropped on a done context

	generateHist histogram    // whole-request /v1/generate latency
	ttftHist     histogram    // enqueue → first token, per generate request
	stepHist     histogram    // batched decode step latency
	genRequests  atomic.Int64 // generate requests admitted to a scheduler
	genTokens    atomic.Int64 // tokens streamed out
	genPrefills  atomic.Int64 // prompts prefilled (≈ sequences started)
	genQueueFull atomic.Int64 // generates rejected with 429
	genCanceled  atomic.Int64 // sequences retired on a done context
	genMaxBatch  atomic.Int64 // largest decode batch stepped so far

	wg sync.WaitGroup
}

// New assembles a server over eng serving the given preloaded workloads.
func New(eng *engine.Engine, cfg Config, workloads []*harness.Workload) *Server {
	s := &Server{
		eng:       eng,
		cfg:       cfg.withDefaults(),
		mux:       http.NewServeMux(),
		start:     time.Now(),
		workloads: make(map[string]*harness.Workload, len(workloads)),
		batchers:  make(map[string]*batcher),
		genScheds: make(map[string]*genScheduler),
		groups:    make(map[string]*fleet.Group),
	}
	s.flt = fleet.New(eng, s.cfg.Fleet)
	for _, w := range workloads {
		s.workloads[w.Spec.Key] = w
	}
	s.mux.HandleFunc("/v1/predict", s.handlePredict)
	s.mux.HandleFunc("/v1/generate", s.handleGenerate)
	s.mux.HandleFunc("/v1/eval", s.handleEval)
	s.mux.HandleFunc("/v1/chips", s.handleChips)
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/statz", s.handleStatz)
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// Close stops the micro-batchers after draining every admitted request,
// and stops the generation schedulers: queued and in-flight generations
// retire immediately with a "shutdown" final event (a decode can be
// arbitrarily long, so generation is cut short rather than drained). New
// requests racing with Close are rejected with 503; predict requests
// already queued are processed to completion before Close returns. Call
// after the HTTP listener has shut down; Close is idempotent.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	batchers := make([]*batcher, 0, len(s.batchers))
	for _, b := range s.batchers {
		batchers = append(batchers, b)
	}
	scheds := make([]*genScheduler, 0, len(s.genScheds))
	for _, g := range s.genScheds {
		scheds = append(scheds, g)
	}
	s.mu.Unlock()
	for _, b := range batchers {
		close(b.stop)
	}
	for _, g := range scheds {
		close(g.stop)
	}
	s.wg.Wait()
	return nil
}

// parseMode maps the wire-format mode names (and the DeployMode String
// forms) to deployment modes.
func parseMode(s string) (core.DeployMode, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "digital", "digital-fp", "fp":
		return core.DeployDigital, nil
	case "naive", "analog-naive":
		return core.DeployAnalogNaive, nil
	case "nora", "analog-nora", "":
		// NORA is the headline deployment; an omitted mode selects it.
		return core.DeployAnalogNORA, nil
	default:
		return 0, fmt.Errorf("unknown mode %q (want digital, naive, or nora)", s)
	}
}

// Fleet returns the server's chip fleet (for admin tooling and tests).
func (s *Server) Fleet() *fleet.Fleet { return s.flt }

// group resolves (and caches for statz) the fleet replica group for one
// workload and mode. The fleet and engine caches make repeated calls map
// lookups. Engine shape-guard panics (a structurally different model under
// a served key, invalid layer options) are recovered into errors here, so
// one bad deployment cannot kill the server — offline callers (harness,
// CLI) keep the loud panic.
func (s *Server) group(w *harness.Workload, mode core.DeployMode) (g *fleet.Group, err error) {
	key := w.Spec.Key + "/" + mode.String()
	s.mu.RLock()
	g, ok := s.groups[key]
	s.mu.RUnlock()
	if ok {
		return g, nil
	}
	defer func() {
		if p := recover(); p != nil {
			g, err = nil, fmt.Errorf("deploy %s: %v", key, p)
		}
	}()
	cfg := s.cfg.Analog
	if mode == core.DeployDigital {
		// Canonical zero config for digital requests (engine keying rule).
		cfg = analog.Config{}
	}
	g = s.flt.Deploy(w.Request(mode, cfg, core.Options{}, ""))
	s.mu.Lock()
	s.groups[key] = g
	s.mu.Unlock()
	return g, nil
}

// errorBody is the JSON error envelope every non-2xx response carries.
type errorBody struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	// Encoding errors past WriteHeader are the client hanging up; there is
	// nothing useful left to do with them.
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, errorBody{Error: fmt.Sprintf(format, args...)})
}

// requestCtx derives the request's working context: the transport context
// bounded by the server deadline, further shortened (never extended) by
// the client's timeout_ms.
func (s *Server) requestCtx(r *http.Request, timeoutMS int) (context.Context, context.CancelFunc) {
	timeout := s.cfg.RequestTimeout
	if timeoutMS > 0 {
		if d := time.Duration(timeoutMS) * time.Millisecond; d < timeout {
			timeout = d
		}
	}
	return context.WithTimeout(r.Context(), timeout)
}

// predictRequest is the /v1/predict wire format.
type predictRequest struct {
	Model     string `json:"model"`
	Mode      string `json:"mode"`
	Context   []int  `json:"context"`
	TimeoutMS int    `json:"timeout_ms"`
}

// predictResponse is the /v1/predict reply.
type predictResponse struct {
	Model     string  `json:"model"`
	Mode      string  `json:"mode"`
	Token     int     `json:"token"`
	BatchSize int     `json:"batch_size"`
	QueueMS   float64 `json:"queue_ms"`
	TotalMS   float64 `json:"total_ms"`
}

// validateContext rejects contexts the forward pass would panic on.
func validateContext(w *harness.Workload, tokens []int) error {
	if len(tokens) == 0 {
		return fmt.Errorf("context is empty")
	}
	if max := w.Model.Cfg.MaxSeq; len(tokens) > max {
		return fmt.Errorf("context holds %d tokens, model %q accepts at most %d", len(tokens), w.Spec.Key, max)
	}
	for i, tok := range tokens {
		if tok < 0 || tok >= w.Model.Cfg.Vocab {
			return fmt.Errorf("context[%d] = %d outside vocabulary [0, %d)", i, tok, w.Model.Cfg.Vocab)
		}
	}
	return nil
}

// noiseScope labels a predict request's stochastic draws by its content, so
// the answer is independent of batch composition and scheduling.
func noiseScope(tokens []int) string {
	h := fnv.New64a()
	var buf [8]byte
	for _, tok := range tokens {
		for i := 0; i < 8; i++ {
			buf[i] = byte(uint64(tok) >> (8 * i))
		}
		h.Write(buf[:])
	}
	return fmt.Sprintf("serve/predict/%016x", h.Sum64())
}

func (s *Server) handlePredict(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	code, resp := s.predict(r, start)
	s.predictHist.observe(time.Since(start), code >= 400)
	if code == http.StatusTooManyRequests {
		w.Header().Set("Retry-After", "1")
	}
	writeJSON(w, code, resp)
}

// predict runs the decode→admit→batch→reply pipeline, returning the status
// code and JSON body (errorBody or predictResponse).
func (s *Server) predict(r *http.Request, start time.Time) (int, any) {
	if r.Method != http.MethodPost {
		return http.StatusMethodNotAllowed, errorBody{Error: "POST required"}
	}
	var req predictRequest
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
	if err := validateContext(wl, req.Context); err != nil {
		return http.StatusBadRequest, errorBody{Error: err.Error()}
	}

	grp, err := s.group(wl, mode)
	if err != nil {
		return http.StatusInternalServerError, errorBody{Error: err.Error()}
	}
	rep, release, err := grp.Acquire()
	if err != nil {
		return http.StatusServiceUnavailable, errorBody{Error: err.Error()}
	}
	// The request stays charged to the replica (and its chip) until the
	// handler returns, so a chip drain waits for every admitted predict.
	defer release()

	ctx, cancel := s.requestCtx(r, req.TimeoutMS)
	defer cancel()

	job := &predictJob{
		ctx:      ctx,
		tokens:   req.Context,
		scope:    noiseScope(req.Context),
		enqueued: start,
		done:     make(chan predictOutcome, 1),
	}
	b, err := s.batcherFor(wl, mode, rep)
	if err != nil {
		return http.StatusServiceUnavailable, errorBody{Error: err.Error()}
	}
	if !b.enqueue(job) {
		s.queueFull.Add(1)
		return http.StatusTooManyRequests, errorBody{Error: "admission queue full, retry shortly"}
	}
	select {
	case out := <-job.done:
		if out.err != nil {
			s.canceled.Add(1)
			return http.StatusGatewayTimeout, errorBody{Error: "request canceled: " + out.err.Error()}
		}
		return http.StatusOK, predictResponse{
			Model:     req.Model,
			Mode:      mode.String(),
			Token:     out.token,
			BatchSize: out.batch,
			QueueMS:   float64(out.wait) / 1e6,
			TotalMS:   float64(time.Since(start)) / 1e6,
		}
	case <-ctx.Done():
		// The batcher will observe the done context and drop the job; its
		// buffered reply (if any) is garbage-collected with the job.
		s.canceled.Add(1)
		return http.StatusGatewayTimeout, errorBody{Error: "request canceled: " + ctx.Err().Error()}
	}
}

// evalRequest is the /v1/eval wire format. An omitted sequence set selects
// the workload's preloaded eval split (the offline experiments' split, so
// the response agrees exactly with the E3/E4 studies).
type evalRequest struct {
	Model     string  `json:"model"`
	Mode      string  `json:"mode"`
	Sequences [][]int `json:"sequences"`
	TimeoutMS int     `json:"timeout_ms"`
}

type evalResponse struct {
	Model     string  `json:"model"`
	Mode      string  `json:"mode"`
	Accuracy  float64 `json:"accuracy"`
	Correct   int     `json:"correct"`
	Evaluated int     `json:"evaluated"`
	Skipped   int     `json:"skipped"`
	Tokens    int64   `json:"tokens"`
	TotalMS   float64 `json:"total_ms"`
}

func (s *Server) handleEval(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	code, resp := s.eval(r, start)
	s.evalHist.observe(time.Since(start), code >= 400)
	writeJSON(w, code, resp)
}

func (s *Server) eval(r *http.Request, start time.Time) (int, any) {
	if r.Method != http.MethodPost {
		return http.StatusMethodNotAllowed, errorBody{Error: "POST required"}
	}
	var req evalRequest
	if err := json.NewDecoder(http.MaxBytesReader(nil, r.Body, 64<<20)).Decode(&req); err != nil {
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
	seqs := req.Sequences
	if seqs == nil {
		seqs = wl.Eval
	}
	for i, seq := range seqs {
		if len(seq) < 2 {
			continue // Eval counts these as skipped; nothing to validate
		}
		if err := validateContext(wl, seq[:len(seq)-1]); err != nil {
			return http.StatusBadRequest, errorBody{Error: fmt.Sprintf("sequences[%d]: %v", i, err)}
		}
		if last := seq[len(seq)-1]; last < 0 || last >= wl.Model.Cfg.Vocab {
			return http.StatusBadRequest, errorBody{Error: fmt.Sprintf("sequences[%d]: target token %d outside vocabulary", i, last)}
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
	defer release()

	ctx, cancel := s.requestCtx(r, req.TimeoutMS)
	defer cancel()
	res, err := rep.EvalCtx(ctx, seqs)
	if err != nil {
		return http.StatusGatewayTimeout, errorBody{Error: "request canceled: " + err.Error()}
	}
	return http.StatusOK, evalResponse{
		Model:     req.Model,
		Mode:      mode.String(),
		Accuracy:  res.Accuracy(),
		Correct:   res.Correct,
		Evaluated: res.Evaluated,
		Skipped:   res.Skipped,
		Tokens:    res.Tokens,
		TotalMS:   float64(time.Since(start)) / 1e6,
	}
}

// Models returns the sorted keys of the preloaded workloads.
func (s *Server) Models() []string {
	keys := make([]string, 0, len(s.workloads))
	for k := range s.workloads {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

type healthzResponse struct {
	Status  string   `json:"status"`
	Models  []string `json:"models"`
	UptimeS float64  `json:"uptime_s"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, healthzResponse{
		Status:  "ok",
		Models:  s.Models(),
		UptimeS: time.Since(s.start).Seconds(),
	})
}

// BatchStatz is the micro-batcher section of /statz.
type BatchStatz struct {
	Batches   int64   `json:"batches"`
	Requests  int64   `json:"requests"`
	MeanBatch float64 `json:"mean_batch"`
	MaxBatch  int64   `json:"max_batch"`
	QueueFull int64   `json:"queue_full"`
	Canceled  int64   `json:"canceled"`

	MaxBatchLimit int64   `json:"max_batch_limit"`
	MaxDelayMS    float64 `json:"max_delay_ms"`
	QueueDepth    int64   `json:"queue_depth"`
}

// GenStatz is the continuous-batching generation section of /statz. The
// engine section holds the matching decode-step aggregates (GenSteps,
// GenTokens, GenTime, GenReads — per-step analog reads and occupancy).
type GenStatz struct {
	Requests  int64 `json:"requests"`
	Tokens    int64 `json:"tokens"`
	Prefills  int64 `json:"prefills"`
	QueueFull int64 `json:"queue_full"`
	Canceled  int64 `json:"canceled"`
	// Steps/MeanBatch/TokensPerSecond mirror the engine's decode-step
	// counters for convenience; MaxBatch is the largest number of rows
	// (decode + prefill chunks) one mixed step carried.
	Steps           int64   `json:"steps"`
	MeanBatch       float64 `json:"mean_batch"`
	MaxBatch        int64   `json:"max_batch"`
	TokensPerSecond float64 `json:"tokens_per_second"`
	// PrefillTokens counts prompt tokens consumed by chunked prefill;
	// PrefillTokensPerSecond normalizes them over total gen-step time.
	PrefillTokens          int64   `json:"prefill_tokens"`
	PrefillTokensPerSecond float64 `json:"prefill_tokens_per_second"`
	AnalogReads            int64   `json:"analog_reads"`

	MaxDecodeBatch int64 `json:"max_decode_batch"`
	// PrefillChunk is the per-step prompt-token budget; KVPages the
	// configured page-pool size (0 = slab-equivalent auto-sizing).
	PrefillChunk int64 `json:"prefill_chunk"`
	KVPages      int64 `json:"kv_pages"`

	// TTFT is the enqueue→first-token latency distribution; Step the
	// batched decode-step latency distribution.
	TTFT EndpointStats `json:"ttft"`
	Step EndpointStats `json:"step"`
}

// ChipStatz is one chip's row in the /statz fleet section (and the
// /v1/chips document).
type ChipStatz struct {
	ID         string            `json:"id"`
	State      string            `json:"state"`
	Inflight   int64             `json:"inflight"`
	Served     int64             `json:"served"`
	Reprograms int64             `json:"reprograms"`
	Faults     analog.FaultStats `json:"faults"`
}

// FleetStatz is the multi-chip fleet section of /statz.
type FleetStatz struct {
	Policy string      `json:"policy"`
	Chips  []ChipStatz `json:"chips"`
}

// Statz is the /statz JSON document.
type Statz struct {
	UptimeS float64      `json:"uptime_s"`
	Models  []string     `json:"models"`
	Engine  engine.Stats `json:"engine"`
	// DeployCacheHitRate is hits/(hits+builds) of the engine's deployment
	// cache; EvalMemoHitRate the same for the per-deployment eval memo.
	DeployCacheHitRate float64           `json:"deploy_cache_hit_rate"`
	EvalMemoHitRate    float64           `json:"eval_memo_hit_rate"`
	Batch              BatchStatz        `json:"batch"`
	Gen                GenStatz          `json:"gen"`
	Fleet              FleetStatz        `json:"fleet"`
	Faults             analog.FaultStats `json:"faults"`
	// Cost is the engine-wide analog-vs-digital estimate (also inside
	// Engine.Cost); DeploymentCost breaks it down per served deployment,
	// keyed "<model>/<mode>" (implicit chip) or "<model>/<mode>@<chip>".
	Cost           analog.CostComparison            `json:"cost"`
	DeploymentCost map[string]analog.CostComparison `json:"deployment_cost"`
	Endpoints      map[string]EndpointStats         `json:"endpoints"`
}

// fleetSnapshot walks the served groups once, producing the per-chip fleet
// rows, the chip-keyed deployment cost breakdown, and the aggregate fault
// stats. Deployments shared between replicas (digital mode) count once.
func (s *Server) fleetSnapshot() (FleetStatz, map[string]analog.CostComparison, analog.FaultStats) {
	s.mu.RLock()
	groups := make(map[string]*fleet.Group, len(s.groups))
	for k, g := range s.groups {
		groups[k] = g
	}
	s.mu.RUnlock()

	var faults analog.FaultStats
	depCost := make(map[string]analog.CostComparison)
	chipFaults := make(map[string]analog.FaultStats)
	seen := make(map[*engine.Deployment]bool)
	for key, grp := range groups {
		for _, rep := range grp.Replicas() {
			dep, id := rep.Dep(), rep.ChipID()
			ck := key
			if id != "" {
				ck = key + "@" + id
			}
			depCost[ck] = dep.CostComparison()
			if seen[dep] {
				continue
			}
			seen[dep] = true
			fs := dep.FaultStats()
			faults.Add(fs)
			cf := chipFaults[id]
			cf.Add(fs)
			chipFaults[id] = cf
		}
	}
	fs := FleetStatz{Policy: s.cfg.Fleet.Policy.String()}
	for _, c := range s.flt.Chips() {
		fs.Chips = append(fs.Chips, ChipStatz{
			ID:         c.Spec.ID,
			State:      c.State().String(),
			Inflight:   c.Inflight(),
			Served:     c.Served(),
			Reprograms: c.Reprograms(),
			Faults:     chipFaults[c.Spec.ID],
		})
	}
	return fs, depCost, faults
}

// StatzSnapshot assembles the /statz document (exported for the loadgen
// client and tests).
func (s *Server) StatzSnapshot() Statz {
	es := s.eng.Stats()
	ratio := func(hit, miss int64) float64 {
		if hit+miss == 0 {
			return 0
		}
		return float64(hit) / float64(hit+miss)
	}
	batches := s.batches.Load()
	batched := s.batched.Load()
	bs := BatchStatz{
		Batches:       batches,
		Requests:      batched,
		MaxBatch:      s.maxBatch.Load(),
		QueueFull:     s.queueFull.Load(),
		Canceled:      s.canceled.Load(),
		MaxBatchLimit: int64(s.cfg.MaxBatch),
		MaxDelayMS:    float64(s.cfg.MaxDelay) / 1e6,
		QueueDepth:    int64(s.cfg.QueueDepth),
	}
	if batches > 0 {
		bs.MeanBatch = float64(batched) / float64(batches)
	}
	gs := GenStatz{
		Requests:        s.genRequests.Load(),
		Tokens:          s.genTokens.Load(),
		Prefills:        s.genPrefills.Load(),
		QueueFull:       s.genQueueFull.Load(),
		Canceled:        s.genCanceled.Load(),
		Steps:           es.GenSteps,
		MeanBatch:       es.GenMeanBatch(),
		MaxBatch:        s.genMaxBatch.Load(),
		TokensPerSecond: es.GenTokensPerSecond(),

		PrefillTokens:          es.GenPrefillTokens,
		PrefillTokensPerSecond: es.GenPrefillTokensPerSecond(),
		AnalogReads:            es.GenReads,
		MaxDecodeBatch:         int64(s.cfg.MaxDecodeBatch),
		PrefillChunk:           int64(s.cfg.PrefillChunk),
		KVPages:                int64(s.cfg.KVPages),
		TTFT:                   s.ttftHist.stats(),
		Step:                   s.stepHist.stats(),
	}
	fls, depCost, faults := s.fleetSnapshot()
	return Statz{
		UptimeS:            time.Since(s.start).Seconds(),
		Models:             s.Models(),
		Engine:             es,
		DeployCacheHitRate: ratio(es.DeployHits, es.DeployBuilds),
		EvalMemoHitRate:    ratio(es.EvalHits, es.Evals),
		Batch:              bs,
		Gen:                gs,
		Fleet:              fls,
		Faults:             faults,
		Cost:               es.Cost,
		DeploymentCost:     depCost,
		Endpoints: map[string]EndpointStats{
			"/v1/predict":  s.predictHist.stats(),
			"/v1/eval":     s.evalHist.stats(),
			"/v1/generate": s.generateHist.stats(),
		},
	}
}

func (s *Server) handleStatz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.StatzSnapshot())
}

// chipActionRequest is the POST /v1/chips wire format.
type chipActionRequest struct {
	Chip   string `json:"chip"`
	Action string `json:"action"`
}

// handleChips is the fleet admin endpoint: GET lists chip states, POST
// applies a lifecycle action (drain, fail, restore, reprogram,
// rolling-reprogram) and replies with the resulting fleet state. Reprogram
// drains the chip first and blocks until its in-flight requests finish, so
// the scripted "chip failure mid-traffic" and "rolling re-programming"
// scenarios drop no admitted work.
func (s *Server) handleChips(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodGet:
		fls, _, _ := s.fleetSnapshot()
		writeJSON(w, http.StatusOK, fls)
	case http.MethodPost:
		var req chipActionRequest
		if err := json.NewDecoder(http.MaxBytesReader(nil, r.Body, 1<<20)).Decode(&req); err != nil {
			writeError(w, http.StatusBadRequest, "malformed JSON: %v", err)
			return
		}
		var err error
		switch strings.ToLower(strings.TrimSpace(req.Action)) {
		case "drain":
			err = s.flt.Drain(req.Chip)
		case "fail":
			err = s.flt.Fail(req.Chip)
		case "restore":
			err = s.flt.Restore(req.Chip)
		case "reprogram":
			err = s.flt.Reprogram(r.Context(), req.Chip)
		case "rolling-reprogram":
			err = s.flt.RollingReprogram(r.Context())
		default:
			writeError(w, http.StatusBadRequest,
				"unknown action %q (want drain, fail, restore, reprogram, or rolling-reprogram)", req.Action)
			return
		}
		switch {
		case err == nil:
			fls, _, _ := s.fleetSnapshot()
			writeJSON(w, http.StatusOK, fls)
		case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
			writeError(w, http.StatusGatewayTimeout, "%v", err)
		default:
			writeError(w, http.StatusNotFound, "%v", err)
		}
	default:
		writeError(w, http.StatusMethodNotAllowed, "GET or POST required")
	}
}
