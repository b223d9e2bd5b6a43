// Package engine factors the deploy→eval pattern shared by every harness
// experiment into one instrumented component: a Deployment handle wrapping
// core.Deploy behind a content-keyed, bounded LRU cache, memoized parallel
// evaluation, and a generic grid runner (RunGrid) that absorbs the
// per-experiment worker-pool boilerplate.
//
// Determinism contract: deployments are seeded from the content key alone
// (model key, mode, config fingerprint, calibration fingerprint, options,
// salt), and evaluation draws every sequence's read noise from a stream
// derived purely from (layer seed, sequence index). Consequently
//
//   - a cached deployment re-evaluated later is bit-identical to a freshly
//     built one for the same request, and
//   - Eval with any worker count equals serial evaluation exactly.
//
// Identical requests issued from different experiments therefore
// intentionally collide in the cache: revisiting a (model, mode, config)
// point costs a map lookup instead of reprogramming every tile.
package engine

import (
	"container/list"
	"context"
	"fmt"
	"hash/fnv"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"nora/internal/analog"
	"nora/internal/core"
	"nora/internal/nn"
)

// Config tunes an Engine. The zero value selects the defaults noted on
// each field.
type Config struct {
	// CacheSize bounds the number of live cached deployments; the least
	// recently used entry is evicted beyond it. <= 0 selects
	// DefaultCacheSize.
	CacheSize int

	// EvalWorkers is the goroutine count for sequence-level evaluation
	// inside one deployment. <= 0 selects GOMAXPROCS.
	EvalWorkers int

	// GridWorkers is the goroutine count RunGrid uses across experiment
	// points. <= 0 selects GOMAXPROCS.
	GridWorkers int

	// CostModel prices the analog hardware events the engine counts around
	// evaluation passes (Stats.Cost, Deployment.CostComparison). The zero
	// value selects analog.DefaultCostModel(). Pure reporting: it never
	// enters deployment content keys or changes any result.
	CostModel analog.CostModel
}

// DefaultCacheSize bounds the deployment cache when Config.CacheSize is
// unset. Deployments hold fully programmed tile grids (the dominant memory
// cost), so the bound is deliberately modest.
const DefaultCacheSize = 64

// Engine owns the deployment cache and the run statistics. It is safe for
// concurrent use; concurrent Deploy calls for the same request coalesce
// into a single build (duplicate waiters block until the builder finishes).
type Engine struct {
	cfg Config

	mu      sync.Mutex
	order   *list.List // *cacheEntry, front = most recently used
	entries map[string]*list.Element

	// shapes records the layer-shape signature first seen for each content
	// key, for the Request.Model aliasing guard. Entries outlive cache
	// eviction on purpose: a collision with an evicted deployment is just as
	// much a bug as one with a live entry.
	shapes map[string]uint64

	stats statCounters
}

type cacheEntry struct {
	key   string
	ready chan struct{} // closed once dep is populated (or the build failed)
	dep   *Deployment
	// failure holds the recovered panic value when the build died before
	// populating dep. Written by the builder before it closes ready, read
	// by waiters only after ready is closed.
	failure any
}

// New returns an Engine with the given configuration.
func New(cfg Config) *Engine {
	if cfg.CacheSize <= 0 {
		cfg.CacheSize = DefaultCacheSize
	}
	if cfg.CostModel == (analog.CostModel{}) {
		cfg.CostModel = analog.DefaultCostModel()
	}
	return &Engine{
		cfg:     cfg,
		order:   list.New(),
		entries: make(map[string]*list.Element),
		shapes:  make(map[string]uint64),
	}
}

// EvalWorkers returns the effective sequence-level worker count, for
// callers that evaluate runners built outside the engine (for example the
// digital-quantization baselines) but want matching parallelism.
func (e *Engine) EvalWorkers() int { return e.cfg.EvalWorkers }

// Request names one deployment: which model, onto what hardware, under
// which rescaling. Everything except Net enters the content key; Net is
// the live model instance the deployment is built from.
type Request struct {
	// Model is the stable identity of the network (for example the zoo
	// spec key). Two distinct models must never share a Model string, or
	// their deployments would alias in the cache.
	Model string
	// Net is the model instance to deploy.
	Net *nn.Model
	// Mode selects digital / analog-naive / analog-NORA.
	Mode core.DeployMode
	// Cal supplies calibration statistics; required for DeployAnalogNORA
	// and ignored (also for keying) otherwise.
	Cal *core.Calibration
	// Config is the analog tile configuration (ignored for DeployDigital
	// by core.Deploy but still keyed, so pass a canonical zero Config for
	// digital requests).
	Config analog.Config
	// Opt tunes NORA; Lambda 0 is normalized to core.DefaultLambda so the
	// zero value and the explicit default share one cache slot.
	Opt core.Options
	// Salt separates deployments that must not share hardware state with
	// anyone else (for example the cost study, which reads per-layer event
	// counters after its eval). Empty for the common shared pool.
	Salt string
	// Chip names the simulated chip this deployment is programmed onto
	// (internal/fleet). A non-empty Chip extends the content key — and
	// therefore the deployment seed — so each chip realizes its own
	// independent fault/drift/G_max draws. Empty means the implicit
	// single chip every pre-fleet deployment used: the key is then
	// byte-identical to the historical format, so existing fingerprints,
	// seeds, and cache slots are untouched.
	Chip string
}

// contentKey is the canonical string over everything that determines the
// deployed hardware state. It excludes the Net pointer so the derived seed
// is stable across processes.
func (r Request) contentKey() string {
	lambda := r.Opt.Lambda
	if lambda == 0 {
		lambda = core.DefaultLambda
	}
	var cal uint64
	if r.Mode == core.DeployAnalogNORA {
		cal = r.Cal.Fingerprint()
	}
	key := fmt.Sprintf("model=%s;mode=%s;cfg=%s;cal=%016x;lambda=%g;layers=%s;salt=%s",
		r.Model, r.Mode, r.Config.Fingerprint(), cal, lambda,
		strings.Join(r.Opt.Layers, ","), r.Salt)
	if r.Chip != "" {
		// Appended only when set: the empty (implicit) chip must keep the
		// historical key byte-for-byte so legacy seeds survive.
		key += ";chip=" + r.Chip
	}
	return key
}

// Seed returns the deployment seed: a pure function of the content key, so
// revisiting a (model, mode, config, calibration, options) point — from
// any experiment, in any order — programs identical hardware.
func (r Request) Seed() uint64 {
	h := fnv.New64a()
	h.Write([]byte(r.contentKey()))
	return h.Sum64()
}

// cacheKey extends the content key with the model instance, so two live
// models that happen to share a Model string (a bug, but a cheap one to
// contain) cannot serve each other's cached deployments.
func (r Request) cacheKey() string {
	return fmt.Sprintf("%s;net=%p", r.contentKey(), r.Net)
}

// shapeSig fingerprints the network's layer structure (layer names and
// weight dimensions). It deliberately excludes the weight values — the
// content key's job is naming hardware-determining state, and Model is the
// caller's promise of weight identity — but structurally different networks
// sharing a Model string are always a caller bug, and the signature lets
// Deploy reject that aliasing instead of silently serving one network's
// deployment seed (and cache slot) for the other.
func (r Request) shapeSig() uint64 {
	h := fnv.New64a()
	var buf [8]byte
	word := func(v uint64) {
		for i := 0; i < 8; i++ {
			buf[i] = byte(v >> (8 * i))
		}
		h.Write(buf[:])
	}
	for _, spec := range r.Net.Linears() {
		h.Write([]byte(spec.Name))
		word(uint64(spec.W.Rows))
		word(uint64(spec.W.Cols))
	}
	return h.Sum64()
}

// checkShape reports a non-nil error if the request's content key was
// previously seen with a different layer-shape signature — the documented
// Request.Model cache-aliasing hazard, now detected instead of trusted.
// Callers must hold e.mu.
func (e *Engine) checkShape(contentKey string, sig uint64) error {
	prev, ok := e.shapes[contentKey]
	if !ok {
		e.shapes[contentKey] = sig
		return nil
	}
	if prev != sig {
		return fmt.Errorf(
			"engine: two structurally different networks share one deployment identity %q "+
				"(layer-shape signature %016x vs %016x); give each distinct model its own Request.Model",
			contentKey, prev, sig)
	}
	return nil
}

// Deployment is a cached handle on one deployed runner. Eval results are
// memoized per sequence set, so re-walking a grid point costs nothing.
type Deployment struct {
	eng *Engine

	// Key is the request's content key (diagnostics; also the cache key
	// modulo the model instance).
	Key string
	// Seed is the deployment seed derived from Key.
	Seed uint64
	// BuildTime is the wall-clock cost of the core.Deploy call that built
	// this deployment (zero for every cache hit that reuses it).
	BuildTime time.Duration

	runner *nn.Runner
	// layers are the runner's linear operators in the model's layer order,
	// gathered once when the deployment is built (its operators never
	// change after that): the counter and fault reads walk them instead of
	// rebuilding the model's layer list and looking each name up.
	layers []nn.LinearOp

	evalMu sync.Mutex
	evals  map[uint64]*evalEntry
}

type evalEntry struct {
	ready chan struct{}
	res   nn.EvalResult
	// err is non-nil when the builder's context was canceled before the
	// pass finished; the entry has then already been removed from the memo
	// (failed runs never poison it) and waiters retry as fresh builders.
	// Written before ready is closed, read only after it, so the channel
	// close orders the accesses.
	err error
}

// Deploy returns the cached deployment for req, building (and caching) it
// on a miss. Concurrent misses on the same key build once.
func (e *Engine) Deploy(req Request) *Deployment {
	key := req.cacheKey()
	sig := req.shapeSig()
	e.mu.Lock()
	if err := e.checkShape(req.contentKey(), sig); err != nil {
		e.mu.Unlock()
		panic(err)
	}
	if el, ok := e.entries[key]; ok {
		e.order.MoveToFront(el)
		entry := el.Value.(*cacheEntry)
		e.mu.Unlock()
		<-entry.ready
		if entry.dep == nil {
			// The builder we waited on panicked; its entry is already gone
			// from the cache. Re-raise the same failure here rather than
			// returning a nil deployment.
			panic(entry.failure)
		}
		e.stats.deployHits.Add(1)
		return entry.dep
	}
	entry := &cacheEntry{key: key, ready: make(chan struct{})}
	e.entries[key] = e.order.PushFront(entry)
	for e.order.Len() > e.cfg.CacheSize {
		oldest := e.order.Back()
		e.order.Remove(oldest)
		delete(e.entries, oldest.Value.(*cacheEntry).key)
		e.stats.evictions.Add(1)
	}
	e.mu.Unlock()

	// If the build below panics (core.Deploy invariants, bad Opt.Layers,
	// ...), waiters parked on entry.ready would otherwise block forever and
	// the dead entry would poison the cache for every later request on this
	// key. Unwind instead: remove the entry, record the failure for waiters,
	// close ready, and re-panic.
	defer func() {
		if entry.dep != nil {
			return
		}
		entry.failure = recover()
		e.mu.Lock()
		if el, ok := e.entries[key]; ok && el.Value.(*cacheEntry) == entry {
			e.order.Remove(el)
			delete(e.entries, key)
		}
		e.mu.Unlock()
		close(entry.ready)
		panic(entry.failure)
	}()

	start := time.Now()
	runner := core.Deploy(req.Net, req.Mode, req.Cal, req.Config, req.Seed(), req.Opt)
	build := time.Since(start)
	var layers []nn.LinearOp
	for _, spec := range runner.Model().Linears() {
		layers = append(layers, runner.Linear(spec.Name))
	}
	entry.dep = &Deployment{
		eng:       e,
		Key:       req.contentKey(),
		Seed:      req.Seed(),
		BuildTime: build,
		runner:    runner,
		layers:    layers,
		evals:     make(map[uint64]*evalEntry),
	}
	close(entry.ready)
	e.stats.deployBuilds.Add(1)
	e.stats.deployNanos.Add(build.Nanoseconds())
	return entry.dep
}

// Runner exposes the deployed runner for callers that need direct access
// (layer inspection, custom probes). Mutating its operators would poison
// the cache; treat it as read-only.
func (d *Deployment) Runner() *nn.Runner { return d.runner }

// Eval scores the sequence set on the engine's eval workers, memoizing per
// sequence set: repeated evaluation of the same deployment on the same
// sequences returns the recorded result without re-running the model.
// Results are bit-identical across worker counts and across cache
// hits/misses (see the package comment).
func (d *Deployment) Eval(sequences [][]int) nn.EvalResult {
	// A background context never cancels, so EvalCtx's error path is dead
	// and the result is bit-identical to the historical uncancellable Eval.
	res, _ := d.EvalCtx(context.Background(), sequences)
	return res
}

// EvalCtx is Eval with cooperative cancellation (nn.Runner.EvalCtx's
// contract: checked between sequences, partial-result-free error, bit-
// identical to Eval when ctx is never canceled). Cancellation never
// corrupts shared state:
//
//   - the memo only ever records completed results — a canceled pass is
//     removed before waiters can observe it, and the next caller for the
//     same sequences re-runs it from scratch;
//   - the aggregate counters (evals, sequences, tokens, eval time, analog
//     reads) are only advanced by completed passes, so a storm of canceled
//     requests leaves Stats exactly as if the storm never happened, except
//     for the EvalsCanceled diagnostic counter.
//
// A caller whose ctx is canceled while waiting on another caller's
// in-flight pass returns ctx.Err() immediately; the in-flight pass itself
// is unaffected (its owner may still want the result).
func (d *Deployment) EvalCtx(ctx context.Context, sequences [][]int) (nn.EvalResult, error) {
	key := hashSequences(sequences)
	for {
		d.evalMu.Lock()
		if entry, ok := d.evals[key]; ok {
			d.evalMu.Unlock()
			select {
			case <-entry.ready:
			case <-ctx.Done():
				d.eng.stats.evalCanceled.Add(1)
				return nn.EvalResult{}, ctx.Err()
			}
			if entry.err != nil {
				// The builder we were waiting on was canceled (and has
				// removed its entry); race to become the next builder.
				continue
			}
			d.eng.stats.evalHits.Add(1)
			return entry.res, nil
		}
		entry := &evalEntry{ready: make(chan struct{})}
		d.evals[key] = entry
		d.evalMu.Unlock()

		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		mallocs0 := ms.Mallocs
		before := d.opSnapshot()

		start := time.Now()
		res, err := d.runner.EvalCtx(ctx, sequences, d.eng.cfg.EvalWorkers)
		elapsed := time.Since(start)
		if err != nil {
			d.evalMu.Lock()
			delete(d.evals, key)
			d.evalMu.Unlock()
			entry.err = err
			close(entry.ready)
			d.eng.stats.evalCanceled.Add(1)
			return nn.EvalResult{}, err
		}
		entry.res = res
		close(entry.ready)

		runtime.ReadMemStats(&ms)

		after := d.opSnapshot()
		s := &d.eng.stats
		s.evalRuns.Add(1)
		s.evalNanos.Add(elapsed.Nanoseconds())
		s.sequences.Add(int64(res.Evaluated))
		s.skipped.Add(int64(res.Skipped))
		s.tokens.Add(res.Tokens)
		s.analogReads.Add(after.counters.MVMs - before.counters.MVMs)
		s.dacConvs.Add(after.counters.DACConvs - before.counters.DACConvs)
		s.adcConvs.Add(after.counters.ADCConvs - before.counters.ADCConvs)
		s.cellReads.Add(after.counters.CellReads - before.counters.CellReads)
		s.bmRetries.Add(after.counters.BMRetries - before.counters.BMRetries)
		s.analogRows.Add(after.rows - before.rows)
		s.digitalMACs.Add(after.macs - before.macs)
		s.mallocs.Add(int64(ms.Mallocs - mallocs0))
		return res, nil
	}
}

// opSnapshot is a consistent-enough view of a deployment's hardware-event
// counters: OpCounters, the digital-MAC-equivalent work, and the processed
// activation rows, summed across its analog layers.
type opSnapshot struct {
	counters analog.OpCounters
	macs     int64
	rows     int64
}

// opSnapshot reads the deployment's analog counters (all zero for digital
// deployments). Deltas around an eval measure the hardware events that eval
// issued.
func (d *Deployment) opSnapshot() opSnapshot {
	type costOp interface {
		CostCounters() analog.OpCounters
		DigitalEquivalentMACs() int64
		RowsProcessed() int64
	}
	var snap opSnapshot
	for _, l := range d.layers {
		if op, ok := l.(costOp); ok {
			snap.counters.Add(op.CostCounters())
			snap.macs += op.DigitalEquivalentMACs()
			snap.rows += op.RowsProcessed()
		}
	}
	return snap
}

// OpCounters aggregates the hardware-event counters across the deployment's
// analog layers (all zero for digital deployments). Counters reflect every
// eval pass actually run on this deployment — memoized eval hits re-run
// nothing and advance nothing — so a sole-user deployment (distinct salt)
// evaluated once holds exactly one eval pass of events.
func (d *Deployment) OpCounters() analog.OpCounters { return d.opSnapshot().counters }

// DigitalEquivalentMACs is the digital multiply-accumulate count equivalent
// to the analog work counted so far (rows × in × out per layer).
func (d *Deployment) DigitalEquivalentMACs() int64 { return d.opSnapshot().macs }

// AnalogRows is the activation-row count pushed through the deployment's
// analog layers so far.
func (d *Deployment) AnalogRows() int64 { return d.opSnapshot().rows }

// CostComparison prices the deployment's counted analog work under the
// engine's cost model, against the digital-MAC baseline for the same
// linear-layer workload.
func (d *Deployment) CostComparison() analog.CostComparison {
	snap := d.opSnapshot()
	return d.eng.cfg.CostModel.Compare(snap.counters, snap.macs, snap.rows)
}

// FaultStats aggregates programming-time device-fault and mitigation
// statistics across the deployment's analog layers (all zero for digital or
// fault-free deployments). The counts are fixed at programming time, so
// reading them never races with evaluation.
func (d *Deployment) FaultStats() analog.FaultStats {
	type faultOp interface{ FaultStats() analog.FaultStats }
	var total analog.FaultStats
	for _, l := range d.layers {
		if op, ok := l.(faultOp); ok {
			total.Add(op.FaultStats())
		}
	}
	return total
}

// RecordGenStep counts one continuous-batching generation step run on this
// deployment: batch is the number of decoding sequences the step advanced
// (= tokens produced), prefillTokens the prompt tokens consumed by prefill
// chunks riding the same step, elapsed its wall-clock, and reads the analog
// MVM delta the step issued (0 for digital deployments). Pure accounting —
// the serving layer calls it around each nn.BatchGenerator step so /statz
// and engine reports can show decode-batch occupancy and token/prefill
// throughput next to the eval counters.
func (d *Deployment) RecordGenStep(batch, prefillTokens int, elapsed time.Duration, reads int64) {
	s := &d.eng.stats
	s.genSteps.Add(1)
	s.genTokens.Add(int64(batch))
	s.genPrefillToks.Add(int64(prefillTokens))
	s.genNanos.Add(elapsed.Nanoseconds())
	s.genReads.Add(reads)
}

// EvalAccuracy is Eval reduced to the accuracy scalar.
func (d *Deployment) EvalAccuracy(sequences [][]int) float64 {
	return d.Eval(sequences).Accuracy()
}

// hashSequences fingerprints a sequence set (FNV-64a over lengths and
// token ids) for the per-deployment eval memo.
func hashSequences(sequences [][]int) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	word := func(v uint64) {
		for i := 0; i < 8; i++ {
			buf[i] = byte(v >> (8 * i))
		}
		h.Write(buf[:])
	}
	word(uint64(len(sequences)))
	for _, seq := range sequences {
		word(uint64(len(seq)))
		for _, tok := range seq {
			word(uint64(tok))
		}
	}
	return h.Sum64()
}

// statCounters are the engine's live atomic counters.
type statCounters struct {
	deployBuilds atomic.Int64
	deployHits   atomic.Int64
	evictions    atomic.Int64
	deployNanos  atomic.Int64

	evalRuns     atomic.Int64
	evalHits     atomic.Int64
	evalCanceled atomic.Int64
	evalNanos    atomic.Int64
	sequences    atomic.Int64
	skipped      atomic.Int64
	tokens       atomic.Int64
	analogReads  atomic.Int64
	analogRows   atomic.Int64
	dacConvs     atomic.Int64
	adcConvs     atomic.Int64
	cellReads    atomic.Int64
	bmRetries    atomic.Int64
	digitalMACs  atomic.Int64
	mallocs      atomic.Int64

	genSteps       atomic.Int64
	genTokens      atomic.Int64
	genPrefillToks atomic.Int64
	genNanos       atomic.Int64
	genReads       atomic.Int64
}

// Stats is a point-in-time snapshot of engine activity.
type Stats struct {
	DeployBuilds int64         // deployments actually built
	DeployHits   int64         // Deploy calls served from cache
	Evictions    int64         // cache entries dropped by the LRU bound
	DeployTime   time.Duration // cumulative core.Deploy wall-clock
	Evals        int64         // evaluation passes actually run to completion
	EvalHits     int64         // Eval calls served from the memo
	// EvalsCanceled counts EvalCtx calls that returned early on a canceled
	// context (while running or while waiting on another caller's pass).
	// Canceled passes advance no other counter: the memo and the aggregate
	// stats only ever reflect completed work.
	EvalsCanceled int64
	EvalTime      time.Duration // cumulative evaluation wall-clock
	Sequences     int64         // sequences scored (excluding skips)
	SkippedSeqs   int64         // sequences skipped as too short
	Tokens        int64         // context tokens forwarded during evals

	// AnalogReads counts analog tile MVM reads issued by evaluation runs
	// (per-operator hardware counter deltas around each eval; zero for
	// digital deployments).
	AnalogReads int64
	// AnalogRows counts activation rows pushed through analog layers by
	// evaluation runs — the unit the analog read path chunks.
	AnalogRows int64
	// Counters is the full analog hardware-event tally of completed
	// evaluation runs (Counters.MVMs == AnalogReads); DigitalMACs the
	// digital multiply-accumulate count equivalent to that analog work.
	Counters    analog.OpCounters
	DigitalMACs int64
	// Cost prices Counters/DigitalMACs under the engine's cost model: the
	// analog energy/latency estimate against the digital-MAC baseline.
	Cost analog.CostComparison
	// GenSteps counts continuous-batching generation steps recorded via
	// Deployment.RecordGenStep; GenTokens the tokens those steps produced
	// (one per decoding sequence per step), GenPrefillTokens the prompt
	// tokens consumed by prefill chunks riding those steps, GenTime their
	// cumulative wall-clock, and GenReads the analog MVM reads they issued.
	// The mean decode-batch occupancy is GenTokens/GenSteps
	// (Stats.GenMeanBatch).
	GenSteps         int64
	GenTokens        int64
	GenPrefillTokens int64
	GenTime          time.Duration
	GenReads         int64
	// Mallocs counts heap allocations during evaluation runs, measured as
	// runtime.MemStats.Mallocs deltas around each eval. The counter is
	// process-global, so concurrent non-eval work inflates it; treat it as
	// an upper bound that approaches exact on quiet single-eval runs.
	Mallocs int64
}

// Stats returns a consistent snapshot of the engine counters.
func (e *Engine) Stats() Stats {
	s := &e.stats
	counters := analog.OpCounters{
		MVMs:      s.analogReads.Load(),
		DACConvs:  s.dacConvs.Load(),
		ADCConvs:  s.adcConvs.Load(),
		CellReads: s.cellReads.Load(),
		BMRetries: s.bmRetries.Load(),
	}
	macs := s.digitalMACs.Load()
	rows := s.analogRows.Load()
	return Stats{
		DeployBuilds:     s.deployBuilds.Load(),
		DeployHits:       s.deployHits.Load(),
		Evictions:        s.evictions.Load(),
		DeployTime:       time.Duration(s.deployNanos.Load()),
		Evals:            s.evalRuns.Load(),
		EvalHits:         s.evalHits.Load(),
		EvalsCanceled:    s.evalCanceled.Load(),
		EvalTime:         time.Duration(s.evalNanos.Load()),
		Sequences:        s.sequences.Load(),
		SkippedSeqs:      s.skipped.Load(),
		Tokens:           s.tokens.Load(),
		AnalogReads:      counters.MVMs,
		AnalogRows:       rows,
		Counters:         counters,
		DigitalMACs:      macs,
		Cost:             e.cfg.CostModel.Compare(counters, macs, rows),
		GenSteps:         s.genSteps.Load(),
		GenTokens:        s.genTokens.Load(),
		GenPrefillTokens: s.genPrefillToks.Load(),
		GenTime:          time.Duration(s.genNanos.Load()),
		GenReads:         s.genReads.Load(),
		Mallocs:          s.mallocs.Load(),
	}
}

// TokensPerSecond is the aggregate evaluation throughput: context tokens
// forwarded per second of cumulative eval wall-clock (0 before any eval).
// Note the denominator sums per-eval wall-clock across concurrent evals,
// so this is a per-eval-pass rate, not a machine-wide one.
func (s Stats) TokensPerSecond() float64 {
	if s.EvalTime <= 0 {
		return 0
	}
	return float64(s.Tokens) / s.EvalTime.Seconds()
}

// ReadsPerSecond is the analog MVM read throughput over cumulative eval
// wall-clock (0 before any eval, and for all-digital runs).
func (s Stats) ReadsPerSecond() float64 {
	if s.EvalTime <= 0 {
		return 0
	}
	return float64(s.AnalogReads) / s.EvalTime.Seconds()
}

// RowsPerSecond is the analog activation-row throughput over cumulative
// eval wall-clock (0 before any eval, and for all-digital runs) — the
// headline number the sequence-batched read path moves.
func (s Stats) RowsPerSecond() float64 {
	if s.EvalTime <= 0 {
		return 0
	}
	return float64(s.AnalogRows) / s.EvalTime.Seconds()
}

// GenTokensPerSecond is the aggregate generation throughput: decoded tokens
// per second of cumulative decode-step wall-clock (0 before any generation).
func (s Stats) GenTokensPerSecond() float64 {
	if s.GenTime <= 0 {
		return 0
	}
	return float64(s.GenTokens) / s.GenTime.Seconds()
}

// GenPrefillTokensPerSecond is the aggregate chunked-prefill throughput:
// prompt tokens consumed per second of cumulative generation-step
// wall-clock (0 before any prefill chunk rode a step).
func (s Stats) GenPrefillTokensPerSecond() float64 {
	if s.GenTime <= 0 {
		return 0
	}
	return float64(s.GenPrefillTokens) / s.GenTime.Seconds()
}

// GenMeanBatch is the mean decode-batch occupancy across recorded decode
// steps — the continuous-batching figure of merit (1.0 means the scheduler
// never overlapped requests; 0 before any generation).
func (s Stats) GenMeanBatch() float64 {
	if s.GenSteps <= 0 {
		return 0
	}
	return float64(s.GenTokens) / float64(s.GenSteps)
}

// AllocsPerSequence is the average heap allocations per evaluated sequence
// (0 before any eval). See Stats.Mallocs for measurement caveats.
func (s Stats) AllocsPerSequence() float64 {
	if s.Sequences <= 0 {
		return 0
	}
	return float64(s.Mallocs) / float64(s.Sequences)
}

// String renders the snapshot as a compact single-block summary.
func (s Stats) String() string {
	gen := ""
	if s.GenSteps > 0 {
		gen = fmt.Sprintf(" | gen: steps=%d tokens=%d (%.0f tok/s) prefill=%d (%.0f tok/s) mean-batch=%.2f reads=%d",
			s.GenSteps, s.GenTokens, s.GenTokensPerSecond(), s.GenPrefillTokens, s.GenPrefillTokensPerSecond(), s.GenMeanBatch(), s.GenReads)
	}
	return fmt.Sprintf(
		"engine: deploys=%d hits=%d evictions=%d deploy-time=%s | "+
			"evals=%d eval-hits=%d eval-time=%s | seqs=%d skipped=%d tokens=%d (%.0f tok/s) | "+
			"reads=%d (%.0f reads/s) rows=%d (%.0f rows/s) | "+
			"allocs=%d (%.1f allocs/seq) | "+
			"cost: analog=%.1fuJ/%.1fms digital=%.1fuJ/%.1fms saving=%.1fx bm-retries=%d",
		s.DeployBuilds, s.DeployHits, s.Evictions, s.DeployTime.Round(time.Millisecond),
		s.Evals, s.EvalHits, s.EvalTime.Round(time.Millisecond),
		s.Sequences, s.SkippedSeqs, s.Tokens, s.TokensPerSecond(),
		s.AnalogReads, s.ReadsPerSecond(), s.AnalogRows, s.RowsPerSecond(),
		s.Mallocs, s.AllocsPerSequence(),
		s.Cost.Analog.EnergyPJ/1e6, s.Cost.Analog.LatencyNS/1e6,
		s.Cost.Digital.EnergyPJ/1e6, s.Cost.Digital.LatencyNS/1e6,
		s.Cost.EnergySaving, s.Counters.BMRetries) + gen
}
