// Package fleet is the multi-chip deployment layer over the experiment
// engine: a simulated N-chip fleet where a model's layers are sharded
// across chips with independent fault/drift/G_max realizations, replicas of
// one logical deployment live on heterogeneous chips (aged next to fresh,
// different fault rates), and a router picks a replica per request by
// health and in-flight load.
//
// Determinism contract: each chip's hardware state is keyed by extending
// the engine content key with the chip ID (engine.Request.Chip), so a
// chip's fault realization is a pure function of (request, chip ID) —
// adding or removing chips from a fleet never perturbs any other chip's
// fingerprint. The implicit chip (empty ID, no config overlays) keys
// byte-identically to the historical single-chip deployment: a 1-chip
// fleet serves the exact Deployment pointer (and therefore bit-identical
// results) the engine would hand a fleet-unaware caller.
package fleet

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"nora/internal/analog"
	"nora/internal/core"
	"nora/internal/engine"
	"nora/internal/nn"
)

// ChipState is the lifecycle state of one simulated chip.
type ChipState int32

const (
	// ChipUp serves traffic.
	ChipUp ChipState = iota
	// ChipDraining accepts no new requests; in-flight work completes.
	ChipDraining
	// ChipDown serves nothing (failed, or re-programming).
	ChipDown
)

// String renders the state for /statz and logs.
func (s ChipState) String() string {
	switch s {
	case ChipUp:
		return "up"
	case ChipDraining:
		return "draining"
	case ChipDown:
		return "down"
	default:
		return fmt.Sprintf("state(%d)", int32(s))
	}
}

// ChipSpec describes one simulated chip's individuality: its identity (the
// rng-split label via engine.Request.Chip) and the device-health overlays
// applied on top of a deployment's base analog config. Zero overlay fields
// inherit the base config, so the zero ChipSpec is the implicit fresh chip
// every pre-fleet deployment ran on.
type ChipSpec struct {
	// ID names the chip inside content keys. Empty is the implicit
	// legacy chip; it must carry no overlays.
	ID string
	// FaultRate overrides the per-device stuck-at probability when > 0.
	FaultRate float32
	// FaultSA1Frac overrides the stuck-at-G_max fraction when > 0.
	FaultSA1Frac float32
	// DriftT overrides the seconds-since-programming age when > 0
	// (an aged chip next to fresh replicas).
	DriftT float64
	// GMaxStd overrides the chip-to-chip G_max spread when > 0.
	GMaxStd float32
}

// Apply overlays the spec's non-zero fields onto base.
func (s ChipSpec) Apply(base analog.Config) analog.Config {
	if s.FaultRate > 0 {
		base.FaultRate = s.FaultRate
	}
	if s.FaultSA1Frac > 0 {
		base.FaultSA1Frac = s.FaultSA1Frac
	}
	if s.DriftT > 0 {
		base.DriftT = s.DriftT
	}
	if s.GMaxStd > 0 {
		base.GMaxStd = s.GMaxStd
	}
	return base
}

// GradientChips builds the canonical n-chip heterogeneous fleet shared by
// nora-serve and experiment E24: chip 0 is the implicit fresh
// chip (so a 1-chip fleet stays bit-identical to single-chip deployment)
// and later chips ramp their stuck-at fault rate linearly up to worst, with
// the robustness study's even SA1 split.
func GradientChips(n int, worst float64) []ChipSpec {
	chips := make([]ChipSpec, n)
	for i := 1; i < n; i++ {
		chips[i] = ChipSpec{ID: fmt.Sprintf("chip%d", i)}
		if worst > 0 {
			chips[i].FaultRate = float32(worst * float64(i) / float64(n-1))
			chips[i].FaultSA1Frac = 0.5
		}
	}
	return chips
}

// Chip is one live simulated chip: its spec plus routing state. All fields
// are safe for concurrent use.
type Chip struct {
	Spec ChipSpec

	state      atomic.Int32
	inflight   atomic.Int64
	served     atomic.Int64
	reprograms atomic.Int64
}

// State returns the chip's current lifecycle state.
func (c *Chip) State() ChipState { return ChipState(c.state.Load()) }

// Inflight returns the requests currently executing on the chip.
func (c *Chip) Inflight() int64 { return c.inflight.Load() }

// Served returns the requests routed to the chip so far.
func (c *Chip) Served() int64 { return c.served.Load() }

// Reprograms returns how many re-programming cycles the chip has been
// through.
func (c *Chip) Reprograms() int64 { return c.reprograms.Load() }

// Policy selects how the router picks a replica (see router.go).
type Policy int

const (
	// RoundRobin cycles through available replicas, blind to health.
	RoundRobin Policy = iota
	// HealthAware scores replicas by in-flight load plus a health
	// penalty derived from their FaultStats.
	HealthAware
)

// String renders the policy (the -policy flag values).
func (p Policy) String() string {
	if p == HealthAware {
		return "health"
	}
	return "roundrobin"
}

// ParsePolicy maps the flag/wire names onto a Policy.
func ParsePolicy(s string) (Policy, error) {
	switch s {
	case "roundrobin", "rr", "round-robin":
		return RoundRobin, nil
	case "health", "health-aware", "":
		return HealthAware, nil
	default:
		return 0, fmt.Errorf("fleet: unknown routing policy %q (want roundrobin or health)", s)
	}
}

// DefaultHealthWeight converts a replica's health penalty (a small fault
// fraction) into the units of the load term (in-flight requests): at the
// default, a one-percent residual-error fraction outweighs one queued
// request.
const DefaultHealthWeight = 100

// Config assembles a fleet. The zero value is the implicit single-chip
// fleet: one fresh chip with an empty ID, one replica, bit-identical to
// fleet-unaware deployment.
type Config struct {
	// Chips lists the fleet's chips. Empty selects one implicit chip
	// (zero ChipSpec).
	Chips []ChipSpec
	// Replicas is the number of replicas per deployment. <= 0 selects
	// one replica per ShardWidth chips (every chip hosts exactly one
	// shard of one replica).
	Replicas int
	// ShardWidth is the number of chips one replica's layers are sharded
	// across (round-robin by layer). <= 0 selects 1 (unsharded).
	ShardWidth int
	// Policy selects the routing policy. The zero value is RoundRobin;
	// production callers generally want HealthAware (ParsePolicy's
	// empty-string default).
	Policy Policy
	// HealthWeight scales the health penalty against the in-flight load
	// term. <= 0 selects DefaultHealthWeight.
	HealthWeight float64
}

func (c Config) withDefaults() Config {
	if len(c.Chips) == 0 {
		c.Chips = []ChipSpec{{}}
	}
	if c.ShardWidth <= 0 {
		c.ShardWidth = 1
	}
	if c.ShardWidth > len(c.Chips) {
		c.ShardWidth = len(c.Chips)
	}
	if c.Replicas <= 0 {
		c.Replicas = len(c.Chips) / c.ShardWidth
		if c.Replicas < 1 {
			c.Replicas = 1
		}
	}
	if c.HealthWeight <= 0 {
		c.HealthWeight = DefaultHealthWeight
	}
	return c
}

// Fleet owns the chips and the deployed groups. Safe for concurrent use.
type Fleet struct {
	eng   *engine.Engine
	cfg   Config
	chips []*Chip

	mu     sync.Mutex
	groups map[string]*Group
}

// New assembles a fleet over eng. An implicit chip (empty ID) must carry no
// overlays — it is the promise that a 1-chip fleet keys identically to the
// legacy single-chip path — and chip IDs must be unique.
func New(eng *engine.Engine, cfg Config) *Fleet {
	cfg = cfg.withDefaults()
	seen := make(map[string]bool, len(cfg.Chips))
	chips := make([]*Chip, len(cfg.Chips))
	for i, spec := range cfg.Chips {
		if spec.ID == "" && spec != (ChipSpec{}) {
			panic(fmt.Sprintf("fleet: chip %d has config overlays but no ID; name it so its hardware state keys apart", i))
		}
		if seen[spec.ID] {
			panic(fmt.Sprintf("fleet: duplicate chip ID %q", spec.ID))
		}
		seen[spec.ID] = true
		chips[i] = &Chip{Spec: spec}
	}
	return &Fleet{
		eng:    eng,
		cfg:    cfg,
		chips:  chips,
		groups: make(map[string]*Group),
	}
}

// Engine returns the underlying deployment engine.
func (f *Fleet) Engine() *engine.Engine { return f.eng }

// Config returns the fleet's resolved (defaulted) configuration.
func (f *Fleet) Config() Config { return f.cfg }

// Chips returns the fleet's chips in configuration order.
func (f *Fleet) Chips() []*Chip { return f.chips }

// Chip returns the chip with the given ID, or nil.
func (f *Fleet) Chip(id string) *Chip {
	for _, c := range f.chips {
		if c.Spec.ID == id {
			return c
		}
	}
	return nil
}

// Deploy builds (or returns the cached) replica group for req: Replicas
// replicas, each sharding the model's layers across ShardWidth chips, every
// chip realizing its own independent fault/drift/G_max draws via its keyed
// engine deployment. Panics propagate from engine.Deploy (shape-guard
// aliasing, invalid options); serving layers must recover them into error
// responses.
func (f *Fleet) Deploy(req engine.Request) *Group {
	key := fmt.Sprintf("%s/%s/%016x", req.Model, req.Mode, req.Seed())
	f.mu.Lock()
	if g, ok := f.groups[key]; ok {
		f.mu.Unlock()
		return g
	}
	f.mu.Unlock()

	// Build outside the fleet lock: engine.Deploy coalesces concurrent
	// builds per chip key, and a panic must not leave f.mu held.
	g := &Group{fleet: f, req: req}
	n := len(f.chips)
	for i := 0; i < f.cfg.Replicas; i++ {
		chips := make([]*Chip, 0, f.cfg.ShardWidth)
		for k := 0; k < f.cfg.ShardWidth; k++ {
			chips = append(chips, f.chips[(i*f.cfg.ShardWidth+k)%n])
		}
		g.replicas = append(g.replicas, f.buildReplica(i, req, chips))
	}

	f.mu.Lock()
	defer f.mu.Unlock()
	if prev, ok := f.groups[key]; ok {
		return prev // lost a build race; the first group wins
	}
	f.groups[key] = g
	return g
}

// Groups returns a snapshot of the deployed groups, keyed
// "<model>/<mode>/<seed>".
func (f *Fleet) Groups() map[string]*Group {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make(map[string]*Group, len(f.groups))
	for k, g := range f.groups {
		out[k] = g
	}
	return out
}

// chipRequest derives the engine request programming one chip: the chip ID
// extends the content key (independent rng universe) and the spec overlays
// the analog config. The implicit chip derives req itself, byte-identical.
func chipRequest(req engine.Request, spec ChipSpec, layers []string) engine.Request {
	cr := req
	cr.Chip = spec.ID
	cr.Config = spec.Apply(req.Config)
	if layers != nil {
		cr.Opt.Layers = layers
	}
	return cr
}

// buildReplica programs replica idx onto its chips. Digital deployments
// have no chip-specific hardware state, so every replica shares the one
// digital deployment; analog replicas get one keyed deployment per chip.
// With ShardWidth > 1 the model's analog layers are partitioned round-robin
// across the replica's chips and stitched back into one composite runner.
func (f *Fleet) buildReplica(idx int, req engine.Request, chips []*Chip) *Replica {
	r := &Replica{Index: idx, fleet: f, chips: chips}
	switch {
	case req.Mode == core.DeployDigital:
		r.reqs = []engine.Request{req}
		dep := f.eng.Deploy(req)
		r.deps = []*engine.Deployment{dep}
		r.runner = dep.Runner()
	case len(chips) == 1:
		cr := chipRequest(req, chips[0].Spec, nil)
		r.reqs = []engine.Request{cr}
		dep := f.eng.Deploy(cr)
		r.deps = []*engine.Deployment{dep}
		r.runner = dep.Runner()
	default:
		shards := shardLayers(req, len(chips))
		r.reqs = make([]engine.Request, len(chips))
		r.deps = make([]*engine.Deployment, len(chips))
		for k, chip := range chips {
			r.reqs[k] = chipRequest(req, chip.Spec, shards[k])
			r.deps[k] = f.eng.Deploy(r.reqs[k])
		}
		r.runner = compositeRunner(req.Net, r.reqs, r.deps)
	}
	r.health = healthOf(r.deps)
	return r
}

// shardLayers partitions the deployment's analog layer set round-robin
// across width chips. An existing Opt.Layers restriction is partitioned;
// otherwise every linear layer of the network is.
func shardLayers(req engine.Request, width int) [][]string {
	var names []string
	if len(req.Opt.Layers) > 0 {
		names = req.Opt.Layers
	} else {
		for _, spec := range req.Net.Linears() {
			names = append(names, spec.Name)
		}
	}
	shards := make([][]string, width)
	for i, name := range names {
		shards[i%width] = append(shards[i%width], name)
	}
	return shards
}

// compositeRunner stitches per-chip deployments back into one runner: each
// shard's analog operators are taken from the chip that programmed them;
// layers no chip mapped stay digital.
func compositeRunner(net *nn.Model, reqs []engine.Request, deps []*engine.Deployment) *nn.Runner {
	runner := nn.NewRunner(net)
	for k, dep := range deps {
		for _, name := range reqs[k].Opt.Layers {
			runner.SetLinear(name, dep.Runner().Linear(name))
		}
	}
	return runner
}

// healthOf derives the replica health penalty from its deployments' fault
// statistics: residual (post-mitigation) error dominates, raw stuck
// fraction breaks ties. 0 is perfectly healthy; typical faulty chips score
// small fractions — Config.HealthWeight converts them into load units.
func healthOf(deps []*engine.Deployment) float64 {
	var fs analog.FaultStats
	for _, dep := range deps {
		fs.Add(dep.FaultStats())
	}
	return 8*fs.UnfixedFraction() + fs.StuckFraction()
}

// ErrNoReplica is returned by Acquire when every replica has at least one
// chip out of service.
var ErrNoReplica = errors.New("fleet: no replica available (all chips draining or down)")

// Group is the fleet-level handle on one logical deployment: the replicas
// plus the router state.
type Group struct {
	fleet    *Fleet
	req      engine.Request
	replicas []*Replica
	rr       atomic.Int64
}

// Replicas returns the group's replicas in index order.
func (g *Group) Replicas() []*Replica { return g.replicas }

// Acquire routes one request: picks a replica under the fleet's policy
// (router.go), charges the in-flight load to it and its chips, and returns
// it with an idempotent release. Callers must call release when the request
// finishes (success or not).
func (g *Group) Acquire() (*Replica, func(), error) {
	cands := make([]Candidate, len(g.replicas))
	for i, r := range g.replicas {
		cands[i] = Candidate{
			Available: r.Available(),
			Load:      float64(r.inflight.Load()),
			Health:    r.HealthScore(),
		}
	}
	idx := Pick(g.fleet.cfg.Policy, g.rr.Add(1)-1, g.fleet.cfg.HealthWeight, cands)
	if idx < 0 {
		return nil, nil, ErrNoReplica
	}
	rep := g.replicas[idx]
	rep.acquire()
	var once sync.Once
	return rep, func() { once.Do(rep.release) }, nil
}

// Replica is one copy of a deployment living on one or more chips. deps and
// runner are swapped atomically (under mu) when a chip is re-programmed;
// the routing counters are independent atomics.
type Replica struct {
	Index int

	fleet *Fleet
	chips []*Chip

	mu     sync.RWMutex
	reqs   []engine.Request // per-chip build templates (reprogramming re-derives from these)
	deps   []*engine.Deployment
	runner *nn.Runner
	health float64

	inflight atomic.Int64
	served   atomic.Int64
}

// Chips returns the chips hosting this replica.
func (r *Replica) Chips() []*Chip { return r.chips }

// Available reports whether every hosting chip is up.
func (r *Replica) Available() bool {
	for _, c := range r.chips {
		if c.State() != ChipUp {
			return false
		}
	}
	return true
}

// Inflight returns the requests currently charged to the replica.
func (r *Replica) Inflight() int64 { return r.inflight.Load() }

// Served returns the requests routed to the replica so far.
func (r *Replica) Served() int64 { return r.served.Load() }

// HealthScore is the replica's current health penalty (0 = perfectly
// healthy; see healthOf). Recomputed whenever a hosting chip re-programs.
func (r *Replica) HealthScore() float64 {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.health
}

// Runner returns the replica's current runner (the single chip's deployed
// runner, or the sharded composite). Treat as read-only.
func (r *Replica) Runner() *nn.Runner {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.runner
}

// Deployments returns the replica's current per-chip deployments, aligned
// with Chips() (a single shared deployment for digital replicas).
func (r *Replica) Deployments() []*engine.Deployment {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]*engine.Deployment, len(r.deps))
	copy(out, r.deps)
	return out
}

// ChipIDs returns the chip ID keying each entry of Deployments(), in the
// same order ("" for the implicit chip and for digital deployments, which
// have no chip-specific hardware state).
func (r *Replica) ChipIDs() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	ids := make([]string, len(r.reqs))
	for i, rq := range r.reqs {
		ids[i] = rq.Chip
	}
	return ids
}

// Dep returns the replica's first deployment — the whole deployment for
// unsharded replicas, and the stats anchor for sharded ones.
func (r *Replica) Dep() *engine.Deployment {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.deps[0]
}

// FaultStats aggregates fault statistics across the replica's deployments.
func (r *Replica) FaultStats() analog.FaultStats {
	var total analog.FaultStats
	for _, dep := range r.Deployments() {
		total.Add(dep.FaultStats())
	}
	return total
}

// OpCounters aggregates hardware-event counters across the replica's
// deployments.
func (r *Replica) OpCounters() analog.OpCounters {
	var total analog.OpCounters
	for _, dep := range r.Deployments() {
		total.Add(dep.OpCounters())
	}
	return total
}

// RecordGenStep forwards generation-step accounting to the engine (via the
// replica's anchor deployment).
func (r *Replica) RecordGenStep(batch, prefillTokens int, elapsed time.Duration, reads int64) {
	r.Dep().RecordGenStep(batch, prefillTokens, elapsed, reads)
}

// EvalCtx evaluates the sequence set on the replica. Unsharded replicas
// ride the deployment's memoized EvalCtx (bit-identical to the offline
// path); sharded composites evaluate through the stitched runner (same
// determinism contract, no memoization across calls).
func (r *Replica) EvalCtx(ctx context.Context, sequences [][]int) (nn.EvalResult, error) {
	r.mu.RLock()
	single := len(r.deps) == 1
	dep := r.deps[0]
	runner := r.runner
	r.mu.RUnlock()
	if single {
		return dep.EvalCtx(ctx, sequences)
	}
	return runner.EvalCtx(ctx, sequences, r.fleet.eng.EvalWorkers())
}

// acquire charges one in-flight request to the replica and its chips.
func (r *Replica) acquire() {
	r.inflight.Add(1)
	r.served.Add(1)
	for _, c := range r.chips {
		c.inflight.Add(1)
		c.served.Add(1)
	}
}

// release undoes acquire.
func (r *Replica) release() {
	r.inflight.Add(-1)
	for _, c := range r.chips {
		c.inflight.Add(-1)
	}
}
