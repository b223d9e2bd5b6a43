// Package fleet is the multi-chip deployment layer over the experiment
// engine: a simulated N-chip fleet where every chip hosts one replica of
// each logical deployment under its own fault/drift/G_max realization
// (aged next to fresh, different fault rates), and a router picks a
// replica per request by health and in-flight load.
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

// HealthWeight converts a replica's health penalty (a small fault
// fraction) into the units of the load term (in-flight requests): a
// one-percent residual-error fraction outweighs one queued request.
const HealthWeight = 100

// Config assembles a fleet. The zero value is the implicit single-chip
// fleet: one fresh chip with an empty ID, bit-identical to fleet-unaware
// deployment.
type Config struct {
	// Chips lists the fleet's chips; replica i of every deployment lives
	// on chip i. Empty selects one implicit chip (zero ChipSpec).
	Chips []ChipSpec
	// Policy selects the routing policy. The zero value is RoundRobin;
	// production callers generally want HealthAware (ParsePolicy's
	// empty-string default).
	Policy Policy
}

// Fleet owns the chips and the deployed groups. Safe for concurrent use.
type Fleet struct {
	eng    *engine.Engine
	policy Policy
	chips  []*Chip

	mu     sync.Mutex
	groups map[string]*Group
}

// New assembles a fleet over eng. An implicit chip (empty ID) must carry no
// overlays — it is the promise that a 1-chip fleet keys identically to the
// legacy single-chip path — and chip IDs must be unique.
func New(eng *engine.Engine, cfg Config) *Fleet {
	specs := cfg.Chips
	if len(specs) == 0 {
		specs = []ChipSpec{{}}
	}
	seen := make(map[string]bool, len(specs))
	chips := make([]*Chip, len(specs))
	for i, spec := range specs {
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
		policy: cfg.Policy,
		chips:  chips,
		groups: make(map[string]*Group),
	}
}

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

// Deploy builds (or returns the cached) replica group for req: one replica
// per chip, each realizing the chip's own fault/drift/G_max draws via its
// keyed engine deployment. Panics propagate from engine.Deploy (shape-guard
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
	g := &Group{policy: f.policy}
	for i, chip := range f.chips {
		g.replicas = append(g.replicas, f.buildReplica(i, req, chip))
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

// buildReplica programs replica idx onto chip. Digital deployments have no
// chip-specific hardware state, so every digital replica shares the one
// digital deployment. An analog replica's request carries the chip ID,
// which extends the content key (an independent rng universe), and the
// spec's overlays on the analog config; the implicit chip derives req
// itself, byte-identical.
func (f *Fleet) buildReplica(idx int, req engine.Request, chip *Chip) *Replica {
	if req.Mode != core.DeployDigital {
		req.Chip = chip.Spec.ID
		req.Config = chip.Spec.Apply(req.Config)
	}
	dep := f.eng.Deploy(req)
	return &Replica{Index: idx, chip: chip, req: req, dep: dep, health: healthOf(dep)}
}

// healthOf derives the replica health penalty from its deployment's fault
// statistics: residual (post-mitigation) error dominates, raw stuck
// fraction breaks ties. 0 is perfectly healthy; typical faulty chips score
// small fractions — HealthWeight converts them into load units.
func healthOf(dep *engine.Deployment) float64 {
	fs := dep.FaultStats()
	return float64(8*fs.UnfixedFraction()) + fs.StuckFraction()
}

// ErrNoReplica is returned by Acquire when every chip is out of service.
var ErrNoReplica = errors.New("fleet: no replica available (all chips draining or down)")

// Group is the fleet-level handle on one logical deployment: the replicas
// plus the router state.
type Group struct {
	policy   Policy
	replicas []*Replica
	rr       atomic.Int64
}

// Replicas returns the group's replicas in chip order.
func (g *Group) Replicas() []*Replica { return g.replicas }

// Acquire routes one request: picks a replica under the fleet's policy
// (router.go), charges the in-flight load to it and its chip, and returns
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
	idx := Pick(g.policy, g.rr.Add(1)-1, cands)
	if idx < 0 {
		return nil, nil, ErrNoReplica
	}
	rep := g.replicas[idx]
	rep.acquire()
	var once sync.Once
	return rep, func() { once.Do(rep.release) }, nil
}

// Replica is one copy of a deployment living on one chip. dep and health
// are swapped together (under mu) when the chip is re-programmed; the
// routing counter is an independent atomic.
type Replica struct {
	Index int

	chip *Chip
	req  engine.Request // build template; re-programming re-derives from it

	mu     sync.RWMutex
	dep    *engine.Deployment
	health float64

	inflight atomic.Int64
}

// Chip returns the chip hosting this replica.
func (r *Replica) Chip() *Chip { return r.chip }

// ChipID returns the chip ID keying the replica's deployment: "" for the
// implicit chip and for digital replicas, which have no chip-specific
// hardware state.
func (r *Replica) ChipID() string { return r.req.Chip }

// Available reports whether the hosting chip is up.
func (r *Replica) Available() bool { return r.chip.State() == ChipUp }

// Inflight returns the requests currently charged to the replica.
func (r *Replica) Inflight() int64 { return r.inflight.Load() }

// HealthScore is the replica's current health penalty (0 = perfectly
// healthy; see healthOf). Recomputed whenever the chip re-programs.
func (r *Replica) HealthScore() float64 {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.health
}

// Dep returns the replica's current deployment (shared by every replica
// for digital deployments).
func (r *Replica) Dep() *engine.Deployment {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.dep
}

// Runner returns the replica's current deployed runner. Treat as
// read-only.
func (r *Replica) Runner() *nn.Runner { return r.Dep().Runner() }

// OpCounters returns the hardware-event counters of the replica's current
// deployment.
func (r *Replica) OpCounters() analog.OpCounters { return r.Dep().OpCounters() }

// EvalCtx evaluates the sequence set on the replica's current deployment,
// through its memoized EvalCtx (bit-identical to the offline path).
func (r *Replica) EvalCtx(ctx context.Context, sequences [][]int) (nn.EvalResult, error) {
	return r.Dep().EvalCtx(ctx, sequences)
}

// acquire charges one in-flight request to the replica and its chip.
func (r *Replica) acquire() {
	r.inflight.Add(1)
	r.chip.inflight.Add(1)
	r.chip.served.Add(1)
}

// release undoes acquire.
func (r *Replica) release() {
	r.inflight.Add(-1)
	r.chip.inflight.Add(-1)
}
