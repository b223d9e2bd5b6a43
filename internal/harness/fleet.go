package harness

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"nora/internal/analog"
	"nora/internal/core"
	"nora/internal/engine"
	"nora/internal/fleet"
)

// --- E24: multi-chip fleet study ----------------------------------------
//
// The offline studies measure one chip. This study measures a deployment
// reality the fleet layer (internal/fleet) simulates: N replicas of one
// NORA deployment on heterogeneous chips — fresh silicon next to chips with
// growing stuck-at fault populations — behind a router. Two routing arms
// are compared at every (fleet size, worst-chip fault rate) point:
//
//	roundrobin  cycles through replicas, blind to health — the accuracy a
//	            user sees is the fleet average
//	health      scores replicas by in-flight load plus a health penalty
//	            (fleet.Pick), shifting traffic toward clean chips at the
//	            cost of queueing on them
//
// Accuracy is measured on real chip deployments (each chip's fault draw is
// content-keyed and independent; see the fleet package) and weighted by
// where the router actually sent traffic. Latency comes from a
// deterministic virtual-time queueing simulation (SimulateRouting) that
// routes through the same fleet.Pick function the live router uses, so the
// two arms differ only in policy — no randomness, bit-identical across
// runs.

// FleetServicePenalty inflates a replica's virtual service time per unit of
// health penalty: a faulty chip re-reads and re-checks more, so its
// requests hold the chip longer. Service = 1 + FleetServicePenalty·health
// virtual time units.
const FleetServicePenalty = 0.5

// DefaultFleetRequests is the virtual request count of the queueing
// simulation.
const DefaultFleetRequests = 2000

// DefaultFleetGap is the virtual arrival gap between requests. At service
// time 1 a single fresh chip saturates below gap 1; larger fleets drain the
// same arrival stream with slack.
const DefaultFleetGap = 0.6

// DefaultFleetSizes is the fleet-size ladder of the study.
func DefaultFleetSizes() []int { return []int{1, 2, 4, 8} }

// DefaultFleetRates is the worst-chip stuck-at fault-rate ladder (chips
// ramp linearly from fresh to the worst rate; see fleet.GradientChips).
func DefaultFleetRates() []float64 { return []float64{0, 0.02, 0.08} }

// SimReplica is one replica's profile in the queueing simulation.
type SimReplica struct {
	// Health is the routing health penalty (Replica.HealthScore).
	Health float64
	// Service is the virtual time one request occupies the replica.
	Service float64
}

// SimStats is the outcome of one SimulateRouting run.
type SimStats struct {
	// Served counts the requests routed to each replica.
	Served []int
	// MeanWait and MaxWait are queueing delays (time from arrival to
	// service start) in virtual time units.
	MeanWait float64
	MaxWait  float64
}

// Share returns the fraction of requests replica i served.
func (s SimStats) Share(i int) float64 {
	var total int
	for _, n := range s.Served {
		total += n
	}
	if total == 0 {
		return 0
	}
	return float64(s.Served[i]) / float64(total)
}

// SimulateRouting runs the deterministic virtual-time queueing simulation:
// requests arrive every gap time units, each is routed by fleet.Pick over
// the replicas' live (load, health) snapshots — exactly the live router's
// scoring — and occupies its replica FIFO for the replica's service time.
// A pure function of its arguments: no randomness, no wall clock.
func SimulateRouting(pol fleet.Policy, healthWeight float64, reps []SimReplica, requests int, gap float64) SimStats {
	type state struct {
		freeAt float64   // when the replica's FIFO drains
		done   []float64 // outstanding completion times, ascending
	}
	sts := make([]state, len(reps))
	stats := SimStats{Served: make([]int, len(reps))}
	cands := make([]fleet.Candidate, len(reps))
	var sumWait float64
	for k := 0; k < requests; k++ {
		t := float64(k) * gap
		for i := range reps {
			st := &sts[i]
			for len(st.done) > 0 && st.done[0] <= t {
				st.done = st.done[1:]
			}
			cands[i] = fleet.Candidate{
				Available: true,
				Load:      float64(len(st.done)),
				Health:    reps[i].Health,
			}
		}
		idx := fleet.Pick(pol, int64(k), healthWeight, cands)
		st := &sts[idx]
		start := t
		if st.freeAt > start {
			start = st.freeAt
		}
		compl := start + reps[idx].Service
		st.freeAt = compl
		st.done = append(st.done, compl)
		stats.Served[idx]++
		wait := start - t
		sumWait += wait
		if wait > stats.MaxWait {
			stats.MaxWait = wait
		}
	}
	if requests > 0 {
		stats.MeanWait = sumWait / float64(requests)
	}
	return stats
}

// FleetRow is one (model, fleet size, worst rate, policy) measurement.
type FleetRow struct {
	Model     string
	Chips     int
	WorstRate float64 // stuck-at rate of the most-faulty chip
	Policy    string
	Digital   float64
	Accuracy  float64 // served accuracy: per-replica accuracy weighted by routed share
	MeanWait  float64 // virtual-time queueing delay, mean
	MaxWait   float64 // virtual-time queueing delay, worst request
	WornShare float64 // share of traffic landing on chips with injected faults
}

// FleetSweep runs the E24 study: for every workload and (size, rate) point
// it builds the gradient fleet on real chip deployments, measures each
// replica's accuracy, and routes a fixed virtual request stream under both
// policies. Deployments are engine-cached and content-keyed per chip, so a
// chip that appears in several fleet sizes is programmed (and evaluated)
// exactly once.
func FleetSweep(eng *engine.Engine, ws []*Workload, base analog.Config, sizes []int, rates []float64, requests int, gap float64) []FleetRow {
	if requests <= 0 {
		requests = DefaultFleetRequests
	}
	if gap <= 0 {
		gap = DefaultFleetGap
	}
	var rows []FleetRow
	for _, w := range ws {
		prepareBaselines(eng, w)
		for _, size := range sizes {
			for _, rate := range rates {
				flt := fleet.New(eng, fleet.Config{Chips: fleet.GradientChips(size, rate)})
				grp := flt.Deploy(w.Request(core.DeployAnalogNORA, base, core.Options{}, ""))
				reps := grp.Replicas()
				accs := make([]float64, len(reps))
				profiles := make([]SimReplica, len(reps))
				for i, rep := range reps {
					res, err := rep.EvalCtx(context.Background(), w.Eval)
					if err != nil {
						panic(fmt.Sprintf("harness: fleet eval: %v", err)) // ctx is Background; cannot cancel
					}
					accs[i] = res.Accuracy()
					h := rep.HealthScore()
					profiles[i] = SimReplica{Health: h, Service: 1 + FleetServicePenalty*h}
				}
				for _, pol := range []fleet.Policy{fleet.RoundRobin, fleet.HealthAware} {
					stats := SimulateRouting(pol, fleet.DefaultHealthWeight, profiles, requests, gap)
					var acc, worn float64
					for i := range reps {
						share := stats.Share(i)
						acc += share * accs[i]
						if reps[i].Chips()[0].Spec.FaultRate > 0 {
							worn += share
						}
					}
					rows = append(rows, FleetRow{
						Model:     w.Spec.Display,
						Chips:     size,
						WorstRate: rate,
						Policy:    pol.String(),
						Digital:   w.DigitalAccuracy(eng),
						Accuracy:  acc,
						MeanWait:  stats.MeanWait,
						MaxWait:   stats.MaxWait,
						WornShare: worn,
					})
				}
			}
		}
	}
	return rows
}

// FleetTable renders fleet-sweep rows.
func FleetTable(rows []FleetRow) *Table {
	return TableOf("E24 — served accuracy & queueing delay vs fleet size × worst-chip fault rate",
		rows, []Col[FleetRow]{
			{"model", func(r FleetRow) any { return r.Model }},
			{"chips", func(r FleetRow) any { return r.Chips }},
			{"worst-rate", func(r FleetRow) any { return r.WorstRate }},
			{"policy", func(r FleetRow) any { return r.Policy }},
			{"digital", func(r FleetRow) any { return r.Digital }},
			{"served-acc", func(r FleetRow) any { return r.Accuracy }},
			{"mean-wait", func(r FleetRow) any { return r.MeanWait }},
			{"max-wait", func(r FleetRow) any { return r.MaxWait }},
			{"worn-share", func(r FleetRow) any { return r.WornShare }},
		})
}

// DrillRow is one step of a scripted fleet drill: what the fleet looked
// like after it.
type DrillRow struct {
	Model     string
	Chips     int
	WorstRate float64
	Drill     string // "failure" or "rolling"
	Step      string
	Outcome   string
}

// FleetDrills scripts the two fleet drills on a health-aware gradient fleet
// of the given size and worst-chip rate, each on a fleet of its own:
//
//	failure  route traffic, fail the busiest chip, route again (the
//	         survivors take it), restore the chip, route again
//	rolling  re-program every chip in turn (fresh fault draws) and compare
//	         the replicas' health before and after
//
// Traffic goes through Group.Acquire, the path serving requests take, one
// request at a time, so every tally is deterministic.
func FleetDrills(eng *engine.Engine, w *Workload, base analog.Config, size int, rate float64) ([]DrillRow, error) {
	req := w.Request(core.DeployAnalogNORA, base, core.Options{}, "")
	cfg := fleet.Config{Chips: fleet.GradientChips(size, rate), Policy: fleet.HealthAware}
	var rows []DrillRow
	add := func(drill, step, outcome string) {
		rows = append(rows, DrillRow{w.Spec.Display, size, rate, drill, step, outcome})
	}

	flt := fleet.New(eng, cfg)
	grp := flt.Deploy(req)
	before, err := fireDrill(grp, 24)
	if err != nil {
		return nil, err
	}
	target, busiest := "", -1
	for _, id := range sortedKeys(before) {
		if before[id] > busiest {
			target, busiest = id, before[id]
		}
	}
	add("failure", "baseline traffic", fmtServed(before))
	if err := flt.Fail(target); err != nil {
		return nil, err
	}
	after, ferr := fireDrill(grp, 24)
	outcome := fmtServed(after)
	if ferr != nil {
		outcome += fmt.Sprintf(" (fleet exhausted: %v)", ferr)
	}
	add("failure", "after failing "+chipName(target), outcome)
	if err := flt.Restore(target); err != nil {
		return nil, err
	}
	restored, err := fireDrill(grp, 24)
	if err != nil {
		return nil, err
	}
	add("failure", "after restore", fmtServed(restored))

	flt = fleet.New(eng, cfg)
	grp = flt.Deploy(req)
	add("rolling", "health before", fmtHealth(grp))
	if err := flt.RollingReprogram(context.Background()); err != nil {
		return nil, err
	}
	add("rolling", "health after", fmtHealth(grp))
	for _, c := range flt.Chips() {
		add("rolling", chipName(c.Spec.ID), fmt.Sprintf("state %s, reprogrammed %d time(s)", c.State(), c.Reprograms()))
	}
	return rows, nil
}

// DrillTable renders fleet-drill rows.
func DrillTable(rows []DrillRow) *Table {
	return TableOf("E24 — failure and rolling-reprogram drills (health-aware routing)",
		rows, []Col[DrillRow]{
			{"model", func(r DrillRow) any { return r.Model }},
			{"chips", func(r DrillRow) any { return r.Chips }},
			{"worst-rate", func(r DrillRow) any { return r.WorstRate }},
			{"drill", func(r DrillRow) any { return r.Drill }},
			{"step", func(r DrillRow) any { return r.Step }},
			{"outcome", func(r DrillRow) any { return r.Outcome }},
		})
}

// chipName renders a chip ID; "" is the implicit fresh chip.
func chipName(id string) string {
	if id == "" {
		return "chip0"
	}
	return id
}

// fireDrill routes n requests through the group one at a time and tallies
// which chips (by ID) carried them.
func fireDrill(grp *fleet.Group, n int) (map[string]int, error) {
	served := make(map[string]int)
	for i := 0; i < n; i++ {
		rep, release, err := grp.Acquire()
		if err != nil {
			return served, err
		}
		for _, c := range rep.Chips() {
			served[c.Spec.ID]++
		}
		release()
	}
	return served, nil
}

func sortedKeys(m map[string]int) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// fmtServed renders a traffic tally in chip order.
func fmtServed(served map[string]int) string {
	parts := make([]string, 0, len(served))
	for _, id := range sortedKeys(served) {
		parts = append(parts, fmt.Sprintf("%s=%d", chipName(id), served[id]))
	}
	return strings.Join(parts, " ")
}

// fmtHealth renders each replica's health penalty.
func fmtHealth(grp *fleet.Group) string {
	var parts []string
	for _, rep := range grp.Replicas() {
		parts = append(parts, fmt.Sprintf("r%d=%.4f", rep.Index, rep.HealthScore()))
	}
	return strings.Join(parts, " ")
}
