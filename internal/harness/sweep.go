package harness

import (
	"math"

	"nora/internal/analog"
	"nora/internal/core"
	"nora/internal/engine"
)

// This file is the generic sweep/arm framework every experiment runs on:
// a Sweep names an axis of points and a set of deployment arms, Run
// flattens workloads × points × arms into one engine.RunGrid call, and the
// resulting Grid holds one uniform Cell (accuracy, fault stats, cost
// sample) per coordinate. Because every cell is a pure function of its
// arm's engine.Request — the engine's determinism contract — results are
// bit-identical for any worker count and any arm ordering, and identical
// requests issued by different sweeps still coalesce in the deployment
// cache.

// Arm names one deployment variant measured at every sweep point. Request
// must be a pure function of (workload, point): it is invoked inside grid
// workers and its content key alone determines the cell's value.
type Arm[P any] struct {
	Name    string
	Request func(w *Workload, p P) engine.Request
}

// CostSample is a deployment's hardware-event tally at collection time.
// Only meaningful for sole-user deployments (distinct salt): the counters
// then reflect exactly one eval pass over the workload's eval split.
type CostSample struct {
	Counters analog.OpCounters
	MACs     int64 // digital multiply-accumulate equivalent of the analog work
	Rows     int64 // activation rows pushed through the analog layers
}

// Compare prices the sample under a cost model (analog estimate vs the
// digital-MAC baseline).
func (cs CostSample) Compare(cm analog.CostModel) analog.CostComparison {
	return cm.Compare(cs.Counters, cs.MACs, cs.Rows)
}

// Cell is the uniform measurement of one (workload, point, arm) grid cell.
// Faults and Cost are populated only when the sweep opts in.
type Cell struct {
	Accuracy float64
	Faults   analog.FaultStats
	Cost     CostSample
}

// Sweep is one experiment shape: an axis of points crossed with named
// deployment arms, run over a workload set.
type Sweep[P any] struct {
	// Points is the sweep axis (noise levels, fault rates, tile configs, …).
	Points []P
	// Arms are the deployment variants measured at every point.
	Arms []Arm[P]
	// Prepare, when set, runs serially per workload before the grid —
	// typically to pre-compute the digital baseline and calibration outside
	// the timed/parallel region.
	Prepare func(eng *engine.Engine, w *Workload)
	// Faults collects each deployment's programming-time fault statistics
	// into the cells.
	Faults bool
	// Cost collects each deployment's hardware-event counters into the
	// cells. Arms should salt their requests so the deployments are
	// sole-user (see CostSample).
	Cost bool
}

// Grid is a Sweep's result: cells indexed workload-major, then point, then
// arm — the same nesting every hand-rolled experiment loop used.
type Grid[P any] struct {
	Workloads []*Workload
	Points    []P
	Arms      []Arm[P]
	cells     []Cell
}

// Run executes the sweep over ws on the engine's grid workers.
func (s Sweep[P]) Run(eng *engine.Engine, ws []*Workload) *Grid[P] {
	for _, w := range ws {
		if s.Prepare != nil {
			s.Prepare(eng, w)
		}
	}
	type job struct {
		w      *Workload
		pi, ai int
	}
	jobs := make([]job, 0, len(ws)*len(s.Points)*len(s.Arms))
	for _, w := range ws {
		for pi := range s.Points {
			for ai := range s.Arms {
				jobs = append(jobs, job{w, pi, ai})
			}
		}
	}
	cells := engine.RunGrid(eng, jobs, func(_ int, j job) Cell {
		dep := eng.Deploy(s.Arms[j.ai].Request(j.w, s.Points[j.pi]))
		cell := Cell{Accuracy: dep.EvalAccuracy(j.w.Eval)}
		if s.Faults {
			cell.Faults = dep.FaultStats()
		}
		if s.Cost {
			cell.Cost = CostSample{
				Counters: dep.OpCounters(),
				MACs:     dep.DigitalEquivalentMACs(),
				Rows:     dep.AnalogRows(),
			}
		}
		return cell
	})
	return &Grid[P]{Workloads: ws, Points: s.Points, Arms: s.Arms, cells: cells}
}

// Cell returns the measurement at (workload wi, point pi, arm ai).
func (g *Grid[P]) Cell(wi, pi, ai int) Cell {
	return g.cells[(wi*len(g.Points)+pi)*len(g.Arms)+ai]
}

// Accuracy is Cell reduced to the accuracy scalar.
func (g *Grid[P]) Accuracy(wi, pi, ai int) float64 { return g.Cell(wi, pi, ai).Accuracy }

// MeanStd reduces one (workload, arm) series over the point axis to its
// mean and population standard deviation — the replica statistics of the
// replicated-accuracy protocol.
func (g *Grid[P]) MeanStd(wi, ai int) (mean, std float64) {
	var sum, sum2 float64
	for pi := range g.Points {
		v := g.Accuracy(wi, pi, ai)
		sum += v
		sum2 += float64(v * v)
	}
	n := float64(len(g.Points))
	mean = sum / n
	return mean, math.Sqrt(math.Max(0, sum2/n-float64(mean*mean)))
}

// unitAxis is the single-point axis of sweeps whose only dimension is the
// workload × arm cross (overall accuracy, cost study, HWA comparison).
var unitAxis = []struct{}{{}}

// modeArms is the standard naive/NORA arm pair: both analog modes deployed
// on the point's configuration via the workload's canonical Request.
func modeArms[P any](salt string, cfgOf func(P) analog.Config) []Arm[P] {
	arms := make([]Arm[P], 0, len(analogModes))
	for _, mode := range analogModes {
		mode := mode
		arms = append(arms, Arm[P]{
			Name: mode.String(),
			Request: func(w *Workload, p P) engine.Request {
				return w.Request(mode, cfgOf(p), core.Options{}, salt)
			},
		})
	}
	return arms
}
