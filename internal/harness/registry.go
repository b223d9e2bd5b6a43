package harness

import (
	"fmt"
	"io"
	"path/filepath"

	"nora/internal/analog"
	"nora/internal/core"
	"nora/internal/engine"
	"nora/internal/model"
)

// Env is what every registry entry runs against: one engine, the model zoo
// (each workload loaded at most once and shared by every entry), the
// evaluation size, the cost model and the quick switch that selects each
// entry's reduced variant. Entries run one at a time.
type Env struct {
	Eng       *engine.Engine
	ModelDir  string
	EvalN     int
	Quick     bool
	CostModel analog.CostModel

	loaded map[string]*Workload
}

// load returns the workloads of specs in order, loading (or training and
// caching) a model the first time any entry asks for it.
func (e *Env) load(specs []model.Spec) ([]*Workload, error) {
	if e.loaded == nil {
		e.loaded = make(map[string]*Workload)
	}
	ws := make([]*Workload, len(specs))
	for i, spec := range specs {
		w, ok := e.loaded[spec.Key]
		if !ok {
			var err error
			if w, err = NewWorkload(e.ModelDir, spec, e.EvalN, CalibSize); err != nil {
				return nil, err
			}
			e.loaded[spec.Key] = w
		}
		ws[i] = w
	}
	return ws, nil
}

// pick returns quick under Env.Quick and full otherwise.
func pick[T any](e *Env, full, quick T) T {
	if e.Quick {
		return quick
	}
	return full
}

// Result is what a study prints: its tables, then its charts.
type Result struct {
	Tables []*Table
	Charts []*Chart
}

func tables(ts ...*Table) *Result { return &Result{Tables: ts} }

// Entry is one study of EXPERIMENTS.md: its ID there, the part of the paper
// it reproduces, the zoo models of its full and quick variants, and the one
// function that runs it. The function takes every other parameter of the
// variant from the Env; there is no other way to set them.
type Entry struct {
	ID     string
	Figure string
	Full   []model.Spec
	Quick  []model.Spec
	run    func(e *Env, ws []*Workload) (*Result, error)
}

// Run loads the entry's models for e's variant and runs the study.
func (en Entry) Run(e *Env) (*Result, error) {
	ws, err := e.load(pick(e, en.Full, en.Quick))
	if err != nil {
		return nil, err
	}
	return en.run(e, ws)
}

// Registry returns every study, in EXPERIMENTS.md order.
func Registry() []Entry { return registry }

// Lookup finds the entry with the given ID.
func Lookup(id string) (Entry, error) {
	for _, en := range registry {
		if en.ID == id {
			return en, nil
		}
	}
	return Entry{}, fmt.Errorf("harness: no study %q", id)
}

// The model sets the entries run on. fig6 is the paper's Fig. 6 trio; it is
// also every quick variant's set unless the entry names a smaller one.
var (
	zoo   = model.Zoo()
	fig6  = byKeys("opt-c3", "llama3-c", "mistral-c")
	optC3 = byKeys("opt-c3")
)

func byKeys(keys ...string) []model.Spec {
	out := make([]model.Spec, len(keys))
	for i, key := range keys {
		spec, err := model.ByKey(key)
		if err != nil {
			panic(err)
		}
		out[i] = spec
	}
	return out
}

var registry = []Entry{
	{"E1", "Fig. 3", zoo, fig6, func(e *Env, ws []*Workload) (*Result, error) {
		targets := PaperMSETargets()
		targets = pick(e, targets, []float64{targets[1], targets[len(targets)-1]})
		points := Sensitivity(e.Eng, ws, targets)
		return &Result{Tables: []*Table{SensitivityTable(points)}, Charts: SensitivityCharts(points)}, nil
	}},
	{"E3", "Fig. 5(a)", model.OPTSpecs(), model.OPTSpecs(), func(e *Env, ws []*Workload) (*Result, error) {
		rows := OverallAccuracy(e.Eng, ws, analog.PaperPreset())
		return tables(AccuracyTable("Fig. 5(a) — OPT-class accuracy: digital FP vs naive analog vs NORA", rows)), nil
	}},
	{"E3R", "Fig. 5(a) over 5 hardware instances", model.OPTSpecs(), model.OPTSpecs(), func(e *Env, ws []*Workload) (*Result, error) {
		rows := OverallAccuracyReplicated(e.Eng, ws, analog.PaperPreset(), 5)
		return tables(AccuracyStatsTable("Fig. 5(a) — OPT-class accuracy (mean±std over hardware instances)", rows)), nil
	}},
	{"E4", "Table III", model.OtherSpecs(), model.OtherSpecs(), func(e *Env, ws []*Workload) (*Result, error) {
		rows := OverallAccuracy(e.Eng, ws, analog.PaperPreset())
		return tables(AccuracyTable("Table III — NORA accuracy for LLaMA/Mistral-class models", rows)), nil
	}},
	{"E5", "Fig. 5(b)(c)", zoo, fig6, func(e *Env, ws []*Workload) (*Result, error) {
		return tables(MitigationTable(Mitigation(e.Eng, ws, MitigationMSETarget))), nil
	}},
	{"E6", "Fig. 6", fig6, fig6, func(e *Env, ws []*Workload) (*Result, error) {
		return tables(Fig6Table(DistributionAnalysis(e.Eng, ws, "attn.q", analog.PaperPreset()))), nil
	}},
	{"E8", "§VII: drift limitation", fig6, fig6, func(e *Env, ws []*Workload) (*Result, error) {
		return tables(DriftTable(DriftStudy(e.Eng, ws, 3600))), nil
	}},
	{"E9", "ext.: λ migration strength", fig6, fig6, func(e *Env, ws []*Workload) (*Result, error) {
		lambdas := pick(e, []float64{0.1, 0.25, 0.5, 0.75, 0.9, 1.0}, []float64{0.25, 0.5, 1.0})
		return tables(LambdaTable(LambdaAblation(e.Eng, ws, lambdas))), nil
	}},
	{"E10", "§VII: energy/latency estimate", fig6, fig6, func(e *Env, ws []*Workload) (*Result, error) {
		return tables(CostTable(CostStudy(e.Eng, ws, analog.PaperPreset(), e.CostModel))), nil
	}},
	{"E11", "§VII: per-layer ablation", fig6, optC3, func(e *Env, ws []*Workload) (*Result, error) {
		return tables(PerLayerTable(PerLayerSensitivity(e.Eng, ws, analog.PaperPreset()))), nil
	}},
	{"E12", "§VI: digital PTQ baselines", zoo, fig6, func(e *Env, ws []*Workload) (*Result, error) {
		return tables(BaselineTable(BaselineComparison(e.Eng, ws, analog.PaperPreset()))), nil
	}},
	{"E13", "ext.: calibration quantile", fig6, fig6, func(e *Env, ws []*Workload) (*Result, error) {
		qs := pick(e, []float64{0.9, 0.99, 0.999, 1.0}, []float64{0.9, 1.0})
		return tables(QuantileTable(CalibrationAblation(e.Eng, ws, qs))), nil
	}},
	{"E15", "§VII: multi-cell weights", fig6, fig6, func(e *Env, ws []*Workload) (*Result, error) {
		schemes := pick(e, [][2]int{{2, 4}, {3, 3}, {4, 2}}, [][2]int{{2, 4}})
		return tables(SlicingTable(SlicingStudy(e.Eng, ws, schemes))), nil
	}},
	{"E16", "§VII: task generalization", model.TaskSpecs(), model.TaskSpecs(), func(e *Env, ws []*Workload) (*Result, error) {
		rows := OverallAccuracy(e.Eng, ws, analog.PaperPreset())
		return tables(AccuracyTable("Ext. — task generalization: key recall vs majority vote (same architecture)", rows)), nil
	}},
	{"E17", "§II: tile operating modes", fig6, fig6, func(e *Env, ws []*Workload) (*Result, error) {
		return tables(ModeTable(ModeStudy(e.Eng, ws))), nil
	}},
	{"E19", "ext.: device faults, drift aging", zoo, optC3, func(e *Env, ws []*Workload) (*Result, error) {
		rates := pick(e, DefaultFaultRates(), []float64{0, 0.01, 0.05})
		ages := pick(e, DefaultDriftAges(), []float64{0, 3600})
		base := analog.PaperPreset()
		return tables(FaultTable(FaultSweep(e.Eng, ws, base, rates)),
			DriftAgeTable(DriftAgeSweep(e.Eng, ws, base, ages))), nil
	}},
	{"E21", "ext.: accuracy-per-joule Pareto", zoo, optC3, func(e *Env, ws []*Workload) (*Result, error) {
		tcs := pick(e,
			ParetoGrid(DefaultParetoBits(), DefaultParetoTiles(), DefaultParetoSchemes()),
			ParetoGrid(QuickParetoBits(), QuickParetoTiles(), QuickParetoSchemes()))
		rows := ParetoSweep(e.Eng, ws, analog.PaperPreset(), tcs, e.CostModel)
		return &Result{Tables: []*Table{ParetoTable(rows)}, Charts: []*Chart{ParetoChart(rows)}}, nil
	}},
	{"E22", "ext.: batched generation", byKeys("opt-c3", "llama3-c"), optC3, func(e *Env, ws []*Workload) (*Result, error) {
		spec := GenSpec{Mode: core.DeployAnalogNORA, Config: analog.PaperPreset(), Concurrencies: []int{1, 2, 4, 8}}
		rows, err := GenerationThroughput(e.Eng, ws, spec)
		if err != nil {
			return nil, err
		}
		return tables(GenerationTable(rows)), nil
	}},
	{"E24", "ext.: multi-chip fleet routing", optC3, optC3, func(e *Env, ws []*Workload) (*Result, error) {
		sizes := pick(e, DefaultFleetSizes(), []int{1, 3})
		rates := pick(e, DefaultFleetRates(), []float64{0, 0.05})
		requests := pick(e, DefaultFleetRequests, 300)
		base := analog.PaperPreset()
		rows := FleetSweep(e.Eng, ws, base, sizes, rates, requests, DefaultFleetGap)
		drills, err := FleetDrills(e.Eng, ws[0], base, sizes[len(sizes)-1], rates[len(rates)-1])
		if err != nil {
			return nil, err
		}
		return tables(FleetTable(rows), DrillTable(drills)), nil
	}},
	{"E25", "Fig. 1 Challenge 1: HWA under drift", byKeys("opt-c3", "mistral-c"), optC3, func(e *Env, ws []*Workload) (*Result, error) {
		ages := pick(e, DefaultHWADriftAges(), []float64{0, 3600, OneYearSeconds})
		rows, err := HWASweep(e.Eng, ws, e.ModelDir, model.DefaultHWARecipe(), analog.PaperPreset(), ages)
		if err != nil {
			return nil, err
		}
		return tables(HWADriftTable(rows)), nil
	}},
}

// WriteText writes the result as text: each table, then each chart, each
// followed by a blank line.
func (r *Result) WriteText(w io.Writer) error {
	for _, t := range r.Tables {
		if err := t.WriteText(w); err != nil {
			return err
		}
		if _, err := io.WriteString(w, "\n"); err != nil {
			return err
		}
	}
	return r.writeCharts(w, "", "\n")
}

// WriteMarkdown writes the result as markdown: each table, then each chart
// in a fenced block.
func (r *Result) WriteMarkdown(w io.Writer) error {
	for _, t := range r.Tables {
		if err := t.WriteMarkdown(w); err != nil {
			return err
		}
	}
	return r.writeCharts(w, "```\n", "```\n\n")
}

func (r *Result) writeCharts(w io.Writer, before, after string) error {
	for _, c := range r.Charts {
		if _, err := io.WriteString(w, before); err != nil {
			return err
		}
		if err := c.Render(w); err != nil {
			return err
		}
		if _, err := io.WriteString(w, after); err != nil {
			return err
		}
	}
	return nil
}

// WriteCSVFiles writes every table as CSV into dir: <id>.csv for a single
// table, <id>-1.csv, <id>-2.csv, ... for several.
func (r *Result) WriteCSVFiles(dir, id string) error {
	for i, t := range r.Tables {
		name := id + ".csv"
		if len(r.Tables) > 1 {
			name = fmt.Sprintf("%s-%d.csv", id, i+1)
		}
		if err := t.WriteCSVFile(filepath.Join(dir, name)); err != nil {
			return err
		}
	}
	return nil
}
