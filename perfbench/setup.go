package main

import (
	"fmt"
	"math/rand/v2"
	"time"

	"nora/internal/analog"
	"nora/internal/core"
	"nora/internal/engine"
	"nora/internal/harness"
	"nora/internal/model"
	"nora/internal/nn"
	"nora/internal/serve"
)

// Each run sets its workload up in two rounds, one before the measured
// phase and one after it, each of at least setupReps set-ups and at least
// setupBudget; setup_s is the median over both rounds. One cold start,
// collection or scheduler hiccup cannot move it, and the rounds sample the
// shared machine's speed a phase apart: within one second a 70-ms set-up
// drifted between 52 and 90 ms. A set-up of tens of milliseconds repeats
// about fifteen times a round, the sweep's half-second one five.
const (
	setupReps   = 5
	setupBudget = time.Second
)

// moreSetups reports whether a round that began at begin and has done n
// set-ups should do another.
func moreSetups(n int, begin time.Time) bool {
	return n < setupReps || time.Since(begin) < setupBudget
}

// setupMetric is setup_s: the median of every set-up time of a run.
func setupMetric(times []time.Duration) metric {
	return metric{"setup_s", "s", medianDuration(times).Seconds(), len(times)}
}

// modelDir holds the committed model zoo, relative to the repository root.
const modelDir = "testdata/models"

// loadCheckpoint reads a committed zoo checkpoint and requires it to match
// its spec. It never trains: harness.NewWorkload would retrain a missing or
// stale file for minutes and rewrite testdata/models, turning set-up time
// into a training run, so a missing or stale file fails set-up instead.
func loadCheckpoint(tr *tracer, parent int64, key string) (model.Spec, *nn.Model, error) {
	spec, err := model.ByKey(key)
	if err != nil {
		return model.Spec{}, nil, err
	}
	var m *nn.Model
	tr.timed(parent, "model.load", func() { m, err = nn.LoadFile(model.CachePath(modelDir, key)) })
	if err != nil {
		return model.Spec{}, nil, fmt.Errorf("reading checkpoint %s: %w", key, err)
	}
	if m.Cfg != spec.Cfg {
		return model.Spec{}, nil, fmt.Errorf("checkpoint %s is stale: holds %+v, spec wants %+v", key, m.Cfg, spec.Cfg)
	}
	return spec, m, nil
}

// zooWorkload loads a checkpoint and assembles the harness workload around
// it with the standard eval and calibration splits, then calibrates it.
func zooWorkload(tr *tracer, parent int64, key string) (*harness.Workload, error) {
	spec, m, err := loadCheckpoint(tr, parent, key)
	if err != nil {
		return nil, err
	}
	corpus, err := spec.Corpus()
	if err != nil {
		return nil, err
	}
	w := &harness.Workload{
		Spec:  spec,
		Model: m,
		Eval:  corpus.Split("eval", harness.EvalSize),
		Calib: corpus.Split("calibration", harness.CalibSize),
	}
	tr.timed(parent, "core.calibrate", func() { w.Calibration() })
	return w, nil
}

// served is one ready server: a fresh engine and serve.Server with the
// workload's deployment already programmed.
type served struct {
	eng   *engine.Engine
	srv   *serve.Server
	setup time.Duration
}

// newServed builds a fresh engine and server for w and programs the
// deployment requests of the given mode will use, so no request pays for
// programming. build runs first inside the same set-up timing (checkpoint
// read and calibration, or model construction).
func newServed(tr *tracer, cfg serve.Config, mode core.DeployMode, build func(parent int64) (*harness.Workload, error)) (*served, error) {
	sp := tr.start(0, "setup")
	defer sp.end()
	start := time.Now()
	w, err := build(sp.id())
	if err != nil {
		return nil, err
	}
	s := &served{eng: engine.New(engine.Config{})}
	tr.timed(sp.id(), "serve.new", func() { s.srv = serve.New(s.eng, cfg, []*harness.Workload{w}) })
	acfg := cfg.Analog
	if acfg == (analog.Config{}) {
		acfg = analog.PaperPreset() // the server's own default
	}
	tr.timed(sp.id(), "fleet.deploy", func() { s.srv.Fleet().Deploy(w.Request(mode, acfg, core.Options{}, "")) })
	s.setup = time.Since(start)
	return s, nil
}

// setupRound sets a server up repeatedly (see moreSetups), keeping the
// last one, and returns it with every set-up's time.
func setupRound(tr *tracer, cfg serve.Config, mode core.DeployMode, build func(parent int64) (*harness.Workload, error)) (*served, []time.Duration, error) {
	var last *served
	var times []time.Duration
	for begin := time.Now(); moreSetups(len(times), begin); {
		s, err := newServed(tr, cfg, mode, build)
		if err != nil {
			return nil, nil, err
		}
		if last != nil {
			last.srv.Close()
		}
		last = s
		times = append(times, s.setup)
	}
	return last, times, nil
}

// loadLayers reads the set-up spans of a traced phase: the median
// checkpoint read and calibration.
func loadLayers(tr *tracer) []metric {
	var out []metric
	for _, name := range []string{"model.load", "core.calibrate"} {
		ds := tr.durations(name)
		out = append(out, metric{name + "_ms", "ms", ms(medianDuration(ds)), len(ds)})
	}
	return out
}

// deployLayer is the mean deploy (tile programming) time the engine reports.
func deployLayer(st engine.Stats) metric {
	return metric{"engine.deploy_ms", "ms", ms(st.DeployTime) / float64(st.DeployBuilds), int(st.DeployBuilds)}
}

// opMetrics are the analog hardware events per token processed, and the
// share of tile reads that bound management had to repeat.
func opMetrics(c analog.OpCounters, tokens int64) []metric {
	return []metric{
		{"analog.mvms_per_tok", "mvm/tok", float64(c.MVMs) / float64(tokens), int(tokens)},
		{"analog.adc_per_tok", "conv/tok", float64(c.ADCConvs) / float64(tokens), int(tokens)},
		{"analog.bm_retry_share", "share", float64(c.BMRetries) / float64(c.MVMs), int(c.MVMs)},
	}
}

// newRand returns the benchmark's own input generator for one stream of a
// seed; the program never sees it, only the inputs drawn from it.
func newRand(seed uint64, stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, stream))
}
