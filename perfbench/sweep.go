package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"runtime"
	"time"

	"nora/internal/analog"
	"nora/internal/core"
	"nora/internal/engine"
	"nora/internal/harness"
	"nora/internal/serve"
)

// The sweep workload is the researcher's loop behind every figure: a fresh
// engine runs one harness.Sweep of 12 cells, {opt-c3, llama3-c} × OutNoise
// {0.02, 0.04, 0.08} × {naive, NORA}; each cell programs a new deployment
// and scores the 150-sequence eval split. No serving code runs.
var (
	sweepModels = []string{"opt-c3", "llama3-c"}
	sweepNoise  = []float32{0.02, 0.04, 0.08}
	sweepModes  = []core.DeployMode{core.DeployAnalogNaive, core.DeployAnalogNORA}
)

// rungNoise is the output-noise level of the sweep deployment the ladder
// times: opt-c3 in NORA mode, one of the grid's own cells.
const rungNoise = 0.04

// expectedJSON holds every accuracy the sweep must reproduce. The simulator
// is bit-exact, so any difference means the program's behaviour changed.
//
//go:embed expected_accuracy.json
var expectedJSON []byte

func cellKey(model string, noise float32, mode core.DeployMode) string {
	return fmt.Sprintf("%s/%g/%s", model, noise, mode)
}

func runSweep(o options, tr *tracer) (*phase, error) {
	var expected map[string]float64
	if err := json.Unmarshal(expectedJSON, &expected); err != nil {
		return nil, fmt.Errorf("expected_accuracy.json: %w", err)
	}
	p := &phase{}

	ws, setups, err := sweepSetup(tr)
	if err != nil {
		return nil, err
	}
	for _, w := range ws {
		p.attempted++
		key := w.Spec.Key + "/digital"
		if got := w.DigitalAccuracy(nil); got != expected[key] {
			p.failed++
			p.fail("%s accuracy %v, stored %v", key, got, expected[key])
		}
	}

	// Warm-up: the first analog eval pass in a process runs about twice as
	// slow as later ones. A throwaway engine and salt keep it out of the
	// measured sweeps' caches.
	warm := engine.New(engine.Config{})
	for _, w := range ws {
		warm.Deploy(w.Request(core.DeployAnalogNaive, analog.PaperPreset(), core.Options{}, "perfbench-warmup")).Eval(w.Eval)
	}

	// The seed permutes models, noise levels and arms: results are
	// bit-identical for any order, so the stored accuracies still apply.
	r := newRand(o.seed, 1)
	order := append([]*harness.Workload(nil), ws...)
	r.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
	sw := harness.Sweep[float32]{}
	for _, i := range r.Perm(len(sweepNoise)) {
		sw.Points = append(sw.Points, sweepNoise[i])
	}
	var modes []core.DeployMode // modes[ai] is arm ai's mode
	for _, i := range r.Perm(len(sweepModes)) {
		mode := sweepModes[i]
		modes = append(modes, mode)
		sw.Arms = append(sw.Arms, harness.Arm[float32]{
			Name: mode.String(),
			Request: func(w *harness.Workload, noise float32) engine.Request {
				return w.Request(mode, noiseConfig(noise), core.Options{}, "")
			},
		})
	}

	// Measured phase: whole sweeps, each on a fresh engine, until the next
	// one would end further past the budget than it would stop short. Each
	// sweep is one window and one request: tok_s is the median of the
	// sweeps' own rates, and the latency is the time to a whole grid, the
	// figure a researcher waits for.
	timed := tr.start(0, "timed")
	begin := time.Now()
	var wall time.Duration
	var st engine.Stats
	var last *engine.Engine
	var rates, latency dist
	var tokens int64
	for {
		eng := engine.New(engine.Config{})
		sp := tr.start(timed.id(), "harness.sweep")
		start := time.Now()
		grid := sw.Run(eng, order)
		d := time.Since(start)
		sp.end()
		wall += d
		est := eng.Stats()
		st = addStats(st, est)
		last = eng
		for wi, w := range order {
			for pi, noise := range sw.Points {
				for ai, mode := range modes {
					p.attempted++
					key := cellKey(w.Spec.Key, noise, mode)
					if got := grid.Accuracy(wi, pi, ai); got != expected[key] {
						p.failed++
						p.fail("cell %s accuracy %v, stored %v", key, got, expected[key])
					}
				}
			}
		}
		tokens += est.Tokens
		rates = append(rates, float32(float64(est.Tokens)/d.Seconds()))
		latency = append(latency, float32(ms(d)))
		if elapsed := time.Since(begin); elapsed+d/2 >= o.seconds {
			break
		}
	}
	window := time.Since(begin)
	timed.end()
	// The second set-up round, a phase after the first.
	_, more, err := sweepSetup(tr)
	if err != nil {
		return nil, err
	}
	p.e2e = append(p.e2e, setupMetric(append(setups, more...)),
		metric{"tok_s", "tok/s", rates.percentile(50), int(tokens)},
		metric{"latency_p50_ms", "ms", latency.percentile(50), len(latency)},
	)
	// A run holds five to eight sweeps: their p90 is a detail, not a tail.
	p.details = append(p.details, metric{"latency_p90_ms", "ms", latency.percentile(90), len(latency)})

	if tr != nil {
		p.layers = append(loadLayers(tr), deployLayer(st))
		p.layers = append(p.layers, opMetrics(st.Counters, st.Tokens)...)
		// Grid workers inside a deploy or an eval are accounted for; the
		// rest of their capacity over the measured phase, including the
		// benchmark's own checks between sweeps, is not. The grid runs on
		// GOMAXPROCS workers (engine.Config's default).
		workers := time.Duration(runtime.GOMAXPROCS(0))
		p.layers = append(p.layers, metric{"trace.unaccounted_share", "share", unaccountedShare(st.DeployTime+st.EvalTime, workers*window), len(rates)})
		p.details = append(p.details,
			metric{"engine.eval_s", "s", st.EvalTime.Seconds() / float64(len(rates)), int(st.Evals)},
			metric{"engine.allocs_per_seq", "allocs", st.AllocsPerSequence(), int(st.Sequences)},
		)
		// The ladder runs on one of the last sweep's own deployments, served
		// from its engine's cache.
		w := ws[0]
		cfg := noiseConfig(rungNoise)
		srv := serve.New(last, serve.Config{Analog: cfg}, []*harness.Workload{w})
		defer srv.Close()
		srv.Fleet().Deploy(w.Request(core.DeployAnalogNORA, cfg, core.Options{}, ""))
		t, err := servedTarget(srv, w.Spec.Key, w.Eval[0][:len(w.Eval[0])-1], o.seed)
		if err != nil {
			return nil, err
		}
		rungs, err := ladder(t)
		if err != nil {
			return nil, err
		}
		p.layers = append(p.layers, rungs...)
	}
	return p, nil
}

// sweepSetup runs one set-up round (see moreSetups): each set-up reads both
// checkpoints, calibrates and scores the digital baselines on a fresh
// engine. It returns the last set-up's workloads and every set-up's time.
func sweepSetup(tr *tracer) ([]*harness.Workload, []time.Duration, error) {
	var ws []*harness.Workload
	var setups []time.Duration
	for begin := time.Now(); moreSetups(len(setups), begin); {
		sp := tr.start(0, "setup")
		start := time.Now()
		ws = ws[:0]
		eng := engine.New(engine.Config{})
		for _, key := range sweepModels {
			w, err := zooWorkload(tr, sp.id(), key)
			if err != nil {
				return nil, nil, err
			}
			tr.timed(sp.id(), "harness.digital_baseline", func() { w.DigitalAccuracy(eng) })
			ws = append(ws, w)
		}
		setups = append(setups, time.Since(start))
		sp.end()
	}
	return ws, setups, nil
}

// noiseConfig is the paper preset at one output-noise level.
func noiseConfig(noise float32) analog.Config {
	cfg := analog.PaperPreset()
	cfg.OutNoise = noise
	return cfg
}

// addStats sums the counters of two engines' stats.
func addStats(a, b engine.Stats) engine.Stats {
	a.DeployBuilds += b.DeployBuilds
	a.DeployTime += b.DeployTime
	a.Evals += b.Evals
	a.EvalTime += b.EvalTime
	a.Sequences += b.Sequences
	a.Tokens += b.Tokens
	a.Mallocs += b.Mallocs
	a.Counters.Add(b.Counters)
	return a
}
