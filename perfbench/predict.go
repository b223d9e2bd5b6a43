package main

import (
	"bytes"
	"fmt"
	"math"
	"slices"
	"sync"
	"time"

	"nora/internal/analog"
	"nora/internal/core"
	"nora/internal/fleet"
	"nora/internal/harness"
	"nora/internal/model"
	"nora/internal/serve"
)

// The predict workload is an open loop of independent lookups: Poisson
// arrivals at one fixed rate send /v1/predict to opt-c3 in NORA mode with
// eval-split contexts. It is the only workload that runs the micro-batcher's
// coalescing window and Runner.PredictLast; it touches no KV cache and no
// decode step. Each request is timed from when it was due to be sent, so a
// stall also charges the requests queued behind it. Every window of the
// measured phase gets the same number of arrivals, so the offered load does
// not depend on the seed.
const (
	servedModel = "opt-c3"
	// predictRate is about a sixth of the capacity measured on a 2-vCPU
	// VM. At higher rates the queue amplified the shared machine's speed
	// drift into the latency percentiles: at 25 req/s a slow stretch doubled
	// the p90 (README.md, Steadiness).
	predictRate = 15.0
	// poolSize bounds the distinct eval-split sequences the predict
	// workload draws inputs from; no run sends one twice.
	poolSize = 8192
	// replays is how many requests each run replays alone after the
	// measured phase to check their bytes.
	replays = 16
	warmup  = 1500 * time.Millisecond
)

// contexts returns the eval-split sequences of the served model's corpus in
// a seeded order, without their answer token.
func contexts(seed uint64) ([][]int, error) {
	spec, err := model.ByKey(servedModel)
	if err != nil {
		return nil, err
	}
	corpus, err := spec.Corpus()
	if err != nil {
		return nil, err
	}
	seqs := corpus.Split("eval", poolSize)
	r := newRand(seed, 2)
	r.Shuffle(len(seqs), func(i, j int) { seqs[i], seqs[j] = seqs[j], seqs[i] })
	for i, s := range seqs {
		seqs[i] = s[:len(s)-1]
	}
	return seqs, nil
}

// openLoop sends bodies[i] at start+offsets[i], each from its own goroutine,
// and waits for every reply.
func openLoop(h *serve.Server, start time.Time, offsets []time.Duration, bodies [][]byte) []predictReply {
	out := make([]predictReply, len(bodies))
	var wg sync.WaitGroup
	for i, off := range offsets {
		due := start.Add(off)
		time.Sleep(time.Until(due))
		wg.Add(1)
		go func(i int, due time.Time) {
			defer wg.Done()
			out[i] = predict(h, bodies[i])
			out[i].due = due
		}(i, due)
	}
	wg.Wait()
	return out
}

// arrivals draws sorted arrival offsets over n equal windows of d: exactly
// round(rate × window width) arrivals per window at uniform random times,
// a Poisson process conditioned on its count in every window.
func arrivals(seed, stream uint64, rate float64, d time.Duration, n int) []time.Duration {
	r := newRand(seed, stream)
	width := d / time.Duration(n)
	per := int(math.Round(rate * width.Seconds()))
	out := make([]time.Duration, 0, n*per)
	for w := 0; w < n; w++ {
		at := make([]time.Duration, per)
		for i := range at {
			at[i] = time.Duration(w)*width + time.Duration(r.Int64N(int64(width)))
		}
		slices.Sort(at)
		out = append(out, at...)
	}
	return out
}

func runPredict(o options, tr *tracer) (*phase, error) {
	pool, err := contexts(o.seed)
	if err != nil {
		return nil, err
	}
	schedule := arrivals(o.seed, 3, predictRate, o.seconds, phaseWindows)
	warmSchedule := arrivals(o.seed, 4, predictRate, warmup, 1)
	if len(schedule)+len(warmSchedule) > len(pool) {
		return nil, fmt.Errorf("predict: %d requests exceed the %d-context pool", len(schedule)+len(warmSchedule), len(pool))
	}
	encode := func(ctxs [][]int) [][]byte {
		out := make([][]byte, len(ctxs))
		for i, c := range ctxs {
			out[i] = encode(predictBody{Model: servedModel, Mode: "nora", Context: c})
		}
		return out
	}
	bodies := encode(pool[:len(schedule)])
	warmBodies := encode(pool[len(pool)-len(warmSchedule):])

	build := func(parent int64) (*harness.Workload, error) { return zooWorkload(tr, parent, servedModel) }
	s, setups, err := setupRound(tr, serve.Config{}, core.DeployAnalogNORA, build)
	if err != nil {
		return nil, err
	}
	defer s.srv.Close()
	p := &phase{}

	// Warm-up replies are checked and counted like any other, but not timed.
	for i, rep := range openLoop(s.srv, time.Now(), warmSchedule, warmBodies) {
		p.check(rep.err, "warm-up predict %d", i)
	}
	ops0 := replicaOps(s.srv.Fleet())
	timed := tr.start(0, "timed")
	begin := time.Now()
	replies := openLoop(s.srv, begin, schedule, bodies)
	timed.end()
	ops := replicaOps(s.srv.Fleet())

	// A request's latency counts in the window it was due in. Throughput is
	// the context tokens answered over the phase up to the last reply: in
	// an open loop it is the offered load while the server keeps up, and
	// falls when replies trail the schedule.
	win := newWindows(begin, o.seconds)
	latency := make([]dist, phaseWindows)
	var queue, batch dist
	var due, sent []time.Time
	var inFlight, accounted time.Duration
	tokens := 0
	end := begin
	for i, rep := range replies {
		tr.record(timed.id(), "serve.predict", rep.sent, rep.done, nil)
		if !p.check(rep.err, "predict %d", i) {
			continue
		}
		if w := win.at(rep.due); w >= 0 {
			latency[w] = append(latency[w], float32(ms(rep.done.Sub(rep.due))))
		}
		queue = append(queue, float32(rep.queueMS))
		batch = append(batch, float32(rep.batch))
		due, sent = append(due, rep.due), append(sent, rep.sent)
		tokens += len(pool[i])
		if rep.done.After(end) {
			end = rep.done
		}
		// From its due time a request is with the load generator until
		// sent, then with the server for total_ms; the rest is unaccounted.
		inFlight += rep.done.Sub(rep.due)
		accounted += rep.sent.Sub(rep.due) + time.Duration(rep.totalMS*float64(time.Millisecond))
	}
	p.e2e = append(p.e2e,
		metric{"tok_s", "tok/s", float64(tokens) / end.Sub(begin).Seconds(), tokens},
		p.windowed("latency_p50_ms", latency, 50),
	)
	// The p90 is printed but kept out of the result line: a slow stretch of
	// the shared machine moved it by more than the gate's bound between
	// runs of the same code.
	p.details = append(p.details, p.windowed("latency_p90_ms", latency, 90))

	// Replay a seeded sample alone: a context's answer is the same bytes
	// whatever batch it rode in.
	r := newRand(o.seed, 5)
	for _, i := range sampleIndices(len(replies), replays, r.IntN) {
		if replies[i].err != nil {
			continue
		}
		p.attempted++
		again := predict(s.srv, bodies[i])
		if again.err != nil || !bytes.Equal(again.canon, replies[i].canon) {
			p.failed++
			p.fail("predict %d replayed alone: got %s (%v), want %s", i, again.canon, again.err, replies[i].canon)
		}
	}

	// The second set-up round; its servers are closed unused.
	again, more, err := setupRound(tr, serve.Config{}, core.DeployAnalogNORA, build)
	if err != nil {
		return nil, err
	}
	again.srv.Close()
	p.e2e = append([]metric{setupMetric(append(setups, more...))}, p.e2e...)

	if tr != nil {
		p.layers = append(loadLayers(tr), deployLayer(s.eng.Stats()))
		p.layers = append(p.layers, opMetrics(opsDelta(ops, ops0), int64(tokens))...)
		p.layers = append(p.layers, metric{"trace.unaccounted_share", "share", unaccountedShare(accounted, inFlight), len(due)})
		p.details = append(p.details,
			metric{"serve.queue_ms", "ms", queue.mean(), len(queue)},
			metric{"serve.batch_rows", "rows", batch.mean(), len(batch)},
			metric{"loadgen.late_ms_p90", "ms", lateness(due, sent).percentile(90), len(due)},
		)
		t, err := servedTarget(s.srv, servedModel, pool[0], o.seed)
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

// opsDelta is the hardware events counted between two snapshots.
func opsDelta(after, before analog.OpCounters) analog.OpCounters {
	return analog.OpCounters{
		MVMs:      after.MVMs - before.MVMs,
		DACConvs:  after.DACConvs - before.DACConvs,
		ADCConvs:  after.ADCConvs - before.ADCConvs,
		CellReads: after.CellReads - before.CellReads,
		BMRetries: after.BMRetries - before.BMRetries,
	}
}

// replicaOps sums the hardware-event counters of every replica the fleet
// serves from.
func replicaOps(f *fleet.Fleet) analog.OpCounters {
	var total analog.OpCounters
	for _, g := range f.Groups() {
		for _, rep := range g.Replicas() {
			total.Add(rep.OpCounters())
		}
	}
	return total
}

// servedReplica returns the one replica a single-model, single-chip server
// routes to.
func servedReplica(f *fleet.Fleet) (*fleet.Replica, error) {
	for _, g := range f.Groups() {
		if reps := g.Replicas(); len(reps) == 1 && len(f.Groups()) == 1 {
			return reps[0], nil
		}
	}
	return nil, fmt.Errorf("expected one deployed replica, fleet has %d groups", len(f.Groups()))
}
