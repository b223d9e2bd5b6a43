package engine

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"nora/internal/analog"
	"nora/internal/core"
	"nora/internal/nn"
	"nora/internal/rng"
)

// testModel builds a small untrained model — deployment and determinism
// mechanics do not care about accuracy, only about bit-identical outputs.
func testModel(t testing.TB) *nn.Model {
	t.Helper()
	cfg := nn.Config{
		Arch: nn.ArchOPT, Vocab: 40, DModel: 16, NHeads: 2,
		NLayers: 1, DFF: 32, MaxSeq: 16,
	}
	m, err := nn.NewModel(cfg, rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func testSeqs(n, length int) [][]int {
	seqs := make([][]int, n)
	r := rng.New(9)
	for i := range seqs {
		seq := make([]int, length)
		for j := range seq {
			seq[j] = int(r.Uint64() % 40)
		}
		seqs[i] = seq
	}
	return seqs
}

func testConfig() analog.Config {
	cfg := analog.PaperPreset()
	cfg.TileRows, cfg.TileCols = 32, 32
	return cfg
}

func TestDeployCacheHitAndKeying(t *testing.T) {
	m := testModel(t)
	eng := New(Config{})
	req := Request{Model: "m", Net: m, Mode: core.DeployAnalogNaive, Config: testConfig()}

	d1 := eng.Deploy(req)
	d2 := eng.Deploy(req)
	if d1 != d2 {
		t.Fatal("identical requests must share one cached deployment")
	}
	if s := eng.Stats(); s.DeployBuilds != 1 || s.DeployHits != 1 {
		t.Fatalf("stats after one miss + one hit: %+v", s)
	}

	// Different salt, mode, or config must key apart.
	salted := req
	salted.Salt = "x"
	other := req
	other.Config.OutNoise += 0.01
	if eng.Deploy(salted) == d1 || eng.Deploy(other) == d1 {
		t.Fatal("distinct requests aliased one deployment")
	}

	// λ=0 and the explicit default must share a slot (core.Deploy treats
	// them identically).
	lam := Request{Model: "m", Net: m, Mode: core.DeployAnalogNaive, Config: testConfig(),
		Opt: core.Options{Lambda: core.DefaultLambda}}
	if eng.Deploy(lam) != d1 {
		t.Fatal("Lambda zero-value and explicit default keyed apart")
	}
}

func TestDeploySeedStable(t *testing.T) {
	m := testModel(t)
	req := Request{Model: "m", Net: m, Mode: core.DeployAnalogNaive, Config: testConfig()}
	if req.Seed() != req.Seed() {
		t.Fatal("seed not stable")
	}
	other := req
	other.Salt = "rep1"
	if req.Seed() == other.Seed() {
		t.Fatal("salted request should reseed")
	}
}

// The central determinism guarantee: a cached deployment evaluated later
// (and concurrently) agrees exactly with a freshly built deployment
// evaluated serially.
func TestCachedDeploymentMatchesFresh(t *testing.T) {
	m := testModel(t)
	seqs := testSeqs(12, 6)
	req := Request{Model: "m", Net: m, Mode: core.DeployAnalogNaive, Config: testConfig()}

	eng := New(Config{EvalWorkers: 4})
	cached := eng.Deploy(req)
	first := cached.Eval(seqs)
	again := eng.Deploy(req).Eval(seqs) // memo hit
	if first != again {
		t.Fatalf("memoized eval diverged: %+v vs %+v", first, again)
	}

	fresh := core.Deploy(m, req.Mode, nil, req.Config, req.Seed(), core.Options{})
	serial := fresh.Eval(seqs, 1)
	if first != serial {
		t.Fatalf("engine eval %+v != fresh serial eval %+v", first, serial)
	}
}

func TestEvalWorkerCountInvariance(t *testing.T) {
	m := testModel(t)
	seqs := testSeqs(10, 6)
	req := Request{Model: "m", Net: m, Mode: core.DeployAnalogNaive, Config: testConfig()}
	var results []nn.EvalResult
	for _, workers := range []int{1, 3, 16} {
		eng := New(Config{EvalWorkers: workers})
		results = append(results, eng.Deploy(req).Eval(seqs))
	}
	if results[0] != results[1] || results[1] != results[2] {
		t.Fatalf("worker count changed eval result: %+v", results)
	}
}

func TestConcurrentDeploySingleflight(t *testing.T) {
	m := testModel(t)
	eng := New(Config{})
	req := Request{Model: "m", Net: m, Mode: core.DeployAnalogNaive, Config: testConfig()}
	const goroutines = 8
	deps := make([]*Deployment, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			deps[g] = eng.Deploy(req)
		}(g)
	}
	wg.Wait()
	for _, d := range deps[1:] {
		if d != deps[0] {
			t.Fatal("concurrent Deploy built more than one instance")
		}
	}
	if s := eng.Stats(); s.DeployBuilds != 1 {
		t.Fatalf("expected a single build, got %+v", s)
	}
}

func TestLRUEviction(t *testing.T) {
	m := testModel(t)
	eng := New(Config{CacheSize: 2})
	mk := func(salt string) Request {
		return Request{Model: "m", Net: m, Mode: core.DeployAnalogNaive, Config: testConfig(), Salt: salt}
	}
	a := eng.Deploy(mk("a"))
	eng.Deploy(mk("b"))
	eng.Deploy(mk("c")) // evicts "a"
	if s := eng.Stats(); s.Evictions != 1 {
		t.Fatalf("expected 1 eviction, got %+v", s)
	}
	// "a" rebuilds — and, by content seeding, to identical hardware.
	a2 := eng.Deploy(mk("a"))
	if a2 == a {
		t.Fatal("evicted entry returned the stale instance")
	}
	seqs := testSeqs(6, 5)
	if r1, r2 := a.Eval(seqs), a2.Eval(seqs); r1 != r2 {
		t.Fatalf("rebuilt deployment diverged: %+v vs %+v", r1, r2)
	}
	if s := eng.Stats(); s.DeployBuilds != 4 {
		t.Fatalf("expected 4 builds after eviction, got %+v", s)
	}
}

func TestEvalStatsAndThroughput(t *testing.T) {
	m := testModel(t)
	eng := New(Config{})
	req := Request{Model: "m", Net: m, Mode: core.DeployDigital}
	seqs := append(testSeqs(5, 6), []int{7}) // one too-short sequence
	dep := eng.Deploy(req)
	dep.Eval(seqs)
	dep.Eval(seqs) // memo hit
	s := eng.Stats()
	if s.Evals != 1 || s.EvalHits != 1 {
		t.Fatalf("eval counting: %+v", s)
	}
	if s.Sequences != 5 || s.SkippedSeqs != 1 || s.Tokens != 5*5 {
		t.Fatalf("sequence accounting: %+v", s)
	}
	if s.TokensPerSecond() <= 0 {
		t.Fatalf("throughput not positive: %+v", s)
	}
	if s.AnalogReads != 0 {
		t.Fatalf("digital deployment counted analog reads: %+v", s)
	}
	if s.Mallocs <= 0 || s.AllocsPerSequence() <= 0 {
		t.Fatalf("eval allocation accounting: %+v", s)
	}
	if s.String() == "" {
		t.Fatal("empty stats string")
	}

	// An analog deployment must attribute its crossbar reads to the eval.
	adep := eng.Deploy(Request{Model: "m", Net: m, Mode: core.DeployAnalogNaive, Config: testConfig()})
	adep.Eval(testSeqs(3, 6))
	s = eng.Stats()
	if s.AnalogReads <= 0 || s.ReadsPerSecond() <= 0 {
		t.Fatalf("analog read accounting: %+v", s)
	}
}

// Fault-model configurations must uphold the engine's determinism contract
// exactly like the noise model: same seed + fault config → bit-identical
// accuracy across cached vs. fresh deployments and eval worker counts.
func TestFaultConfigDeterminism(t *testing.T) {
	m := testModel(t)
	seqs := testSeqs(10, 6)
	cfg := testConfig()
	cfg.FaultRate = 0.02
	cfg.FaultSA1Frac = 0.3
	cfg.GMaxStd = 0.05
	cfg.PVRetries = 2
	cfg.SpareCols = 2
	req := Request{Model: "m", Net: m, Mode: core.DeployAnalogNaive, Config: cfg}

	var results []nn.EvalResult
	workers := []int{1, 4, 2}
	for _, n := range workers {
		eng := New(Config{EvalWorkers: n})
		dep := eng.Deploy(req)
		first := dep.Eval(seqs)
		if again := eng.Deploy(req).Eval(seqs); first != again {
			t.Fatalf("cached faulty deployment diverged under %d eval workers: %+v vs %+v", n, first, again)
		}
		results = append(results, first)
	}
	for i, r := range results[1:] {
		if r != results[0] {
			t.Fatalf("faulty eval varied with %d eval workers: %+v vs %+v", workers[i+1], r, results[0])
		}
	}
	fresh := core.Deploy(m, req.Mode, nil, req.Config, req.Seed(), core.Options{})
	if serial := fresh.Eval(seqs, 1); serial != results[0] {
		t.Fatalf("fresh serial faulty eval %+v != engine eval %+v", serial, results[0])
	}
}

// Two structurally different networks sharing one Model string is the
// documented cache-aliasing hazard; Deploy must reject it instead of serving
// one network's deployment identity for the other. A second instance of the
// *same* structure keeps working — instances are separated by cacheKey.
func TestModelAliasShapeGuard(t *testing.T) {
	m1 := testModel(t)
	eng := New(Config{})
	eng.Deploy(Request{Model: "m", Net: m1, Mode: core.DeployAnalogNaive, Config: testConfig()})

	// Same structure, different live instance: allowed.
	eng.Deploy(Request{Model: "m", Net: testModel(t), Mode: core.DeployAnalogNaive, Config: testConfig()})

	wide, err := nn.NewModel(nn.Config{
		Arch: nn.ArchOPT, Vocab: 40, DModel: 24, NHeads: 2,
		NLayers: 1, DFF: 48, MaxSeq: 16,
	}, rng.New(4))
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("structurally different network reusing a Model string must be rejected")
		}
	}()
	eng.Deploy(Request{Model: "m", Net: wide, Mode: core.DeployAnalogNaive, Config: testConfig()})
}

func TestParallelFor(t *testing.T) {
	// Work conservation: every index runs exactly once, even with far more
	// work items than workers.
	n := runtime.GOMAXPROCS(0)*4 + 3
	hits := make([]int32, n)
	var count int32
	ParallelFor(0, n, func(i int) {
		atomic.AddInt32(&hits[i], 1)
		atomic.AddInt32(&count, 1)
	})
	if int(count) != n {
		t.Fatalf("ran %d of %d", count, n)
	}
	for i, h := range hits {
		if h != 1 {
			t.Fatalf("index %d ran %d times", i, h)
		}
	}
	// n = 0: fn must never run.
	ParallelFor(0, 0, func(int) { t.Fatal("must not run") })
	// n = 1: runs inline.
	ran := false
	ParallelFor(4, 1, func(int) { ran = true })
	if !ran {
		t.Fatal("n=1 did not run")
	}
	// Explicit worker counts above n are harmless.
	var small int32
	ParallelFor(64, 3, func(int) { atomic.AddInt32(&small, 1) })
	if small != 3 {
		t.Fatalf("explicit workers > n ran %d of 3", small)
	}
}

func TestRunGridOrderAndResults(t *testing.T) {
	eng := New(Config{GridWorkers: 4})
	points := make([]int, 50)
	for i := range points {
		points[i] = i * 3
	}
	out := RunGrid(eng, points, func(i, p int) string {
		return fmt.Sprintf("%d:%d", i, p)
	})
	if len(out) != len(points) {
		t.Fatalf("len(out) = %d", len(out))
	}
	for i, got := range out {
		if want := fmt.Sprintf("%d:%d", i, i*3); got != want {
			t.Fatalf("out[%d] = %q, want %q", i, got, want)
		}
	}
	// A nil engine is allowed for pure grid parallelism.
	sums := RunGrid[int, int](nil, []int{1, 2, 3}, func(_ int, p int) int { return p * p })
	if sums[0] != 1 || sums[1] != 4 || sums[2] != 9 {
		t.Fatalf("nil-engine grid: %v", sums)
	}
}

// Regression: a panicking build (here an unknown Opt.Layers name, which
// core.Deploy rejects) used to leave entry.ready open forever — every
// concurrent waiter on the key hung, and the dead entry poisoned the cache
// so even retries after the panic hung. Deploy must instead propagate the
// failure to the builder AND every waiter, and drop the entry so the key
// stays usable.
func TestDeployPanicReleasesWaiters(t *testing.T) {
	m := testModel(t)
	eng := New(Config{})
	bad := Request{Model: "m", Net: m, Mode: core.DeployAnalogNaive,
		Config: testConfig(), Opt: core.Options{Layers: []string{"no-such-layer"}}}

	const goroutines = 6
	done := make(chan any, goroutines)
	for g := 0; g < goroutines; g++ {
		go func() {
			defer func() { done <- recover() }()
			eng.Deploy(bad)
			done <- nil
		}()
	}
	for g := 0; g < goroutines; g++ {
		select {
		case failure := <-done:
			if failure == nil {
				t.Fatal("Deploy of a panicking build returned instead of panicking")
			}
		case <-time.After(30 * time.Second):
			t.Fatal("waiter on a panicked build hung (ready never closed)")
		}
	}

	// The key must not be poisoned: a retry panics afresh (it is not served
	// a nil deployment from a dead cache entry)...
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("retry after panicked build did not panic")
			}
		}()
		eng.Deploy(bad)
	}()
	// ...and unrelated valid requests on the same engine still deploy.
	good := Request{Model: "m", Net: m, Mode: core.DeployAnalogNaive, Config: testConfig()}
	if eng.Deploy(good) == nil {
		t.Fatal("valid deploy after panicked build failed")
	}
}

// Fleet chip keying: the empty (implicit) chip must keep the historical
// content key byte-for-byte — same seed, same cache slot — while a named
// chip reseeds, so each chip in a fleet realizes independent fault draws
// without perturbing single-chip fingerprints.
func TestChipKeying(t *testing.T) {
	m := testModel(t)
	req := Request{Model: "m", Net: m, Mode: core.DeployAnalogNaive, Config: testConfig()}
	implicit := req
	implicit.Chip = ""
	if req.Seed() != implicit.Seed() {
		t.Fatal("empty Chip changed the deployment seed")
	}
	if strings.Contains(implicit.contentKey(), ";chip=") {
		t.Fatalf("empty Chip leaked into the content key: %q", implicit.contentKey())
	}

	chipA, chipB := req, req
	chipA.Chip, chipB.Chip = "chip1", "chip2"
	if chipA.Seed() == req.Seed() || chipB.Seed() == req.Seed() || chipA.Seed() == chipB.Seed() {
		t.Fatal("named chips must derive distinct seeds")
	}

	eng := New(Config{})
	d0 := eng.Deploy(req)
	if eng.Deploy(implicit) != d0 {
		t.Fatal("implicit-chip request missed the legacy cache slot")
	}
	if eng.Deploy(chipA) == d0 || eng.Deploy(chipB) == d0 {
		t.Fatal("chip-keyed deployments aliased the implicit chip")
	}
}

// TestOpCountersFromCachedLayers pins the counter reads on the operators a
// deployment gathers when it is built: OpCounters, DigitalEquivalentMACs,
// AnalogRows and FaultStats equal a fresh walk of the model's layer list,
// and OpCounters, which the serving scheduler reads twice per step,
// allocates nothing.
func TestOpCountersFromCachedLayers(t *testing.T) {
	m := testModel(t)
	eng := New(Config{})
	cfg := testConfig()
	cfg.FaultRate = 0.02
	dep := eng.Deploy(Request{Model: "m", Net: m, Mode: core.DeployAnalogNaive, Config: cfg})
	dep.Eval(testSeqs(3, 6))
	var want analog.OpCounters
	var macs, rows int64
	var faults analog.FaultStats
	for _, spec := range m.Linears() {
		l := dep.Runner().Linear(spec.Name).(*analog.AnalogLinear)
		want.Add(l.CostCounters())
		macs += l.DigitalEquivalentMACs()
		rows += l.RowsProcessed()
		faults.Add(l.FaultStats())
	}
	if got := dep.OpCounters(); got != want || want.MVMs == 0 {
		t.Fatalf("OpCounters = %+v, layer walk %+v", got, want)
	}
	if dep.DigitalEquivalentMACs() != macs || dep.AnalogRows() != rows || dep.FaultStats() != faults {
		t.Fatalf("MACs %d rows %d faults %+v; layer walk %d, %d, %+v",
			dep.DigitalEquivalentMACs(), dep.AnalogRows(), dep.FaultStats(), macs, rows, faults)
	}
	if allocs := testing.AllocsPerRun(100, func() { dep.OpCounters() }); allocs != 0 {
		t.Fatalf("OpCounters allocates %.0f objects per call", allocs)
	}
}
