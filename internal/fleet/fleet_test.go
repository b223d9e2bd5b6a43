package fleet

import (
	"context"
	"sync"
	"testing"

	"nora/internal/analog"
	"nora/internal/core"
	"nora/internal/engine"
	"nora/internal/nn"
	"nora/internal/rng"
)

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

func testRequest(m *nn.Model) engine.Request {
	return engine.Request{Model: "m", Net: m, Mode: core.DeployAnalogNaive, Config: testConfig()}
}

// The acceptance pin: a 1-chip fleet must be bit-identical to today's
// fleet-unaware single-chip deployment — the very same cached Deployment
// (same content key, same seed, same programmed tiles), and therefore the
// same eval results.
func TestOneChipFleetBitIdentical(t *testing.T) {
	m := testModel(t)
	eng := engine.New(engine.Config{})
	req := testRequest(m)
	seqs := testSeqs(10, 6)

	direct := eng.Deploy(req)
	want := direct.Eval(seqs)

	f := New(eng, Config{}) // zero config: one implicit chip, one replica
	g := f.Deploy(req)
	if len(g.Replicas()) != 1 {
		t.Fatalf("implicit fleet built %d replicas, want 1", len(g.Replicas()))
	}
	rep, release, err := g.Acquire()
	if err != nil {
		t.Fatal(err)
	}
	defer release()
	if rep.Dep() != direct {
		t.Fatal("1-chip fleet did not serve the legacy deployment pointer (content key drifted)")
	}
	got, err := rep.EvalCtx(context.Background(), seqs)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("1-chip fleet eval %+v != direct eval %+v", got, want)
	}
}

// Per-chip rng isolation: a chip's fault realization depends only on its
// own ID, never on the rest of the fleet.
func TestChipDrawsIndependentOfFleetComposition(t *testing.T) {
	m := testModel(t)
	req := testRequest(m)
	req.Config.FaultRate, req.Config.FaultSA1Frac = 0.02, 0.5

	chip := ChipSpec{ID: "c1", FaultRate: 0.05}
	small := New(engine.New(engine.Config{}), Config{Chips: []ChipSpec{chip}})
	big := New(engine.New(engine.Config{}), Config{Chips: []ChipSpec{
		{ID: "c0"}, chip, {ID: "c2", FaultRate: 0.01}, {ID: "c3", DriftT: 3600},
	}})

	fsSmall := small.Deploy(req).Replicas()[0].Dep().FaultStats()
	var fsBig analog.FaultStats
	for _, r := range big.Deploy(req).Replicas() {
		if r.Chip().Spec.ID == "c1" {
			fsBig = r.Dep().FaultStats()
		}
	}
	if fsSmall != fsBig {
		t.Fatalf("chip c1's fault realization changed with fleet composition: %+v vs %+v", fsSmall, fsBig)
	}
	if fsSmall.Stuck == 0 {
		t.Fatal("expected faults at 5% rate (vacuous comparison)")
	}

	// And distinct chips realize distinct draws under identical specs.
	twin := New(engine.New(engine.Config{}), Config{Chips: []ChipSpec{
		{ID: "a", FaultRate: 0.05}, {ID: "b", FaultRate: 0.05},
	}})
	reps := twin.Deploy(req).Replicas()
	if reps[0].Dep().FaultStats() == reps[1].Dep().FaultStats() && reps[0].Dep().Seed == reps[1].Dep().Seed {
		t.Fatal("two chips with distinct IDs shared one fault realization")
	}
}

// One replica per chip: replica i of every group lives on chip i, each
// analog replica serves its own chip-keyed deployment, and every digital
// replica shares the one digital deployment.
func TestOneReplicaPerChip(t *testing.T) {
	m := testModel(t)
	digital := testRequest(m)
	digital.Mode, digital.Config = core.DeployDigital, analog.Config{}
	for n := 1; n <= 4; n++ {
		eng := engine.New(engine.Config{})
		f := New(eng, Config{Chips: GradientChips(n, 0.05)})
		analogReps := f.Deploy(testRequest(m)).Replicas()
		digitalReps := f.Deploy(digital).Replicas()
		if len(analogReps) != n || len(digitalReps) != n {
			t.Fatalf("%d chips: %d analog and %d digital replicas, want %d each",
				n, len(analogReps), len(digitalReps), n)
		}
		seen := make(map[*engine.Deployment]bool)
		for i, chip := range f.Chips() {
			a, d := analogReps[i], digitalReps[i]
			if a.Index != i || d.Index != i || a.Chip() != chip || d.Chip() != chip {
				t.Fatalf("%d chips: replica %d is not on chip %d", n, i, i)
			}
			want := testRequest(m)
			want.Chip, want.Config = chip.Spec.ID, chip.Spec.Apply(want.Config)
			if a.ChipID() != chip.Spec.ID || a.Dep() != eng.Deploy(want) {
				t.Fatalf("%d chips: analog replica %d does not serve chip %q's keyed deployment", n, i, chip.Spec.ID)
			}
			if seen[a.Dep()] {
				t.Fatalf("%d chips: analog replica %d shares a deployment", n, i)
			}
			seen[a.Dep()] = true
			if d.ChipID() != "" || d.Dep() != eng.Deploy(digital) {
				t.Fatalf("%d chips: digital replica %d does not share the digital deployment", n, i)
			}
		}
	}
}

func TestRouterPick(t *testing.T) {
	up := func(load, health float64) Candidate {
		return Candidate{Available: true, Load: load, Health: health}
	}
	down := Candidate{}
	cases := []struct {
		name   string
		policy Policy
		rr     int64
		cands  []Candidate
		want   int
	}{
		{"rr cycles", RoundRobin, 1, []Candidate{up(0, 0), up(0, 0), up(0, 0)}, 1},
		{"rr skips down", RoundRobin, 0, []Candidate{down, up(9, 9), up(0, 0)}, 1},
		{"rr none available", RoundRobin, 0, []Candidate{down, down}, -1},
		{"health prefers idle", HealthAware, 0, []Candidate{up(3, 0), up(0, 0)}, 1},
		{"health penalizes faults", HealthAware, 0, []Candidate{up(0, 0.02), up(1, 0)}, 1},
		{"load can outweigh health", HealthAware, 0, []Candidate{up(0, 0.02), up(500, 0)}, 0},
		{"health skips down", HealthAware, 0, []Candidate{down, up(5, 0.5)}, 1},
		{"health tie breaks low index", HealthAware, 7, []Candidate{up(1, 0), up(1, 0)}, 0},
		{"empty", HealthAware, 0, nil, -1},
	}
	for _, tc := range cases {
		if got := Pick(tc.policy, tc.rr, tc.cands); got != tc.want {
			t.Errorf("%s: Pick = %d, want %d", tc.name, got, tc.want)
		}
	}
}

// Health-aware routing on a real fleet: a heavily faulted chip should
// receive no traffic while a clean replica sits idle.
func TestHealthAwareAvoidsFaultyChip(t *testing.T) {
	m := testModel(t)
	f := New(engine.New(engine.Config{}), Config{
		Chips:  []ChipSpec{{ID: "fresh"}, {ID: "worn", FaultRate: 0.08, FaultSA1Frac: 0.5}},
		Policy: HealthAware,
	})
	g := f.Deploy(testRequest(m))
	for i := 0; i < 5; i++ {
		rep, release, err := g.Acquire()
		if err != nil {
			t.Fatal(err)
		}
		if rep.Chip().Spec.ID != "fresh" {
			t.Fatalf("health-aware router sent request %d to the worn chip (health %v vs %v)",
				i, g.Replicas()[0].HealthScore(), g.Replicas()[1].HealthScore())
		}
		release()
	}
	// With the fresh replica saturated, traffic spills to the worn one once
	// its load exceeds the worn replica's weighted health penalty.
	spillAt := int(HealthWeight*g.Replicas()[1].HealthScore()) + 10
	var releases []func()
	for i := 0; i < spillAt; i++ {
		rep, release, err := g.Acquire()
		if err != nil {
			t.Fatal(err)
		}
		releases = append(releases, release)
		if rep.Chip().Spec.ID == "worn" {
			break
		}
	}
	worn := f.Chip("worn")
	if worn.Served() == 0 {
		t.Fatal("router never spilled to the worn chip under load")
	}
	for _, r := range releases {
		r()
	}
}

// Drain/Fail/Restore: the router must exclude replicas on non-up chips and
// error out when nothing is left; release stays idempotent.
func TestDrainFailRestoreRouting(t *testing.T) {
	m := testModel(t)
	f := New(engine.New(engine.Config{}), Config{
		Chips: []ChipSpec{{ID: "a"}, {ID: "b"}},
	})
	g := f.Deploy(testRequest(m))

	if err := f.Drain("a"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		rep, release, err := g.Acquire()
		if err != nil {
			t.Fatal(err)
		}
		if rep.Chip().Spec.ID != "b" {
			t.Fatal("router sent traffic to a draining chip")
		}
		release()
		release() // idempotent: double release must not corrupt inflight
	}
	if got := g.Replicas()[1].Inflight(); got != 0 {
		t.Fatalf("inflight after releases = %d, want 0", got)
	}
	if err := f.Fail("b"); err != nil {
		t.Fatal(err)
	}
	if _, _, err := g.Acquire(); err == nil {
		t.Fatal("Acquire succeeded with every chip out of service")
	}
	if err := f.Restore("a"); err != nil {
		t.Fatal(err)
	}
	rep, release, err := g.Acquire()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Chip().Spec.ID != "a" {
		t.Fatal("restored chip did not return to rotation")
	}
	release()
	if err := f.Drain("nope"); err == nil {
		t.Fatal("Drain of an unknown chip must error")
	}
}

// Reprogramming gives the chip a fresh fault realization (new seed, same
// determinism) and leaves the fleet serving throughout.
func TestReprogramRealizesFreshFaults(t *testing.T) {
	m := testModel(t)
	f := New(engine.New(engine.Config{}), Config{
		Chips: []ChipSpec{{ID: "a", FaultRate: 0.05, FaultSA1Frac: 0.5}, {ID: "b"}},
	})
	req := testRequest(m)
	g := f.Deploy(req)
	repA := g.Replicas()[0]
	seedBefore := repA.Dep().Seed
	fsBefore := repA.Dep().FaultStats()

	if err := f.Reprogram(context.Background(), "a"); err != nil {
		t.Fatal(err)
	}
	if f.Chip("a").State() != ChipUp {
		t.Fatal("chip not returned to service after reprogram")
	}
	if f.Chip("a").Reprograms() != 1 {
		t.Fatalf("reprogram count = %d", f.Chip("a").Reprograms())
	}
	if repA.Dep().Seed == seedBefore {
		t.Fatal("reprogram did not re-key the chip's deployment")
	}
	if repA.Dep().FaultStats() == fsBefore && fsBefore.Stuck > 0 {
		t.Fatal("reprogram kept the identical fault realization (suspicious)")
	}

	// Deterministic: a second fleet walked through the same reprogram
	// lands on the same post-reprogram seed.
	f2 := New(engine.New(engine.Config{}), Config{
		Chips: []ChipSpec{{ID: "a", FaultRate: 0.05, FaultSA1Frac: 0.5}, {ID: "b"}},
	})
	g2 := f2.Deploy(req)
	if err := f2.Reprogram(context.Background(), "a"); err != nil {
		t.Fatal(err)
	}
	if g2.Replicas()[0].Dep().Seed != repA.Dep().Seed {
		t.Fatal("post-reprogram hardware state is not deterministic")
	}

	if err := f.RollingReprogram(context.Background()); err != nil {
		t.Fatal(err)
	}
	if f.Chip("a").Reprograms() != 2 || f.Chip("b").Reprograms() != 1 {
		t.Fatalf("rolling reprogram counts: a=%d b=%d", f.Chip("a").Reprograms(), f.Chip("b").Reprograms())
	}
}

// Reprogram must wait for in-flight work on the chip to finish before
// taking it down (the zero-dropped-requests drain contract).
func TestReprogramWaitsForInflight(t *testing.T) {
	m := testModel(t)
	f := New(engine.New(engine.Config{}), Config{Chips: []ChipSpec{{ID: "a"}, {ID: "b"}}})
	g := f.Deploy(testRequest(m))
	rep, release, err := g.Acquire()
	if err != nil {
		t.Fatal(err)
	}
	id := rep.Chip().Spec.ID

	done := make(chan error, 1)
	go func() { done <- f.Reprogram(context.Background(), id) }()

	// While our request is in flight, the reprogram must not complete.
	select {
	case err := <-done:
		t.Fatalf("reprogram finished with a request in flight (err=%v)", err)
	default:
	}
	// A canceled context unblocks the wait.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := f.Reprogram(ctx, "b"); err == nil {
		// chip b is idle, so this succeeds — fine; only the in-flight chip blocks.
		_ = err
	}
	release()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

// Concurrent Deploy and Acquire must be race-free and serve one group.
func TestConcurrentDeployAcquire(t *testing.T) {
	m := testModel(t)
	f := New(engine.New(engine.Config{}), Config{
		Chips:  []ChipSpec{{ID: "a"}, {ID: "b"}, {ID: "c"}},
		Policy: HealthAware,
	})
	req := testRequest(m)
	var wg sync.WaitGroup
	groups := make([]*Group, 8)
	for i := range groups {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			g := f.Deploy(req)
			groups[i] = g
			for j := 0; j < 50; j++ {
				rep, release, err := g.Acquire()
				if err != nil {
					t.Error(err)
					return
				}
				_ = rep.HealthScore()
				release()
			}
		}(i)
	}
	wg.Wait()
	for _, g := range groups[1:] {
		if g != groups[0] {
			t.Fatal("concurrent Deploy produced distinct groups")
		}
	}
	var inflight int64
	for _, c := range f.Chips() {
		inflight += c.Inflight()
	}
	if inflight != 0 {
		t.Fatalf("inflight leaked: %d", inflight)
	}
}

func TestFleetConfigValidation(t *testing.T) {
	eng := engine.New(engine.Config{})
	mustPanic := func(name string, cfg Config) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: New did not panic", name)
			}
		}()
		New(eng, cfg)
	}
	mustPanic("duplicate IDs", Config{Chips: []ChipSpec{{ID: "x"}, {ID: "x"}}})
	mustPanic("implicit chip with overlays", Config{Chips: []ChipSpec{{FaultRate: 0.1}}})
}
