package serve

import (
	"fmt"
	"net/http"
	"sync"
	"testing"

	"nora/internal/core"
	"nora/internal/engine"
	"nora/internal/fleet"
	"nora/internal/harness"
	"nora/internal/nn"
	"nora/internal/rng"
)

// testFleetServer builds a server whose fleet has two named chips: "a"
// fresh, "b" worn (stuck-at faults), routed round-robin for determinism.
func testFleetServer(t testing.TB) *Server {
	t.Helper()
	return New(engine.New(engine.Config{}), Config{
		Analog: testAnalog(),
		Fleet: fleet.Config{
			Chips:  []fleet.ChipSpec{{ID: "a"}, {ID: "b", FaultRate: 0.05, FaultSA1Frac: 0.5}},
			Policy: fleet.RoundRobin,
		},
	}, []*harness.Workload{testWorkload(t, "tiny")})
}

// TestDeployPanicSurfacesAs500 is the regression test for the
// server-killing deploy panic: the engine's shape guard (two structurally
// different networks aliasing one deployment identity) panics, and before
// the fix that panic unwound the serving goroutine and killed the process.
// It must surface as a 500 JSON error, and the server must keep serving
// other deployments. Pre-fix this test dies instead of failing politely.
func TestDeployPanicSurfacesAs500(t *testing.T) {
	s := testServer(t, Config{})
	defer s.Close()

	// Poison the shared engine: a structurally different network claiming
	// the same deployment identity the server will derive for
	// (tiny, digital). The harness/CLI keep the loud panic; serve must not.
	other, err := nn.NewModel(nn.Config{
		Arch: nn.ArchOPT, Vocab: 40, DModel: 24, NHeads: 2,
		NLayers: 1, DFF: 48, MaxSeq: 16,
	}, rng.New(4))
	if err != nil {
		t.Fatal(err)
	}
	s.eng.Deploy(engine.Request{Model: "tiny", Net: other, Mode: core.DeployDigital})

	code, body, _ := do(t, s, http.MethodPost, "/v1/eval", `{"model":"tiny","mode":"digital"}`)
	if code != http.StatusInternalServerError {
		t.Fatalf("aliased deploy: %d %v, want 500", code, body)
	}
	if body["error"] == "" {
		t.Fatalf("500 without JSON error body: %v", body)
	}
	// Predict on the same poisoned deployment also fails politely.
	code, body, _ = do(t, s, http.MethodPost, "/v1/predict",
		`{"model":"tiny","mode":"digital","context":[1,2,3]}`)
	if code != http.StatusInternalServerError {
		t.Fatalf("aliased predict: %d %v, want 500", code, body)
	}
	// The process is alive and other deployments of the model still serve.
	code, body, _ = do(t, s, http.MethodPost, "/v1/eval", `{"model":"tiny","mode":"naive"}`)
	if code != http.StatusOK {
		t.Fatalf("healthy mode after poisoned deploy: %d %v", code, body)
	}
}

// TestFleetChipFailureMidTraffic scripts the chip-failure scenario over
// HTTP: concurrent traffic, drain one chip, keep serving — zero requests
// dropped — then fail the whole fleet (503) and restore (200). /statz and
// /v1/chips expose the per-chip states and counters throughout.
func TestFleetChipFailureMidTraffic(t *testing.T) {
	s := testFleetServer(t)
	defer s.Close()

	fire := func(n int) {
		t.Helper()
		var wg sync.WaitGroup
		errs := make(chan string, n)
		for i := 0; i < n; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				code, body, _ := do(t, s, http.MethodPost, "/v1/predict",
					fmt.Sprintf(`{"model":"tiny","mode":"digital","context":[%d,2,3]}`, i%16))
				if code != http.StatusOK {
					errs <- fmt.Sprintf("predict %d: %d %v", i, code, body)
				}
			}(i)
		}
		wg.Wait()
		close(errs)
		for e := range errs {
			t.Error(e)
		}
	}

	fire(12)
	chipA, chipB := s.flt.Chip("a"), s.flt.Chip("b")
	if chipA.Served() == 0 || chipB.Served() == 0 {
		t.Fatalf("round-robin left a chip idle: a=%d b=%d", chipA.Served(), chipB.Served())
	}

	// Drain chip a mid-traffic: every subsequent request lands on b, none
	// dropped.
	code, body, _ := do(t, s, http.MethodPost, "/v1/chips", `{"chip":"a","action":"drain"}`)
	if code != http.StatusOK {
		t.Fatalf("drain: %d %v", code, body)
	}
	servedA := chipA.Served()
	fire(12)
	if chipA.Served() != servedA {
		t.Fatalf("draining chip served new traffic: %d -> %d", servedA, chipA.Served())
	}
	st := s.StatzSnapshot()
	if len(st.Fleet.Chips) != 2 || st.Fleet.Chips[0].State != "draining" || st.Fleet.Chips[1].State != "up" {
		t.Fatalf("fleet statz after drain: %+v", st.Fleet)
	}
	if st.Fleet.Chips[0].Inflight != 0 || st.Fleet.Chips[1].Inflight != 0 {
		t.Fatalf("inflight leaked after traffic finished: %+v", st.Fleet.Chips)
	}

	// Fail the survivor: no replica left, requests answer 503 — not a hang,
	// not a drop without a response.
	if code, body, _ := do(t, s, http.MethodPost, "/v1/chips", `{"chip":"b","action":"fail"}`); code != http.StatusOK {
		t.Fatalf("fail: %d %v", code, body)
	}
	code, body, _ = do(t, s, http.MethodPost, "/v1/predict",
		`{"model":"tiny","mode":"digital","context":[1,2,3]}`)
	if code != http.StatusServiceUnavailable {
		t.Fatalf("fleet fully down: %d %v, want 503", code, body)
	}
	code, body, _ = do(t, s, http.MethodPost, "/v1/eval", `{"model":"tiny","mode":"digital"}`)
	if code != http.StatusServiceUnavailable {
		t.Fatalf("eval on downed fleet: %d %v, want 503", code, body)
	}

	// Restore and serve again.
	for _, chip := range []string{"a", "b"} {
		if code, body, _ := do(t, s, http.MethodPost, "/v1/chips",
			fmt.Sprintf(`{"chip":%q,"action":"restore"}`, chip)); code != http.StatusOK {
			t.Fatalf("restore %s: %d %v", chip, code, body)
		}
	}
	fire(4)
}

// TestChipsEndpoint pins the admin surface: GET lists, reprogram cycles a
// chip (bumping its counter), bad actions and unknown chips answer 4xx.
func TestChipsEndpoint(t *testing.T) {
	s := testFleetServer(t)
	defer s.Close()

	code, body, _ := do(t, s, http.MethodGet, "/v1/chips", "")
	if code != http.StatusOK {
		t.Fatalf("GET chips: %d %v", code, body)
	}
	chips, ok := body["chips"].([]any)
	if !ok || len(chips) != 2 {
		t.Fatalf("chips document: %v", body)
	}

	// Deploy something so reprogramming has hardware to rebuild, then cycle
	// chip b: it must come back up with a fresh realization.
	if code, body, _ := do(t, s, http.MethodPost, "/v1/eval", `{"model":"tiny","mode":"naive"}`); code != http.StatusOK {
		t.Fatalf("eval: %d %v", code, body)
	}
	grp, err := s.group(s.workloads["tiny"], core.DeployAnalogNaive)
	if err != nil {
		t.Fatal(err)
	}
	var worn *fleet.Replica
	for _, rep := range grp.Replicas() {
		if rep.Chip().Spec.ID == "b" {
			worn = rep
		}
	}
	seedBefore := worn.Dep().Seed
	code, body, _ = do(t, s, http.MethodPost, "/v1/chips", `{"chip":"b","action":"reprogram"}`)
	if code != http.StatusOK {
		t.Fatalf("reprogram: %d %v", code, body)
	}
	if s.flt.Chip("b").Reprograms() != 1 || s.flt.Chip("b").State() != fleet.ChipUp {
		t.Fatalf("chip b after reprogram: reprograms=%d state=%v",
			s.flt.Chip("b").Reprograms(), s.flt.Chip("b").State())
	}
	if worn.Dep().Seed == seedBefore {
		t.Fatal("reprogram did not re-key chip b's deployment")
	}
	// The re-programmed replica still serves.
	if code, body, _ := do(t, s, http.MethodPost, "/v1/eval", `{"model":"tiny","mode":"naive"}`); code != http.StatusOK {
		t.Fatalf("eval after reprogram: %d %v", code, body)
	}

	if code, _, _ := do(t, s, http.MethodPost, "/v1/chips", `{"chip":"a","action":"explode"}`); code != http.StatusBadRequest {
		t.Fatalf("unknown action: %d, want 400", code)
	}
	if code, _, _ := do(t, s, http.MethodPost, "/v1/chips", `{"chip":"zz","action":"drain"}`); code != http.StatusNotFound {
		t.Fatalf("unknown chip: %d, want 404", code)
	}
	if code, _, _ := do(t, s, http.MethodDelete, "/v1/chips", ""); code != http.StatusMethodNotAllowed {
		t.Fatalf("DELETE chips: %d, want 405", code)
	}
}

// TestGenerateFollowsReprogram is the regression test for generation
// decoding on pre-reprogram hardware for good: the scheduler built its
// generator from the replica's runner once, at start-up, so after a chip
// re-programmed, /v1/predict and /v1/eval read the new realization while
// every later /v1/generate on that chip still read the old one.
func TestGenerateFollowsReprogram(t *testing.T) {
	s := testFleetServer(t)
	defer s.Close()
	prompt := []int{1, 2, 3, 4}
	const n = 12
	body := fmt.Sprintf(`{"model":"tiny","mode":"naive","prompt":[1,2,3,4],"max_tokens":%d}`, n)
	grp, err := s.group(s.workloads["tiny"], core.DeployAnalogNaive)
	if err != nil {
		t.Fatal(err)
	}
	worn := grp.Replicas()[1] // replica 1 lives on chip b
	greedy := func() []int {
		return nn.NewGenerator(worn.Runner().WithNoiseScope(genScope(prompt))).Greedy(prompt, n)
	}
	generate := func() []int {
		t.Helper()
		code, events, errBody := doGenerate(t, s, body)
		if code != http.StatusOK {
			t.Fatalf("generate: %d %v", code, errBody)
		}
		return tokensOf(events)
	}

	// Drain a so every request lands on b, and start b's scheduler.
	if code, body, _ := do(t, s, http.MethodPost, "/v1/chips", `{"chip":"a","action":"drain"}`); code != http.StatusOK {
		t.Fatalf("drain: %d %v", code, body)
	}
	old := greedy()
	if got := generate(); fmt.Sprint(got) != fmt.Sprint(old) {
		t.Fatalf("generate on chip b streamed %v, want %v", got, old)
	}

	if code, body, _ := do(t, s, http.MethodPost, "/v1/chips", `{"chip":"b","action":"reprogram"}`); code != http.StatusOK {
		t.Fatalf("reprogram: %d %v", code, body)
	}
	want := greedy()
	if fmt.Sprint(want) == fmt.Sprint(old) {
		t.Fatalf("re-programming chip b left its greedy stream at %v (vacuous test)", old)
	}
	if got := generate(); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("generate after re-programming chip b streamed %v, want the new realization's %v (the old one streamed %v)",
			got, want, old)
	}
}

// TestStatzPerChipCost pins the chip-keyed observability: analog
// deployments report cost and fault stats per chip ("model/mode@chip"),
// the implicit single-chip server keeps the legacy flat key, and the worn
// chip's fault stats are visible in its fleet row.
func TestStatzPerChipCost(t *testing.T) {
	s := testFleetServer(t)
	defer s.Close()
	if code, body, _ := do(t, s, http.MethodPost, "/v1/eval", `{"model":"tiny","mode":"naive"}`); code != http.StatusOK {
		t.Fatalf("eval: %d %v", code, body)
	}
	st := s.StatzSnapshot()
	for _, key := range []string{"tiny/analog-naive@a", "tiny/analog-naive@b"} {
		if _, ok := st.DeploymentCost[key]; !ok {
			t.Fatalf("missing chip-keyed deployment cost %q: %v", key, st.DeploymentCost)
		}
	}
	var worn ChipStatz
	for _, row := range st.Fleet.Chips {
		if row.ID == "b" {
			worn = row
		}
	}
	if worn.Faults.Stuck == 0 {
		t.Fatalf("worn chip reports no faults: %+v", st.Fleet.Chips)
	}
	if st.Faults.Stuck < worn.Faults.Stuck {
		t.Fatalf("aggregate faults below chip b's: %+v vs %+v", st.Faults, worn.Faults)
	}

	// The implicit single-chip server keeps the historical flat key.
	s2 := testServer(t, Config{})
	defer s2.Close()
	if code, body, _ := do(t, s2, http.MethodPost, "/v1/eval", `{"model":"tiny","mode":"naive"}`); code != http.StatusOK {
		t.Fatalf("implicit eval: %d %v", code, body)
	}
	st2 := s2.StatzSnapshot()
	if _, ok := st2.DeploymentCost["tiny/analog-naive"]; !ok {
		t.Fatalf("implicit chip lost the legacy cost key: %v", st2.DeploymentCost)
	}
	for key := range st2.DeploymentCost {
		if i := len(key); i > 0 && key[i-1] == 'a' && key[i-2] == '@' {
			t.Fatalf("implicit chip grew a chip suffix: %v", st2.DeploymentCost)
		}
	}
}

// TestOneChipServerBitIdentical pins the serving half of the fleet
// acceptance bar: a zero fleet config serves the very Deployment a
// fleet-unaware engine caller gets — same pointer, same eval numbers.
func TestOneChipServerBitIdentical(t *testing.T) {
	s := testServer(t, Config{})
	defer s.Close()
	wl := s.workloads["tiny"]
	direct := s.eng.Deploy(wl.Request(core.DeployAnalogNaive, s.cfg.Analog, core.Options{}, ""))
	rep := testReplica(t, s, wl, core.DeployAnalogNaive)
	if rep.Dep() != direct {
		t.Fatal("implicit fleet replica does not serve the legacy deployment")
	}
	code, body, _ := do(t, s, http.MethodPost, "/v1/eval", `{"model":"tiny","mode":"naive"}`)
	if code != http.StatusOK {
		t.Fatalf("eval: %d %v", code, body)
	}
	want := direct.Eval(wl.Eval)
	if got := body["accuracy"].(float64); got != want.Accuracy() {
		t.Fatalf("served accuracy %v != direct accuracy %v", got, want.Accuracy())
	}
}
