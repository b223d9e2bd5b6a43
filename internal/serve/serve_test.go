package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"testing"
	"time"

	"nora/internal/analog"
	"nora/internal/core"
	"nora/internal/engine"
	"nora/internal/fleet"
	"nora/internal/harness"
	"nora/internal/model"
	"nora/internal/nn"
	"nora/internal/rng"
)

// testWorkload builds a workload over a small untrained model — serving
// mechanics (batching, admission, cancellation, determinism) do not care
// about accuracy.
func testWorkload(t testing.TB, key string) *harness.Workload {
	t.Helper()
	cfg := nn.Config{
		Arch: nn.ArchOPT, Vocab: 40, DModel: 16, NHeads: 2,
		NLayers: 1, DFF: 32, MaxSeq: 16,
	}
	m, err := nn.NewModel(cfg, rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	seqs := make([][]int, 12)
	r := rng.New(9)
	for i := range seqs {
		seq := make([]int, 8)
		for j := range seq {
			seq[j] = int(r.Uint64() % 40)
		}
		seqs[i] = seq
	}
	return &harness.Workload{
		Spec:  model.Spec{Key: key, Display: key, Family: "opt"},
		Model: m,
		Eval:  seqs,
		Calib: seqs,
	}
}

// testAnalog is a small, fast tile configuration for analog deployments.
func testAnalog() analog.Config {
	cfg := analog.PaperPreset()
	cfg.TileRows, cfg.TileCols = 32, 32
	return cfg
}

func testServer(t testing.TB, cfg Config) *Server {
	t.Helper()
	if cfg.Analog == (analog.Config{}) {
		cfg.Analog = testAnalog()
	}
	return New(engine.New(engine.Config{}), cfg, []*harness.Workload{testWorkload(t, "tiny")})
}

// testReplica resolves a fleet replica directly — for tests that drive the
// batcher/scheduler internals without going through a handler. The zero
// fleet config routes everything to the single implicit replica.
func testReplica(t testing.TB, s *Server, wl *harness.Workload, mode core.DeployMode) *fleet.Replica {
	t.Helper()
	grp, err := s.group(wl, mode)
	if err != nil {
		t.Fatal(err)
	}
	return grp.Replicas()[0]
}

// do runs one request through the handler stack, returning the code and
// decoded JSON body.
func do(t testing.TB, s *Server, method, path, body string) (int, map[string]any, http.Header) {
	t.Helper()
	req := httptest.NewRequest(method, path, bytes.NewReader([]byte(body)))
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	var decoded map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &decoded); err != nil {
		t.Fatalf("%s %s: non-JSON response %q", method, path, rec.Body.String())
	}
	return rec.Code, decoded, rec.Header()
}

func TestPredictHappyPath(t *testing.T) {
	s := testServer(t, Config{})
	defer s.Close()
	code, body, _ := do(t, s, http.MethodPost, "/v1/predict",
		`{"model":"tiny","mode":"digital","context":[1,2,3,4]}`)
	if code != http.StatusOK {
		t.Fatalf("predict: %d %v", code, body)
	}
	tok, ok := body["token"].(float64)
	if !ok || tok < 0 || tok >= 40 {
		t.Fatalf("predict token out of vocabulary: %v", body)
	}
	if body["mode"] != "digital-fp" {
		t.Fatalf("mode echo = %v", body["mode"])
	}
	if bs, _ := body["batch_size"].(float64); bs < 1 {
		t.Fatalf("batch_size = %v", body["batch_size"])
	}
	// Same context again: deterministic answer (digital and analog alike).
	code2, body2, _ := do(t, s, http.MethodPost, "/v1/predict",
		`{"model":"tiny","mode":"digital","context":[1,2,3,4]}`)
	if code2 != http.StatusOK || body2["token"] != body["token"] {
		t.Fatalf("repeat predict diverged: %v vs %v", body2, body)
	}
}

func TestPredictErrors(t *testing.T) {
	s := testServer(t, Config{})
	defer s.Close()
	for _, tc := range []struct {
		name, body string
		code       int
	}{
		{"malformed JSON", `{"model":`, http.StatusBadRequest},
		{"unknown model", `{"model":"nope","context":[1]}`, http.StatusNotFound},
		{"unknown mode", `{"model":"tiny","mode":"quantum","context":[1]}`, http.StatusBadRequest},
		{"empty context", `{"model":"tiny","mode":"digital","context":[]}`, http.StatusBadRequest},
		{"token out of vocab", `{"model":"tiny","mode":"digital","context":[1,99]}`, http.StatusBadRequest},
		{"context too long", `{"model":"tiny","mode":"digital","context":[1,1,1,1,1,1,1,1,1,1,1,1,1,1,1,1,1]}`, http.StatusBadRequest},
	} {
		code, body, _ := do(t, s, http.MethodPost, "/v1/predict", tc.body)
		if code != tc.code {
			t.Errorf("%s: code %d (%v), want %d", tc.name, code, body, tc.code)
		}
		if body["error"] == "" {
			t.Errorf("%s: missing error body: %v", tc.name, body)
		}
	}
	if code, _, _ := do(t, s, http.MethodGet, "/v1/predict", ""); code != http.StatusMethodNotAllowed {
		t.Errorf("GET predict: %d, want 405", code)
	}
}

// idleScheduler registers the scheduler of one mode of the tiny workload
// without starting its loop, so a test can fill its queue first. Start it
// with s.wg.Add(1) and go g.loop(); Close then waits for it like any other.
func idleScheduler(t testing.TB, s *Server, mode core.DeployMode) *genScheduler {
	t.Helper()
	wl := s.workloads["tiny"]
	rep := testReplica(t, s, wl, mode)
	g := &genScheduler{srv: s, wl: wl, mode: mode, rep: rep,
		queue: make(chan *genJob, s.cfg.QueueDepth), stop: make(chan struct{})}
	s.mu.Lock()
	s.genScheds[fmt.Sprintf("%s/%s#%d", wl.Spec.Key, mode, rep.Index)] = g
	s.mu.Unlock()
	return g
}

// scopedPredict is what a served predict must answer: the replica's runner
// read under the request's content scope, alone.
func scopedPredict(t testing.TB, s *Server, mode core.DeployMode, ctx []int) int {
	t.Helper()
	rep := testReplica(t, s, s.workloads["tiny"], mode)
	return rep.Runner().WithNoiseScope(contentScope("serve/predict/", ctx)).PredictLast(ctx)
}

// predictAll sends one predict per context concurrently and returns the
// status codes and bodies in context order.
func predictAll(t testing.TB, s *Server, mode string, ctxs [][]int) ([]int, []map[string]any) {
	codes := make([]int, len(ctxs))
	bodies := make([]map[string]any, len(ctxs))
	var wg sync.WaitGroup
	for i, ctx := range ctxs {
		wg.Add(1)
		go func(i int, ctx []int) {
			defer wg.Done()
			body, _ := json.Marshal(map[string]any{"model": "tiny", "mode": mode, "context": ctx})
			codes[i], bodies[i], _ = do(t, s, http.MethodPost, "/v1/predict", string(body))
		}(i, ctx)
	}
	wg.Wait()
	return codes, bodies
}

// waitQueued blocks until the scheduler's queue holds n jobs.
func waitQueued(g *genScheduler, n int) {
	for len(g.queue) < n {
		time.Sleep(time.Millisecond)
	}
}

// TestPredictQueueFull pins the bounded-admission contract: a full queue
// answers 429 with a Retry-After hint instead of queueing unbounded, and
// predicts and generates share the replica's one queue.
func TestPredictQueueFull(t *testing.T) {
	s := testServer(t, Config{QueueDepth: 2})
	defer s.Close()
	g := idleScheduler(t, s, core.DeployDigital)
	for i := 0; i < 2; i++ {
		g.queue <- newPredictJob(context.Background(), []int{1}, time.Now())
	}
	code, body, hdr := do(t, s, http.MethodPost, "/v1/predict",
		`{"model":"tiny","mode":"digital","context":[1,2,3]}`)
	if code != http.StatusTooManyRequests {
		t.Fatalf("full queue: %d %v, want 429", code, body)
	}
	if hdr.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	code, _, body = doGenerate(t, s, `{"model":"tiny","mode":"digital","prompt":[1,2],"max_tokens":2}`)
	if code != http.StatusTooManyRequests {
		t.Fatalf("generate behind full predict queue: %d %v, want 429", code, body)
	}
	st := s.StatzSnapshot().Gen
	if st.Predict.QueueFull != 1 || st.Predict.Requests != 0 || st.QueueFull != 1 {
		t.Fatalf("queue_full counters: %+v", st)
	}
}

// TestQueuedPredictsShareStep: predicts queued while the scheduler is busy
// ride its next step together, whole, whatever the generate-prompt budget —
// visible in each reply's batch_size and in /statz — and each still
// answers its scoped single-request bytes.
func TestQueuedPredictsShareStep(t *testing.T) {
	s := testServer(t, Config{PrefillChunk: 2})
	defer s.Close()
	g := idleScheduler(t, s, core.DeployAnalogNaive)
	ctxs := [][]int{{5, 6, 7}, {1, 2}, {9, 8, 7, 6}, {3}}
	var codes []int
	var bodies []map[string]any
	done := make(chan struct{})
	go func() {
		codes, bodies = predictAll(t, s, "naive", ctxs)
		close(done)
	}()
	waitQueued(g, len(ctxs))
	s.wg.Add(1)
	go g.loop()
	<-done
	for i, ctx := range ctxs {
		if codes[i] != http.StatusOK {
			t.Fatalf("predict %v: %d %v", ctx, codes[i], bodies[i])
		}
		if bs := bodies[i]["batch_size"].(float64); int(bs) != len(ctxs) {
			t.Fatalf("predict %v rode a step of %v sequences, want %d", ctx, bs, len(ctxs))
		}
		if got, want := int(bodies[i]["token"].(float64)), scopedPredict(t, s, core.DeployAnalogNaive, ctx); got != want {
			t.Fatalf("predict %v: token %d, want %d", ctx, got, want)
		}
	}
	st := s.StatzSnapshot().Gen
	if st.Predict.Requests != int64(len(ctxs)) || st.Steps != 1 || st.MeanSeqs != float64(len(ctxs)) || st.MaxBatch != int64(len(ctxs)) {
		t.Fatalf("scheduler statz after one shared step: %+v", st)
	}
	if st.Requests != 0 || st.Tokens != 0 || st.Prefills != 0 {
		t.Fatalf("predicts counted as generations: %+v", st)
	}
}

// TestPredictMatchesScopedPredictLast pins predict's bytes: under
// concurrent load, whatever steps the requests share, chunk or split into,
// every served token equals the replica's runner read alone under the
// request's content scope — on digital, naive and NORA deployments.
func TestPredictMatchesScopedPredictLast(t *testing.T) {
	r := rng.New(22)
	ctxs := make([][]int, 24)
	for i := range ctxs {
		ctx := make([]int, 1+int(r.Uint64()%16))
		for j := range ctx {
			ctx[j] = int(r.Uint64() % 40)
		}
		ctxs[i] = ctx
	}
	if runtime.GOMAXPROCS(0) < 2 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2)) // steps split on 1-CPU runners too
	}
	for _, mode := range []core.DeployMode{core.DeployDigital, core.DeployAnalogNaive, core.DeployAnalogNORA} {
		t.Run(mode.String(), func(t *testing.T) {
			s := testServer(t, Config{})
			defer s.Close()
			for lo := 0; lo < len(ctxs); lo += 12 {
				codes, bodies := predictAll(t, s, mode.String(), ctxs[lo:lo+12])
				for i, ctx := range ctxs[lo : lo+12] {
					if codes[i] != http.StatusOK {
						t.Fatalf("predict %v: %d %v", ctx, codes[i], bodies[i])
					}
					if got, want := int(bodies[i]["token"].(float64)), scopedPredict(t, s, mode, ctx); got != want {
						t.Fatalf("predict %v: served %d, scoped PredictLast %d", ctx, got, want)
					}
				}
			}
		})
	}
}

// TestPredictWaitsForSlot: a predict that arrives while generations hold
// every slot parks, emits nothing while they run, and is answered with its
// scoped bytes in the first step after a slot frees.
func TestPredictWaitsForSlot(t *testing.T) {
	s := testServer(t, Config{})
	defer s.Close()
	wl := s.workloads["tiny"]
	rep := testReplica(t, s, wl, core.DeployAnalogNaive)
	g := &genScheduler{srv: s, wl: wl, mode: core.DeployAnalogNaive, rep: rep,
		queue: make(chan *genJob, 4), stop: make(chan struct{})}
	bg := nn.NewBatchGeneratorPaged(rep.Runner(), 1, 0, 0)

	gen := mkGenJob(context.Background(), []int{1, 2, 3}, 4)
	active, parked := g.admit(bg, nil, gen)
	if parked != nil || len(active) != 1 {
		t.Fatalf("generate admission: active=%d parked=%v", len(active), parked)
	}
	ctx := []int{9, 8, 7, 6}
	pred := newPredictJob(context.Background(), ctx, time.Now())
	if active, parked = g.admit(bg, active, pred); parked != pred {
		t.Fatalf("predict admitted with every slot held: parked=%v", parked)
	}
	for len(active) > 0 {
		active = g.step(rep.Dep(), bg, active)
		if len(pred.events) != 0 {
			t.Fatal("parked predict answered while the generation held its slot")
		}
	}
	if ev := drainFinal(t, gen); ev.FinishReason != "length" {
		t.Fatalf("generation final: %+v", ev)
	}
	if active, parked = g.admit(bg, nil, pred); parked != nil || len(active) != 1 {
		t.Fatalf("predict retry after the slot freed: active=%d parked=%v", len(active), parked)
	}
	if active = g.step(rep.Dep(), bg, active); len(active) != 0 || bg.Free() != 1 {
		t.Fatalf("answered predict still holds its slot: active=%d free=%d", len(active), bg.Free())
	}
	ev := <-pred.events
	if want := scopedPredict(t, s, core.DeployAnalogNaive, ctx); ev.Done || ev.Token != want || pred.batchSize != 1 {
		t.Fatalf("predict answer %+v (step of %d), want token %d", ev, pred.batchSize, want)
	}
}

// TestPredictAnsweredAtClose: a drain never drops admitted work. Predicts
// queued when Close begins are answered before it returns, while a queued
// generation ends with a shutdown final.
func TestPredictAnsweredAtClose(t *testing.T) {
	s := testServer(t, Config{})
	g := idleScheduler(t, s, core.DeployAnalogNaive)
	gen := mkGenJob(context.Background(), []int{1, 2}, 4)
	g.queue <- gen
	ctxs := [][]int{{4, 4, 4}, {7, 1}, {2, 9, 5, 3, 8}}
	var codes []int
	var bodies []map[string]any
	done := make(chan struct{})
	go func() {
		codes, bodies = predictAll(t, s, "naive", ctxs)
		close(done)
	}()
	waitQueued(g, 1+len(ctxs))
	s.wg.Add(1)
	closed := make(chan struct{})
	go func() {
		s.Close()
		close(closed)
	}()
	<-g.stop // Close has shut admission and signaled the scheduler
	go g.loop()
	<-closed
	<-done
	for i, ctx := range ctxs {
		if codes[i] != http.StatusOK {
			t.Fatalf("predict %v queued at Close: %d %v", ctx, codes[i], bodies[i])
		}
		if got, want := int(bodies[i]["token"].(float64)), scopedPredict(t, s, core.DeployAnalogNaive, ctx); got != want {
			t.Fatalf("predict %v answered %d at Close, want %d", ctx, got, want)
		}
	}
	if ev := drainFinal(t, gen); ev.FinishReason != "shutdown" {
		t.Fatalf("queued generation at Close: %+v, want a shutdown final", ev)
	}
}

// TestContentScopeLabels pins the scope labels of served requests: they
// key every served noise stream, so a changed byte changes every analog
// answer.
func TestContentScopeLabels(t *testing.T) {
	for _, tc := range []struct {
		prefix string
		tokens []int
		want   string
	}{
		{"serve/predict/", []int{1, 2, 3, 4, 5}, "serve/predict/a73c4fcedb1fd5a4"},
		{"serve/gen/", []int{1, 2, 3, 4, 5}, "serve/gen/a73c4fcedb1fd5a4"},
		{"serve/predict/", []int{0, 39, 1 << 40, 7}, "serve/predict/41494919c2e6e64a"},
		{"serve/gen/", []int{0, 39, 1 << 40, 7}, "serve/gen/41494919c2e6e64a"},
	} {
		if got := contentScope(tc.prefix, tc.tokens); got != tc.want {
			t.Errorf("contentScope(%q, %v) = %q, want %q", tc.prefix, tc.tokens, got, tc.want)
		}
	}
}

// TestPredictBatchIndependence pins the serving determinism contract: the
// answer for a context is identical whether the request ran alone or
// shared steps with other requests (noise is scoped by request content,
// not batch position).
func TestPredictBatchIndependence(t *testing.T) {
	alone := testServer(t, Config{})
	probe := `{"model":"tiny","mode":"naive","context":[9,8,7,6]}`
	code, soloResp, _ := do(t, alone, http.MethodPost, "/v1/predict", probe)
	if code != http.StatusOK {
		t.Fatalf("solo predict: %d %v", code, soloResp)
	}
	alone.Close()

	crowd := testServer(t, Config{})
	defer crowd.Close()
	if code, body, _ := do(t, crowd, http.MethodPost, "/v1/predict", probe); code != http.StatusOK {
		t.Fatalf("warmup: %d %v", code, body)
	}
	var wg sync.WaitGroup
	var probeResp map[string]any
	for i := 0; i < 6; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			body := fmt.Sprintf(`{"model":"tiny","mode":"naive","context":[%d,3,1]}`, i)
			do(t, crowd, http.MethodPost, "/v1/predict", body)
		}(i)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, probeResp, _ = do(t, crowd, http.MethodPost, "/v1/predict", probe)
	}()
	wg.Wait()
	if probeResp["token"] != soloResp["token"] {
		t.Fatalf("batched answer %v != solo answer %v", probeResp["token"], soloResp["token"])
	}
}

func TestEvalEndpoint(t *testing.T) {
	s := testServer(t, Config{})
	defer s.Close()
	// Default split: omitted sequences select the workload's eval split.
	code, body, _ := do(t, s, http.MethodPost, "/v1/eval", `{"model":"tiny","mode":"digital"}`)
	if code != http.StatusOK {
		t.Fatalf("eval: %d %v", code, body)
	}
	if body["evaluated"].(float64) != 12 {
		t.Fatalf("eval count: %v", body)
	}
	// The server's answer must agree exactly with the offline engine path.
	wl := s.workloads["tiny"]
	want := testReplica(t, s, wl, core.DeployDigital).Dep().Eval(wl.Eval)
	if got := body["accuracy"].(float64); got != want.Accuracy() {
		t.Fatalf("served accuracy %v != engine accuracy %v", got, want.Accuracy())
	}
	// Second call hits the engine memo.
	if code, _, _ := do(t, s, http.MethodPost, "/v1/eval", `{"model":"tiny","mode":"digital"}`); code != http.StatusOK {
		t.Fatal("repeat eval failed")
	}
	if stats := s.StatzSnapshot(); stats.Engine.EvalHits < 1 {
		t.Fatalf("repeat eval missed the memo: %+v", stats.Engine)
	}

	// Explicit sequences and validation.
	code, body, _ = do(t, s, http.MethodPost, "/v1/eval",
		`{"model":"tiny","mode":"digital","sequences":[[1,2,3],[4,99,6]]}`)
	if code != http.StatusBadRequest {
		t.Fatalf("bad sequence accepted: %d %v", code, body)
	}
	code, _, _ = do(t, s, http.MethodPost, "/v1/eval", `{"model":"gone"}`)
	if code != http.StatusNotFound {
		t.Fatalf("unknown model: %d", code)
	}
}

func TestHealthzAndStatz(t *testing.T) {
	s := testServer(t, Config{})
	defer s.Close()
	code, body, _ := do(t, s, http.MethodGet, "/healthz", "")
	if code != http.StatusOK || body["status"] != "ok" {
		t.Fatalf("healthz: %d %v", code, body)
	}
	models, _ := body["models"].([]any)
	if len(models) != 1 || models[0] != "tiny" {
		t.Fatalf("healthz models: %v", body)
	}

	if code, body, _ := do(t, s, http.MethodPost, "/v1/predict",
		`{"model":"tiny","mode":"naive","context":[1,2]}`); code != http.StatusOK {
		t.Fatalf("predict for statz: %d %v", code, body)
	}
	// An analog eval pass: engine-wide cost only prices counted (completed
	// evaluation) events, so this is what populates statz.cost below.
	if code, body, _ := do(t, s, http.MethodPost, "/v1/eval",
		`{"model":"tiny","mode":"naive"}`); code != http.StatusOK {
		t.Fatalf("eval for statz: %d %v", code, body)
	}
	code, body, _ = do(t, s, http.MethodGet, "/statz", "")
	if code != http.StatusOK {
		t.Fatalf("statz: %d", code)
	}
	eps, _ := body["endpoints"].(map[string]any)
	pred, _ := eps["/v1/predict"].(map[string]any)
	if pred["count"].(float64) < 1 || pred["p99_ms"].(float64) <= 0 {
		t.Fatalf("predict histogram empty: %v", pred)
	}
	eng, _ := body["engine"].(map[string]any)
	if eng == nil {
		t.Fatalf("statz missing engine stats: %v", body)
	}
	gen, _ := body["gen"].(map[string]any)
	predict, _ := gen["predict"].(map[string]any)
	if predict["requests"].(float64) < 1 || gen["steps"].(float64) < 1 || gen["queue_depth"].(float64) != DefaultQueueDepth {
		t.Fatalf("statz scheduler counters: %v", gen)
	}

	// The naive-mode predict above ran on analog tiles, so the cost wiring
	// must surface priced hardware events: the engine-wide comparison and a
	// per-deployment entry.
	cost, _ := body["cost"].(map[string]any)
	if cost == nil {
		t.Fatalf("statz missing cost report: %v", body)
	}
	if analogSide, _ := cost["analog"].(map[string]any); analogSide == nil || analogSide["energy_pj"].(float64) <= 0 {
		t.Fatalf("statz cost carries no analog energy: %v", cost)
	}
	depCost, _ := body["deployment_cost"].(map[string]any)
	if len(depCost) == 0 {
		t.Fatalf("statz missing per-deployment cost: %v", body)
	}
	for key, v := range depCost {
		dc, _ := v.(map[string]any)
		if dc == nil || dc["energy_saving"].(float64) <= 0 {
			t.Fatalf("deployment %q cost not priced: %v", key, v)
		}
	}
}

// TestGracefulShutdown drives a live HTTP server with concurrent clients
// while it shuts down; run under -race in CI. Every admitted request must
// be answered (drained), late requests must see a clean 503, and Close
// must return with no goroutine stuck.
func TestGracefulShutdown(t *testing.T) {
	s := testServer(t, Config{})
	ts := httptest.NewServer(s)

	const clients = 8
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			body := fmt.Sprintf(`{"model":"tiny","mode":"digital","context":[%d,1,2]}`, c%16)
			for {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := http.Post(ts.URL+"/v1/predict", "application/json", bytes.NewReader([]byte(body)))
				if err != nil {
					return // listener closed mid-flight
				}
				if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusServiceUnavailable &&
					resp.StatusCode != http.StatusTooManyRequests {
					t.Errorf("client %d: unexpected status %d", c, resp.StatusCode)
				}
				resp.Body.Close()
			}
		}(c)
	}
	time.Sleep(50 * time.Millisecond) // let traffic flow
	close(stop)
	ts.Close() // drains in-flight HTTP handlers
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()

	// The server is drained: a late request is rejected, not queued.
	req := httptest.NewRequest(http.MethodPost, "/v1/predict",
		bytes.NewReader([]byte(`{"model":"tiny","mode":"digital","context":[1]}`)))
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("post-shutdown predict: %d, want 503", rec.Code)
	}
	// Close is idempotent.
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestPredictDeadline: a microscopic client deadline must produce a 504,
// and the storm of expirations must not corrupt the deployment — the same
// context still answers identically afterwards (cancellation never changes
// hardware state or noise streams).
func TestPredictDeadline(t *testing.T) {
	s := testServer(t, Config{})
	defer s.Close()
	probe := `{"model":"tiny","mode":"naive","context":[4,4,4]}`
	code, before, _ := do(t, s, http.MethodPost, "/v1/predict", probe)
	if code != http.StatusOK {
		t.Fatalf("baseline predict: %d", code)
	}
	// A 1 ms budget may or may not expire before the forward finishes;
	// either outcome (200 or 504) is legal — the assertion is that the
	// expirations leave the deployment's answers unchanged.
	for i := 0; i < 16; i++ {
		code, body, _ := do(t, s, http.MethodPost, "/v1/predict",
			`{"model":"tiny","mode":"naive","context":[7,7,7],"timeout_ms":1}`)
		if code != http.StatusOK && code != http.StatusGatewayTimeout {
			t.Fatalf("deadline predict %d: %d %v", i, code, body)
		}
	}
	code, after, _ := do(t, s, http.MethodPost, "/v1/predict", probe)
	if code != http.StatusOK || after["token"] != before["token"] {
		t.Fatalf("post-deadline-storm predict diverged: %d %v vs %v", code, after, before)
	}
}
