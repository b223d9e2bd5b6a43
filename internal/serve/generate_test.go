package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"nora/internal/core"
	"nora/internal/nn"
	"nora/internal/rng"
)

// doGenerate runs one /v1/generate request through the handler stack and
// parses the NDJSON stream: token events in order, then the final event.
func doGenerate(t testing.TB, s *Server, body string) (int, []generateEvent, map[string]any) {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, "/v1/generate", bytes.NewReader([]byte(body)))
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code >= 400 {
		var decoded map[string]any
		if err := json.Unmarshal(rec.Body.Bytes(), &decoded); err != nil {
			t.Fatalf("non-JSON error response %q", rec.Body.String())
		}
		return rec.Code, nil, decoded
	}
	var events []generateEvent
	sc := bufio.NewScanner(rec.Body)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		var ev generateEvent
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", line, err)
		}
		events = append(events, ev)
	}
	return rec.Code, events, nil
}

// tokensOf extracts the generated token sequence from a parsed stream.
func tokensOf(events []generateEvent) []int {
	var toks []int
	for _, ev := range events {
		if !ev.Done {
			toks = append(toks, ev.Token)
		}
	}
	return toks
}

// finalOf returns the single Done event, failing if it is missing or not
// last.
func finalOf(t testing.TB, events []generateEvent) generateEvent {
	t.Helper()
	if len(events) == 0 || !events[len(events)-1].Done {
		t.Fatalf("stream did not end with a final event: %+v", events)
	}
	for _, ev := range events[:len(events)-1] {
		if ev.Done {
			t.Fatalf("final event not last: %+v", events)
		}
	}
	return events[len(events)-1]
}

func TestGenerateHappyPath(t *testing.T) {
	s := testServer(t, Config{})
	defer s.Close()
	body := `{"model":"tiny","mode":"naive","prompt":[1,2,3],"max_tokens":5}`
	code, events, errBody := doGenerate(t, s, body)
	if code != http.StatusOK {
		t.Fatalf("generate: %d %v", code, errBody)
	}
	final := finalOf(t, events)
	toks := tokensOf(events)
	if len(toks) != 5 {
		t.Fatalf("streamed %d tokens, want 5: %+v", len(toks), events)
	}
	for i, ev := range events[:len(events)-1] {
		if ev.Index != i {
			t.Fatalf("event %d has index %d", i, ev.Index)
		}
		if ev.Token < 0 || ev.Token >= 40 {
			t.Fatalf("token %d outside vocabulary: %+v", ev.Token, ev)
		}
	}
	if final.FinishReason != "length" || final.Tokens != 5 || final.PromptTokens != 3 {
		t.Fatalf("final event: %+v", final)
	}
	if final.TotalMS <= 0 {
		t.Fatalf("final missing total_ms: %+v", final)
	}

	// Greedy generation on an analog deployment is deterministic: the same
	// request streams the identical token sequence.
	code2, events2, _ := doGenerate(t, s, body)
	if code2 != http.StatusOK || fmt.Sprint(tokensOf(events2)) != fmt.Sprint(toks) {
		t.Fatalf("repeat generate diverged: %v vs %v", tokensOf(events2), toks)
	}

	// Statz: generation counters and the engine decode-step aggregates.
	stats := s.StatzSnapshot()
	if stats.Gen.Requests < 2 || stats.Gen.Prefills < 2 || stats.Gen.Tokens < 10 {
		t.Fatalf("gen statz counters: %+v", stats.Gen)
	}
	// Mixed steps: prefill-only steps carry zero decode rows, so the mean
	// decode batch may legitimately dip below 1 here.
	if stats.Gen.Steps < 4 || stats.Gen.MeanBatch <= 0 {
		t.Fatalf("gen statz decode steps: %+v", stats.Gen)
	}
	// Two requests, three prompt tokens each, all consumed by chunked prefill.
	if stats.Gen.PrefillTokens != 6 || stats.Gen.PrefillTokensPerSecond <= 0 {
		t.Fatalf("gen statz prefill counters: %+v", stats.Gen)
	}
	if stats.Gen.TTFT.Count < 2 {
		t.Fatalf("gen statz TTFT histogram empty: %+v", stats.Gen.TTFT)
	}
	if stats.Gen.AnalogReads <= 0 {
		t.Fatalf("analog decode steps recorded no reads: %+v", stats.Gen)
	}
	if stats.Engine.GenSteps != stats.Gen.Steps || stats.Engine.GenReads != stats.Gen.AnalogReads {
		t.Fatalf("engine/serve gen stats disagree: %+v vs %+v", stats.Engine, stats.Gen)
	}
	eps := stats.Endpoints["/v1/generate"]
	if eps.Count < 2 || eps.Errors != 0 {
		t.Fatalf("generate endpoint histogram: %+v", eps)
	}
}

func TestGenerateSampledReproducible(t *testing.T) {
	s := testServer(t, Config{})
	defer s.Close()
	body := `{"model":"tiny","mode":"digital","prompt":[4,5],"max_tokens":6,"temperature":0.9,"top_k":10,"seed":7}`
	_, events1, _ := doGenerate(t, s, body)
	_, events2, _ := doGenerate(t, s, body)
	if fmt.Sprint(tokensOf(events1)) != fmt.Sprint(tokensOf(events2)) {
		t.Fatalf("seeded sampling not reproducible: %v vs %v", tokensOf(events1), tokensOf(events2))
	}
	// A different seed is allowed (and with temperature 0.9 overwhelmingly
	// likely) to take a different path — but it must still stream cleanly.
	code, events3, _ := doGenerate(t, s,
		`{"model":"tiny","mode":"digital","prompt":[4,5],"max_tokens":6,"temperature":0.9,"top_k":10,"seed":8}`)
	if code != http.StatusOK {
		t.Fatalf("seed-8 generate failed: %d", code)
	}
	finalOf(t, events3)
}

func TestGenerateErrors(t *testing.T) {
	s := testServer(t, Config{})
	defer s.Close()
	for _, tc := range []struct {
		name, body string
		code       int
	}{
		{"malformed JSON", `{"model":`, http.StatusBadRequest},
		{"unknown model", `{"model":"nope","prompt":[1]}`, http.StatusNotFound},
		{"unknown mode", `{"model":"tiny","mode":"quantum","prompt":[1]}`, http.StatusBadRequest},
		{"empty prompt", `{"model":"tiny","mode":"digital","prompt":[]}`, http.StatusBadRequest},
		{"token out of vocab", `{"model":"tiny","mode":"digital","prompt":[1,99]}`, http.StatusBadRequest},
		{"prompt too long", `{"model":"tiny","mode":"digital","prompt":[1,1,1,1,1,1,1,1,1,1,1,1,1,1,1,1,1]}`, http.StatusBadRequest},
		{"negative max_tokens", `{"model":"tiny","mode":"digital","prompt":[1],"max_tokens":-3}`, http.StatusBadRequest},
	} {
		code, _, body := doGenerate(t, s, tc.body)
		if code != tc.code {
			t.Errorf("%s: code %d (%v), want %d", tc.name, code, body, tc.code)
		}
		if body["error"] == "" {
			t.Errorf("%s: missing error body: %v", tc.name, body)
		}
	}
	req := httptest.NewRequest(http.MethodGet, "/v1/generate", nil)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != http.StatusMethodNotAllowed {
		t.Errorf("GET generate: %d, want 405", rec.Code)
	}
}

// TestGenerateMaxTokensClamp pins the KV-capacity clamp: a prompt next to
// the context window can still generate, but only as many tokens as the
// cache can append (emitting m tokens appends m-1).
func TestGenerateMaxTokensClamp(t *testing.T) {
	s := testServer(t, Config{})
	defer s.Close()
	// MaxSeq = 16; a 14-token prompt leaves room for 16-14+1 = 3 tokens.
	prompt := strings.Repeat("1,", 13) + "1"
	code, events, errBody := doGenerate(t, s,
		fmt.Sprintf(`{"model":"tiny","mode":"digital","prompt":[%s],"max_tokens":50}`, prompt))
	if code != http.StatusOK {
		t.Fatalf("generate: %d %v", code, errBody)
	}
	final := finalOf(t, events)
	if got := len(tokensOf(events)); got != 3 || final.FinishReason != "length" {
		t.Fatalf("clamped generation produced %d tokens (%q), want 3 (length): %+v",
			got, final.FinishReason, events)
	}
	// A full-context prompt still produces exactly one token.
	prompt = strings.Repeat("2,", 15) + "2"
	_, events, _ = doGenerate(t, s,
		fmt.Sprintf(`{"model":"tiny","mode":"digital","prompt":[%s],"max_tokens":50}`, prompt))
	if got := len(tokensOf(events)); got != 1 {
		t.Fatalf("full-context prompt produced %d tokens, want 1", got)
	}
}

func TestGenerateStopTokens(t *testing.T) {
	s := testServer(t, Config{})
	defer s.Close()
	// Every vocabulary token is a stop token, so generation halts after one.
	stops := make([]string, 40)
	for i := range stops {
		stops[i] = fmt.Sprint(i)
	}
	code, events, errBody := doGenerate(t, s, fmt.Sprintf(
		`{"model":"tiny","mode":"digital","prompt":[3,4,5],"max_tokens":8,"stop_tokens":[%s]}`,
		strings.Join(stops, ",")))
	if code != http.StatusOK {
		t.Fatalf("generate: %d %v", code, errBody)
	}
	final := finalOf(t, events)
	if len(tokensOf(events)) != 1 || final.FinishReason != "stop" {
		t.Fatalf("stop-token generation: %+v", events)
	}
}

// TestGenerateBatchCompositionIndependence pins the tentpole determinism
// contract at the HTTP boundary: a request's streamed tokens are identical
// whether it was decoded alone or continuously batched with concurrent
// requests (noise is scoped per request, never by batch position).
func TestGenerateBatchCompositionIndependence(t *testing.T) {
	probe := `{"model":"tiny","mode":"naive","prompt":[9,8,7],"max_tokens":6}`

	alone := testServer(t, Config{})
	code, soloEvents, errBody := doGenerate(t, alone, probe)
	if code != http.StatusOK {
		t.Fatalf("solo generate: %d %v", code, errBody)
	}
	solo := tokensOf(soloEvents)
	alone.Close()

	crowd := testServer(t, Config{MaxDecodeBatch: 8})
	defer crowd.Close()
	// Warm the scheduler (and its deployment) so the concurrent burst below
	// actually overlaps inside the decode batch.
	if code, _, _ := doGenerate(t, crowd, probe); code != http.StatusOK {
		t.Fatal("warmup generate failed")
	}
	var wg sync.WaitGroup
	var probeTokens []int
	for i := 0; i < 6; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			body := fmt.Sprintf(`{"model":"tiny","mode":"naive","prompt":[%d,3],"max_tokens":7}`, i)
			doGenerate(t, crowd, body)
		}(i)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, events, _ := doGenerate(t, crowd, probe)
		probeTokens = tokensOf(events)
	}()
	wg.Wait()
	if fmt.Sprint(probeTokens) != fmt.Sprint(solo) {
		t.Fatalf("batched stream %v != solo stream %v", probeTokens, solo)
	}
}

// TestGenerateCancellation: mid-generation client cancellation must retire
// the sequence without corrupting the deployment — the same request still
// answers identically afterwards.
func TestGenerateCancellation(t *testing.T) {
	s := testServer(t, Config{})
	ts := httptest.NewServer(s)
	defer func() {
		ts.Close()
		s.Close()
	}()

	probe := `{"model":"tiny","mode":"naive","prompt":[6,6,6],"max_tokens":8}`
	resp, err := http.Post(ts.URL+"/v1/generate", "application/json", strings.NewReader(probe))
	if err != nil {
		t.Fatal(err)
	}
	baseline := readStreamTokens(t, resp)

	// Cancel a storm of streams after the first token arrives.
	for i := 0; i < 8; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		req, _ := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/generate",
			strings.NewReader(`{"model":"tiny","mode":"naive","prompt":[5,5],"max_tokens":15}`))
		req.Header.Set("Content-Type", "application/json")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			cancel()
			continue
		}
		br := bufio.NewReader(resp.Body)
		_, _ = br.ReadString('\n') // first token line
		cancel()
		resp.Body.Close()
	}

	// Give the scheduler a beat to observe the cancellations, then verify
	// the deployment still answers bit-identically.
	time.Sleep(20 * time.Millisecond)
	resp, err = http.Post(ts.URL+"/v1/generate", "application/json", strings.NewReader(probe))
	if err != nil {
		t.Fatal(err)
	}
	after := readStreamTokens(t, resp)
	if fmt.Sprint(after) != fmt.Sprint(baseline) {
		t.Fatalf("post-cancellation stream diverged: %v vs %v", after, baseline)
	}
}

// readStreamTokens drains one live NDJSON response into its token sequence.
func readStreamTokens(t testing.TB, resp *http.Response) []int {
	t.Helper()
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stream status %d", resp.StatusCode)
	}
	var toks []int
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var ev generateEvent
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad stream line %q: %v", sc.Text(), err)
		}
		if ev.Done {
			return toks
		}
		toks = append(toks, ev.Token)
	}
	t.Fatalf("stream ended without a final event (tokens %v)", toks)
	return nil
}

// mkGenJob builds a scheduler-level job for the white-box admission tests
// below (no HTTP transport, so page accounting can be asserted exactly).
func mkGenJob(ctx context.Context, prompt []int, maxTokens int) *genJob {
	return &genJob{
		ctx:       ctx,
		prompt:    prompt,
		maxTokens: maxTokens,
		scope:     genScope(prompt),
		sampler:   rng.New(1),
		enqueued:  time.Now(),
		events:    make(chan generateEvent, maxTokens+1),
	}
}

// drainFinal returns the job's final event, failing if none is buffered.
func drainFinal(t *testing.T, job *genJob) generateEvent {
	t.Helper()
	for {
		select {
		case ev := <-job.events:
			if ev.Done {
				return ev
			}
		default:
			t.Fatalf("job has no final event buffered")
		}
	}
}

// TestGenerateMidPrefillCancelFreesPages pins the disconnect half of the
// chunked-prefill contract at the scheduler level: a client that goes away
// while its prompt is only partially consumed must be retired at the next
// step boundary, releasing its KV slot and every reserved page — admission
// capacity for other requests comes back promptly, not at end-of-decode.
func TestGenerateMidPrefillCancelFreesPages(t *testing.T) {
	s := testServer(t, Config{PrefillChunk: 2})
	defer s.Close()
	wl := s.workloads["tiny"]
	rep := testReplica(t, s, wl, core.DeployAnalogNaive)
	g := &genScheduler{srv: s, wl: wl, mode: core.DeployAnalogNaive, rep: rep,
		queue: make(chan *genJob, 4), stop: make(chan struct{})}
	// 4-token pages, 4 pages total: one 16-position budget drains the pool.
	bg := nn.NewBatchGeneratorPaged(rep.Runner(), 2, 4, 4)

	ctx, cancel := context.WithCancel(context.Background())
	prompt := []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14}
	job := mkGenJob(ctx, prompt, 3)
	active, parked := g.admit(bg, nil, job) // budget 16 → 4 pages
	if parked != nil || len(active) != 1 {
		t.Fatalf("admit: active=%d parked=%v", len(active), parked)
	}
	if bg.FreePages() != 0 {
		t.Fatalf("admission must reserve the full budget up front, free=%d", bg.FreePages())
	}
	active = g.step(rep.Dep(), bg, active) // consumes PrefillChunk=2 of 14 prompt tokens
	if len(active) != 1 || len(active[0].pending) != 12 {
		t.Fatalf("after one chunked step: active=%d pending=%d", len(active), len(active[0].pending))
	}

	canceled0 := s.genCanceled.Load()
	cancel()
	active = g.step(rep.Dep(), bg, active) // retired before the pass, mid-prefill
	if len(active) != 0 {
		t.Fatalf("canceled mid-prefill sequence still active: %d", len(active))
	}
	if bg.FreePages() != 4 || bg.Free() != 2 {
		t.Fatalf("cancellation must free slot and pages: pages=%d slots=%d", bg.FreePages(), bg.Free())
	}
	if s.genCanceled.Load() != canceled0+1 {
		t.Fatalf("genCanceled not advanced")
	}
	if ev := drainFinal(t, job); ev.FinishReason != "canceled" {
		t.Fatalf("mid-prefill cancel final: %+v", ev)
	}

	// The freed capacity admits a fresh full-budget request immediately.
	active, parked = g.admit(bg, nil, mkGenJob(context.Background(), prompt, 3))
	if parked != nil || len(active) != 1 {
		t.Fatalf("re-admission after mid-prefill cancel: active=%d parked=%v", len(active), parked)
	}
	bg.Release(active[0].slot)
}

// TestGenerateAdmissionParksOnPageExhaustion pins the holding-area policy:
// a job that fits the pool in principle parks (and is retried at step
// boundaries) when pages are momentarily exhausted, while a job whose
// budget could never fit fails immediately with an "error" final instead of
// parking forever.
func TestGenerateAdmissionParksOnPageExhaustion(t *testing.T) {
	s := testServer(t, Config{})
	defer s.Close()
	wl := s.workloads["tiny"]
	rep := testReplica(t, s, wl, core.DeployDigital)
	g := &genScheduler{srv: s, wl: wl, mode: core.DeployDigital, rep: rep,
		queue: make(chan *genJob, 4), stop: make(chan struct{})}
	bg := nn.NewBatchGeneratorPaged(rep.Runner(), 2, 4, 4)

	holder := mkGenJob(context.Background(), []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14}, 3)
	active, parked := g.admit(bg, nil, holder) // takes all 4 pages
	if parked != nil || bg.FreePages() != 0 {
		t.Fatalf("holder admission: parked=%v free=%d", parked, bg.FreePages())
	}

	// Fits in principle (1 page) but not right now → parked, no final event.
	waiter := mkGenJob(context.Background(), []int{1, 2}, 2)
	active2, parked2 := g.admit(bg, nil, waiter)
	if parked2 != waiter || len(active2) != 0 {
		t.Fatalf("page-starved job must park: active=%d parked=%v", len(active2), parked2)
	}
	select {
	case ev := <-waiter.events:
		t.Fatalf("parked job emitted %+v", ev)
	default:
	}

	// Release the holder; the parked job admits on retry.
	bg.Release(active[0].slot)
	active2, parked2 = g.admit(bg, nil, waiter)
	if parked2 != nil || len(active2) != 1 {
		t.Fatalf("parked job retry after release: active=%d parked=%v", len(active2), parked2)
	}
	bg.Release(active2[0].slot)

	// A budget larger than the whole pool can never park its way in: the
	// pool holds 2 pages = 8 positions, the job needs 10.
	tiny := nn.NewBatchGeneratorPaged(rep.Runner(), 2, 4, 2)
	never := mkGenJob(context.Background(), []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 1)
	active3, parked3 := g.admit(tiny, nil, never)
	if parked3 != nil || len(active3) != 0 {
		t.Fatalf("oversized job must fail, not park: active=%d parked=%v", len(active3), parked3)
	}
	if ev := drainFinal(t, never); ev.FinishReason != "error" || ev.Error == "" {
		t.Fatalf("oversized job final: %+v", ev)
	}
}

// TestGenerateAdmissionFullCleanReject pins the saturation contract: with
// every KV slot, page, and queue position busy, the next request comes back
// as an immediate, well-formed 429 with Retry-After — never a hang — and
// other deployments keep serving normally. The stuffed scheduler's loop is
// deliberately never started, so the saturated state cannot drain under the
// test (a live server this overloaded behaves identically until a sequence
// retires).
func TestGenerateAdmissionFullCleanReject(t *testing.T) {
	s := testServer(t, Config{MaxDecodeBatch: 1, QueueDepth: 1, KVPages: 1})
	defer s.Close()
	wl := s.workloads["tiny"]
	rep := testReplica(t, s, wl, core.DeployAnalogNaive)
	g := &genScheduler{srv: s, wl: wl, mode: core.DeployAnalogNaive, rep: rep,
		queue: make(chan *genJob, s.cfg.QueueDepth), stop: make(chan struct{})}
	g.queue <- mkGenJob(context.Background(), []int{1}, 1) // queue at capacity
	s.mu.Lock()
	s.genScheds[fmt.Sprintf("%s/%s#%d", wl.Spec.Key, core.DeployAnalogNaive, rep.Index)] = g
	s.mu.Unlock()

	req := httptest.NewRequest(http.MethodPost, "/v1/generate",
		strings.NewReader(`{"model":"tiny","mode":"naive","prompt":[1,2,3],"max_tokens":4}`))
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req) // synchronous: returning at all proves no hang
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("saturated generate: %d %s, want 429", rec.Code, rec.Body.String())
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Fatalf("429 without Retry-After")
	}
	var body map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil || body["error"] == "" {
		t.Fatalf("429 body not a JSON error: %q (%v)", rec.Body.String(), err)
	}
	if got := s.StatzSnapshot().Gen.QueueFull; got != 1 {
		t.Fatalf("genQueueFull=%d, want 1", got)
	}

	// A different deployment of the same model is unaffected.
	code, events, errBody := doGenerate(t, s,
		`{"model":"tiny","mode":"digital","prompt":[1,2,3],"max_tokens":4}`)
	if code != http.StatusOK {
		t.Fatalf("unrelated deployment: %d %v", code, errBody)
	}
	if final := finalOf(t, events); final.FinishReason != "length" {
		t.Fatalf("unrelated deployment final: %+v", final)
	}
}

// TestGenerateConcurrentHammer drives a live server with concurrent
// generating clients — mixed short and long prompts (the long ones prefill
// in chunks across several steps), some canceling mid-stream, over a
// page-starved KV pool (3 pages for 4 slots, so admissions park and retry)
// — through shutdown; run under -race in CI. Every stream must end cleanly
// or with a transport error from the closing listener, never a hang.
func TestGenerateConcurrentHammer(t *testing.T) {
	s := testServer(t, Config{MaxDecodeBatch: 4, PrefillChunk: 3, KVPages: 3})
	ts := httptest.NewServer(s)

	const clients = 6
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for n := 0; ; n++ {
				select {
				case <-stop:
					return
				default:
				}
				ctx, cancel := context.WithCancel(context.Background())
				body := fmt.Sprintf(`{"model":"tiny","mode":"digital","prompt":[%d,1,2],"max_tokens":10}`, (c+n)%16)
				if c%2 == 1 {
					// Long prompt: 13 tokens chunk into ⌈13/3⌉ = 5 prefill steps.
					body = fmt.Sprintf(`{"model":"tiny","mode":"digital","prompt":[%d,1,2,3,4,5,6,7,8,9,10,11,12],"max_tokens":4}`, (c+n)%16)
				}
				req, _ := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/generate", strings.NewReader(body))
				req.Header.Set("Content-Type", "application/json")
				resp, err := http.DefaultClient.Do(req)
				if err != nil {
					cancel()
					return // listener closed mid-flight
				}
				switch resp.StatusCode {
				case http.StatusOK:
					br := bufio.NewReader(resp.Body)
					if c%2 == 0 && n%3 == 0 {
						_, _ = br.ReadString('\n')
						cancel() // mid-stream cancellation
					} else {
						for {
							if _, err := br.ReadString('\n'); err != nil {
								break
							}
						}
					}
				case http.StatusServiceUnavailable, http.StatusTooManyRequests:
				default:
					t.Errorf("client %d: unexpected status %d", c, resp.StatusCode)
				}
				resp.Body.Close()
				cancel()
			}
		}(c)
	}
	time.Sleep(100 * time.Millisecond)
	close(stop)
	ts.Close()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()

	stats := s.StatzSnapshot()
	if stats.Gen.Requests < 1 || stats.Gen.Tokens < 1 {
		t.Fatalf("hammer produced no generation traffic: %+v", stats.Gen)
	}

	// Post-shutdown generate is rejected, not queued.
	code, _, body := doGenerate(t, s, `{"model":"tiny","mode":"digital","prompt":[1],"max_tokens":2}`)
	if code != http.StatusServiceUnavailable {
		t.Fatalf("post-shutdown generate: %d %v, want 503", code, body)
	}
}
