// Command nora-loadgen is a closed-loop load generator for nora-serve:
// for each concurrency level it keeps that many in-flight predict requests
// against the server for a fixed duration, then reports client-side
// latency quantiles (p50/p95/p99), throughput, and rejection counts, plus
// the scheduler's mean sequences per step read back from /statz. The
// result is the throughput-vs-concurrency curve of continuous batching:
// concurrent predicts share the scheduler's steps, and each step runs on
// every core.
//
// With -generate the workload switches to streaming /v1/generate requests:
// each worker holds one generation stream open at a time, and the report
// shows time-to-first-token and inter-token latency quantiles (p50/p95/p99)
// plus the aggregate token throughput and the server's decode-batch
// occupancy — the continuous-batching throughput-vs-concurrency curve.
// -prompt-mix draws each stream's prompt length from a weighted mix
// ("16:4,128:2,512:1" — length:weight pairs), the workload shape where
// chunked prefill keeps short-prompt TTFT flat while long prompts prefill
// incrementally.
//
// Usage:
//
//	nora-loadgen [-url http://localhost:8080] [-model opt-c1] [-mode nora]
//	             [-concurrency 1,8,32] [-duration 10s] [-ctxlen 12]
//	             [-generate] [-max-tokens 16] [-temperature 0] [-topk 0]
//	             [-prompt-mix 16:4,128:2,512:1] [-seed 1] [-csv out.csv]
//
// Contexts are random token windows drawn from the model's vocabulary
// (deterministic per -seed); the server's answers are deterministic per
// context, so two identical loadgen runs exercise identical work.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"

	"nora/internal/cli"
	"nora/internal/harness"
	"nora/internal/model"
	"nora/internal/rng"
	"nora/internal/serve"
	"nora/internal/stats"
)

type levelResult struct {
	concurrency int
	ok, rejects int
	errs        int
	elapsed     time.Duration
	latencies   []float32 // milliseconds, successful requests only
}

// ms converts a latency sample to milliseconds.
func ms(d time.Duration) float32 { return float32(float64(d) / 1e6) }

// percentiles returns the p50, p95 and p99 of millisecond samples, the
// tables' three quantile columns. stats.Quantile interpolates between
// ranks, the definition perfbench reports.
func percentiles(samples []float32) [3]float64 {
	return [3]float64{
		stats.Quantile(samples, 0.50),
		stats.Quantile(samples, 0.95),
		stats.Quantile(samples, 0.99),
	}
}

func main() {
	var opt cli.Options
	opt.RegisterFlags(flag.CommandLine)
	url := flag.String("url", "http://localhost:8080", "nora-serve base URL")
	modelKey := flag.String("model", "opt-c1", "zoo key of the model to load")
	mode := flag.String("mode", "nora", "deployment mode: digital, naive or nora")
	levels := flag.String("concurrency", "1,8,32", "comma-separated closed-loop concurrency levels")
	duration := flag.Duration("duration", 10*time.Second, "measurement window per concurrency level")
	ctxLen := flag.Int("ctxlen", 12, "tokens per predict context (or generate prompt)")
	seed := flag.Uint64("seed", 1, "context generator seed")
	csvPath := flag.String("csv", "", "also write the result table as CSV to this path")
	generate := flag.Bool("generate", false, "drive streaming /v1/generate instead of /v1/predict")
	maxTokens := flag.Int("max-tokens", 16, "generation: tokens requested per stream")
	temperature := flag.Float64("temperature", 0, "generation: sampling temperature (0 = greedy)")
	topK := flag.Int("topk", 0, "generation: top-k filter (0 = full vocabulary)")
	promptMixSpec := flag.String("prompt-mix", "", "generation: weighted prompt-length mix as length:weight pairs (e.g. 16:4,128:2,512:1; empty = fixed -ctxlen)")
	flag.Parse()
	if err := opt.Finish(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	spec, err := model.ByKey(*modelKey)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	conc, err := cli.ParseInts(*levels)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	n := *ctxLen
	if n < 1 {
		n = 1
	}
	if n > spec.Cfg.MaxSeq {
		n = spec.Cfg.MaxSeq
	}
	mix, err := parsePromptMix(*promptMixSpec, spec.Cfg.MaxSeq)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	client := &http.Client{Timeout: 2 * time.Minute}
	if err := waitHealthy(client, *url); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	if *generate {
		if err := runGenerateBench(client, *url, *modelKey, *mode, spec.Cfg.Vocab, n, mix,
			conc, *duration, *seed, *maxTokens, *temperature, *topK, *csvPath); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}
	if mix != nil {
		fmt.Fprintln(os.Stderr, "-prompt-mix only applies with -generate")
		os.Exit(1)
	}

	tbl := harness.NewTable(
		fmt.Sprintf("nora-loadgen — %s/%s, %v per level, ctx %d", *modelKey, *mode, *duration, n),
		"concurrency", "req/s", "ok", "429", "errors", "p50 ms", "p95 ms", "p99 ms", "mean batch")
	rows, err := runPredictLevels(client, *url, *modelKey, *mode, spec.Cfg.Vocab, n, conc, *duration, *seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	for _, l := range rows {
		res := l.res
		lat := percentiles(res.latencies)
		tbl.Add(
			fmt.Sprintf("%d", res.concurrency),
			float64(res.ok)/res.elapsed.Seconds(),
			float64(res.ok), float64(res.rejects), float64(res.errs),
			lat[0], lat[1], lat[2],
			l.seqsPerStep,
		)
	}
	if err := tbl.WriteText(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	statz, err := fetchStatz(client, *url)
	if err == nil {
		fmt.Printf("\nserver: %d steps carried %d predicts (mean %.2f sequences per step, max %d), %d rejected, %d canceled, eval-memo hit rate %.0f%%\n",
			statz.Gen.Steps, statz.Gen.Predict.Requests, statz.Gen.MeanSeqs, statz.Gen.MaxBatch,
			statz.Gen.Predict.QueueFull, statz.Gen.Predict.Canceled, 100*statz.EvalMemoHitRate)
	}
	if *csvPath != "" {
		if err := tbl.WriteCSVFile(*csvPath); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
}

// predictLevel is one concurrency level of the predict benchmark: the
// client's view and the scheduler's mean sequences per step over the level.
type predictLevel struct {
	res         levelResult
	seqsPerStep float64
}

// runPredictLevels runs runLevel at each concurrency in turn and reads
// /statz around each level.
func runPredictLevels(client *http.Client, url, modelKey, mode string, vocab, ctxLen int, conc []int, d time.Duration, seed uint64) ([]predictLevel, error) {
	var levels []predictLevel
	for _, c := range conc {
		before, err := fetchStatz(client, url)
		if err != nil {
			return nil, err
		}
		res := runLevel(client, url, modelKey, mode, vocab, ctxLen, c, d, seed)
		after, err := fetchStatz(client, url)
		if err != nil {
			return nil, err
		}
		levels = append(levels, predictLevel{res, levelSeqsPerStep(before.Gen, after.Gen)})
	}
	return levels, nil
}

// levelSeqsPerStep is the scheduler's mean sequences per step over one
// level: the difference of the /statz gen counters seqs and steps across
// it, so each row shows its own level rather than a mean since the server
// started.
func levelSeqsPerStep(before, after serve.GenStatz) float64 {
	steps := after.Steps - before.Steps
	if steps <= 0 {
		return 0
	}
	return float64(after.Seqs-before.Seqs) / float64(steps)
}

// runLevel keeps `workers` requests in flight for `d`, closed-loop: each
// worker issues its next request as soon as the previous one answers.
func runLevel(client *http.Client, url, modelKey, mode string, vocab, ctxLen, workers int, d time.Duration, seed uint64) levelResult {
	res := levelResult{concurrency: workers}
	deadline := time.Now().Add(d)
	var mu sync.Mutex
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r := rng.New(seed + uint64(w)*7919)
			var lats []float32
			ok, rejects, errs := 0, 0, 0
			for time.Now().Before(deadline) {
				ctx := make([]int, ctxLen)
				for i := range ctx {
					ctx[i] = int(r.Uint64() % uint64(vocab))
				}
				body, _ := json.Marshal(map[string]any{"model": modelKey, "mode": mode, "context": ctx})
				t0 := time.Now()
				resp, err := client.Post(url+"/v1/predict", "application/json", bytes.NewReader(body))
				if err != nil {
					errs++
					continue
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				switch resp.StatusCode {
				case http.StatusOK:
					ok++
					lats = append(lats, ms(time.Since(t0)))
				case http.StatusTooManyRequests:
					rejects++
					time.Sleep(time.Millisecond) // honor backpressure briefly
				default:
					errs++
				}
			}
			mu.Lock()
			res.ok += ok
			res.rejects += rejects
			res.errs += errs
			res.latencies = append(res.latencies, lats...)
			mu.Unlock()
		}(w)
	}
	wg.Wait()
	res.elapsed = time.Since(start)
	return res
}

// promptMix is a weighted distribution over prompt lengths, parsed from the
// -prompt-mix flag.
type promptMix struct {
	lengths []int
	weights []int
	total   int
}

// parsePromptMix parses "length:weight,length:weight,…" (weight omitted =
// 1); an empty spec returns nil (fixed prompt length).
func parsePromptMix(spec string, maxSeq int) (*promptMix, error) {
	if strings.TrimSpace(spec) == "" {
		return nil, nil
	}
	mix := &promptMix{}
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		lenStr, weightStr, hasWeight := strings.Cut(part, ":")
		length, err := strconv.Atoi(lenStr)
		if err != nil || length < 1 || length > maxSeq {
			return nil, fmt.Errorf("prompt-mix entry %q: length must be in [1, %d]", part, maxSeq)
		}
		weight := 1
		if hasWeight {
			if weight, err = strconv.Atoi(weightStr); err != nil || weight < 1 {
				return nil, fmt.Errorf("prompt-mix entry %q: weight must be a positive integer", part)
			}
		}
		mix.lengths = append(mix.lengths, length)
		mix.weights = append(mix.weights, weight)
		mix.total += weight
	}
	return mix, nil
}

// pick draws one prompt length, weight-proportionally.
func (m *promptMix) pick(r *rng.Rand) int {
	u := int(r.Uint64() % uint64(m.total))
	for i, w := range m.weights {
		if u -= w; u < 0 {
			return m.lengths[i]
		}
	}
	return m.lengths[len(m.lengths)-1]
}

func (m *promptMix) String() string {
	parts := make([]string, len(m.lengths))
	for i := range m.lengths {
		parts[i] = fmt.Sprintf("%d:%d", m.lengths[i], m.weights[i])
	}
	return strings.Join(parts, ",")
}

// genLevelResult aggregates one concurrency level of generation streams.
type genLevelResult struct {
	ok, rejects, errs int
	tokens            int64
	elapsed           time.Duration
	ttfts             []float32 // request start → first token in ms, per stream
	gaps              []float32 // inter-token latencies in ms, per token
}

// runGenerateBench drives the streaming /v1/generate workload across the
// concurrency levels and prints the TTFT / inter-token / token-throughput
// table, plus the server's decode-batch occupancy delta per level.
func runGenerateBench(client *http.Client, url, modelKey, mode string, vocab, promptLen int, mix *promptMix,
	conc []int, d time.Duration, seed uint64, maxTokens int, temperature float64, topK int, csvPath string) error {
	promptDesc := fmt.Sprintf("prompt %d", promptLen)
	if mix != nil {
		promptDesc = "prompt mix " + mix.String()
	}
	tbl := harness.NewTable(
		fmt.Sprintf("nora-loadgen generate — %s/%s, %v per level, %s, max_tokens %d",
			modelKey, mode, d, promptDesc, maxTokens),
		"concurrency", "tok/s", "streams", "429", "errors",
		"ttft p50 ms", "ttft p95 ms", "ttft p99 ms",
		"itl p50 ms", "itl p95 ms", "itl p99 ms", "decode batch")
	for _, c := range conc {
		before, err := fetchStatz(client, url)
		if err != nil {
			return err
		}
		res := runGenLevel(client, url, modelKey, mode, vocab, promptLen, mix, c, d, seed, maxTokens, temperature, topK)
		after, err := fetchStatz(client, url)
		if err != nil {
			return err
		}
		// Server-side decode-batch occupancy over this level's steps.
		occupancy := 0.0
		if steps := after.Engine.GenSteps - before.Engine.GenSteps; steps > 0 {
			occupancy = float64(after.Engine.GenTokens-before.Engine.GenTokens) / float64(steps)
		}
		ttft, itl := percentiles(res.ttfts), percentiles(res.gaps)
		tbl.Add(
			fmt.Sprintf("%d", c),
			float64(res.tokens)/res.elapsed.Seconds(),
			float64(res.ok), float64(res.rejects), float64(res.errs),
			ttft[0], ttft[1], ttft[2],
			itl[0], itl[1], itl[2],
			occupancy,
		)
	}
	if err := tbl.WriteText(os.Stdout); err != nil {
		return err
	}
	if statz, err := fetchStatz(client, url); err == nil {
		fmt.Printf("\nserver: %d streams produced %d tokens over %d mixed steps "+
			"(mean decode batch %.2f, max rows %d, %.0f tok/s inside steps, "+
			"%d prefill tokens at %.0f tok/s), %d rejected, %d canceled\n",
			statz.Gen.Requests, statz.Gen.Tokens, statz.Gen.Steps,
			statz.Gen.MeanBatch, statz.Gen.MaxBatch, statz.Gen.TokensPerSecond,
			statz.Gen.PrefillTokens, statz.Gen.PrefillTokensPerSecond,
			statz.Gen.QueueFull, statz.Gen.Canceled)
	}
	if csvPath != "" {
		return tbl.WriteCSVFile(csvPath)
	}
	return nil
}

// runGenLevel keeps `workers` generation streams in flight for `d`,
// closed-loop: each worker opens its next stream as soon as the previous
// one finishes, reading NDJSON token events as they arrive.
func runGenLevel(client *http.Client, url, modelKey, mode string, vocab, promptLen int, mix *promptMix, workers int,
	d time.Duration, seed uint64, maxTokens int, temperature float64, topK int) genLevelResult {
	var res genLevelResult
	deadline := time.Now().Add(d)
	var mu sync.Mutex
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r := rng.New(seed + uint64(w)*7919)
			local := genLevelResult{}
			for time.Now().Before(deadline) {
				n := promptLen
				if mix != nil {
					n = mix.pick(r)
				}
				prompt := make([]int, n)
				for i := range prompt {
					prompt[i] = int(r.Uint64() % uint64(vocab))
				}
				body, _ := json.Marshal(map[string]any{
					"model": modelKey, "mode": mode, "prompt": prompt,
					"max_tokens": maxTokens, "temperature": temperature, "top_k": topK,
					"seed": r.Uint64(),
				})
				t0 := time.Now()
				resp, err := client.Post(url+"/v1/generate", "application/json", bytes.NewReader(body))
				if err != nil {
					local.errs++
					continue
				}
				switch resp.StatusCode {
				case http.StatusOK:
					toks, ttft, gaps, ok := drainStream(resp.Body, t0)
					if !ok {
						local.errs++
					} else {
						local.ok++
						local.tokens += int64(toks)
						if toks > 0 {
							local.ttfts = append(local.ttfts, ttft)
							local.gaps = append(local.gaps, gaps...)
						}
					}
				case http.StatusTooManyRequests:
					local.rejects++
					time.Sleep(time.Millisecond) // honor backpressure briefly
				default:
					local.errs++
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
			mu.Lock()
			res.ok += local.ok
			res.rejects += local.rejects
			res.errs += local.errs
			res.tokens += local.tokens
			res.ttfts = append(res.ttfts, local.ttfts...)
			res.gaps = append(res.gaps, local.gaps...)
			mu.Unlock()
		}(w)
	}
	wg.Wait()
	res.elapsed = time.Since(start)
	return res
}

// drainStream reads one NDJSON generation stream, timing the first token
// and every inter-token gap in milliseconds. ok is false when the stream ends without a
// final event or with a non-clean finish ("error" finals count as errors;
// "shutdown" and "canceled" count as clean — the server retired us).
func drainStream(body io.Reader, t0 time.Time) (tokens int, ttft float32, gaps []float32, ok bool) {
	sc := bufio.NewScanner(body)
	prev := t0
	for sc.Scan() {
		var ev struct {
			Token        int    `json:"token"`
			Done         bool   `json:"done"`
			FinishReason string `json:"finish_reason"`
		}
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			return tokens, ttft, gaps, false
		}
		if ev.Done {
			return tokens, ttft, gaps, ev.FinishReason != "error"
		}
		now := time.Now()
		if tokens == 0 {
			ttft = ms(now.Sub(t0))
		} else {
			gaps = append(gaps, ms(now.Sub(prev)))
		}
		prev = now
		tokens++
	}
	return tokens, ttft, gaps, false
}

func fetchStatz(client *http.Client, url string) (serve.Statz, error) {
	var statz serve.Statz
	resp, err := client.Get(url + "/statz")
	if err != nil {
		return statz, fmt.Errorf("statz: %w", err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&statz); err != nil {
		return statz, fmt.Errorf("statz: %w", err)
	}
	return statz, nil
}

// waitHealthy polls /healthz so a loadgen started alongside the server
// doesn't count startup as errors.
func waitHealthy(client *http.Client, url string) error {
	var lastErr error
	for i := 0; i < 50; i++ {
		resp, err := client.Get(url + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
			lastErr = fmt.Errorf("healthz: status %d", resp.StatusCode)
		} else {
			lastErr = err
		}
		time.Sleep(200 * time.Millisecond)
	}
	return fmt.Errorf("server at %s never became healthy: %w", url, lastErr)
}
