// Command nora-serve exposes the experiment engine as an HTTP inference
// service (internal/serve): micro-batched /v1/predict, continuous-batched
// streaming /v1/generate, engine-memoized /v1/eval, /healthz, and /statz. Models come from the same cached zoo the
// offline experiments use, so a served answer is comparable — and for
// /v1/eval identical — to the corresponding offline run.
//
// Usage:
//
//	nora-serve [-addr :8080] [-models opt-c1,llama-c1] [-modeldir testdata/models]
//	           [-max-batch 16] [-max-delay 2ms] [-queue 256] [-timeout 30s]
//	           [-decode-batch 16] [-prefill-chunk 64] [-kv-pages 0]
//	           [-chips 1] [-policy health] [-fault-gradient 0]
//	           [-eval 150]
//
// With -chips > 1 requests route through a simulated multi-chip fleet
// (internal/fleet): each chip hosts one replica of every deployment and
// realizes independent fault/drift draws, the router picks replicas by
// health and load, and /v1/chips scripts drain / fail / restore /
// reprogram scenarios.
//
// Shut down with SIGINT/SIGTERM: the listener stops accepting, in-flight
// requests drain, then the micro-batchers close.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"nora/internal/cli"
	"nora/internal/serve"
)

func main() {
	var opt cli.Options
	opt.RegisterFlags(flag.CommandLine)
	var flt cli.FleetOptions
	flt.RegisterFlags(flag.CommandLine)
	addr := flag.String("addr", ":8080", "listen address")
	models := flag.String("models", "", "comma-separated zoo keys to serve (empty = full zoo)")
	maxBatch := flag.Int("max-batch", serve.DefaultMaxBatch, "max predict requests per micro-batch")
	maxDelay := flag.Duration("max-delay", serve.DefaultMaxDelay, "max wait for a micro-batch to fill")
	queue := flag.Int("queue", serve.DefaultQueueDepth, "admission queue depth per deployment (beyond it: 429)")
	timeout := flag.Duration("timeout", serve.DefaultRequestTimeout, "server-side per-request deadline")
	decodeBatch := flag.Int("decode-batch", serve.DefaultMaxDecodeBatch, "max concurrent /v1/generate sequences per decode batch")
	prefillChunk := flag.Int("prefill-chunk", serve.DefaultPrefillChunk, "max prompt tokens consumed per mixed decode step (chunked prefill)")
	kvPages := flag.Int("kv-pages", 0, "KV page pool size per generation scheduler (0 = slab-equivalent)")
	flag.Parse()

	if err := opt.Finish(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if err := cli.ValidateServeKnobs(*decodeBatch, *prefillChunk, *kvPages); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fleetCfg, err := flt.Fleet()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	ws, err := opt.LoadModels(*models)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	srv := serve.New(opt.NewEngine(), serve.Config{
		MaxBatch:       *maxBatch,
		MaxDelay:       *maxDelay,
		QueueDepth:     *queue,
		RequestTimeout: *timeout,
		MaxDecodeBatch: *decodeBatch,
		PrefillChunk:   *prefillChunk,
		KVPages:        *kvPages,
		Fleet:          fleetCfg,
	}, ws)
	httpSrv := &http.Server{Addr: *addr, Handler: srv}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.ListenAndServe() }()
	log.Printf("nora-serve: listening on %s, serving %v (max-batch %d, max-delay %v, queue %d, decode-batch %d, prefill-chunk %d, kv-pages %d, chips %d, policy %s)",
		*addr, srv.Models(), *maxBatch, *maxDelay, *queue, *decodeBatch, *prefillChunk, *kvPages, flt.Chips, fleetCfg.Policy)

	select {
	case <-ctx.Done():
		log.Printf("nora-serve: shutting down")
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		// Order matters: stop accepting and drain HTTP handlers first, then
		// drain the micro-batchers those handlers were waiting on.
		if err := httpSrv.Shutdown(shutdownCtx); err != nil {
			log.Printf("nora-serve: http shutdown: %v", err)
		}
		if err := srv.Close(); err != nil {
			log.Printf("nora-serve: close: %v", err)
		}
		log.Printf("nora-serve: drained, bye")
	case err := <-errCh:
		if !errors.Is(err, http.ErrServerClosed) {
			log.Fatalf("nora-serve: %v", err)
		}
	}
}
