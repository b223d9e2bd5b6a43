package main

import (
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"nora/internal/analog"
	"nora/internal/engine"
	"nora/internal/harness"
	"nora/internal/model"
	"nora/internal/nn"
	"nora/internal/rng"
	"nora/internal/serve"
)

// TestLevelSeqsPerStepDifferences pins the predict table's "mean batch" to
// each level's own steps: two levels of different concurrency, 40 steps of
// one sequence and then 10 steps of six, report 1 and 6, where the
// server's cumulative mean_seqs after the second level reads 2.
func TestLevelSeqsPerStepDifferences(t *testing.T) {
	start := serve.GenStatz{Steps: 0, Seqs: 0}
	afterOne := serve.GenStatz{Steps: 40, Seqs: 40, MeanSeqs: 1}
	afterSix := serve.GenStatz{Steps: 50, Seqs: 100, MeanSeqs: 2}
	if got := levelSeqsPerStep(start, afterOne); got != 1 {
		t.Fatalf("1-client level: %v sequences per step, want 1", got)
	}
	if got := levelSeqsPerStep(afterOne, afterSix); got != 6 {
		t.Fatalf("6-client level: %v sequences per step, want 6 (cumulative %v)", got, afterSix.MeanSeqs)
	}
	if got := levelSeqsPerStep(afterSix, afterSix); got != 0 {
		t.Fatalf("level without steps: %v, want 0", got)
	}
}

// TestPredictLevelsReportOwnBatch drives a live server at 8 clients and
// then at 1. A lone closed-loop client's every step carries exactly its one
// predict, so the second level must read 1 whatever the first one batched.
func TestPredictLevelsReportOwnBatch(t *testing.T) {
	cfg := nn.Config{Arch: nn.ArchOPT, Vocab: 40, DModel: 16, NHeads: 2, NLayers: 1, DFF: 32, MaxSeq: 16}
	m, err := nn.NewModel(cfg, rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	w := &harness.Workload{Spec: model.Spec{Key: "tiny", Display: "tiny", Family: "opt"}, Model: m}
	tiles := analog.PaperPreset()
	tiles.TileRows, tiles.TileCols = 32, 32
	srv := serve.New(engine.New(engine.Config{}), serve.Config{Analog: tiles}, []*harness.Workload{w})
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()
	client := &http.Client{Timeout: time.Minute}
	rows, err := runPredictLevels(client, ts.URL, "tiny", "naive", cfg.Vocab, 8, []int{8, 1}, 300*time.Millisecond, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.res.ok == 0 || r.res.errs != 0 {
			t.Fatalf("concurrency %d: %d ok, %d errors", r.res.concurrency, r.res.ok, r.res.errs)
		}
	}
	if rows[0].seqsPerStep < 1 {
		t.Fatalf("8-client level: %v sequences per step", rows[0].seqsPerStep)
	}
	if rows[1].seqsPerStep != 1 {
		t.Fatalf("1-client level after an 8-client one: %v sequences per step, want 1", rows[1].seqsPerStep)
	}
}
