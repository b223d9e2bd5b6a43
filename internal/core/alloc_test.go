//go:build !race

// Allocation-count assertions are meaningless under the race detector
// (instrumentation allocates, and sync.Pool drops items at random), so
// this file is excluded from -race runs.

package core

import (
	"testing"

	"nora/internal/analog"
)

// PredictLast on a noise-scoped NORA deployment — the call behind every
// eval sequence and every /v1/predict — allocates nothing in steady state:
// the forward runs on pooled decode state and the analog reads on pooled
// tile scratch.
func TestPredictLastZeroAllocs(t *testing.T) {
	m, eval, calib := trained(t)
	cfg := analog.PaperPreset()
	cfg.TileRows, cfg.TileCols = 64, 64
	r := Deploy(m, DeployAnalogNORA, Calibrate(m, calib), cfg, 42, Options{}).WithNoiseScope("allocs")
	ctx := eval[0][:len(eval[0])-1]
	r.PredictLast(ctx) // warm the pools
	if allocs := testing.AllocsPerRun(20, func() { r.PredictLast(ctx) }); allocs != 0 {
		t.Fatalf("PredictLast allocates %v times per call in steady state, want 0", allocs)
	}
}
