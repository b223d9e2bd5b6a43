package cli

import (
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"nora/internal/analog"
	"nora/internal/engine"
	"nora/internal/fleet"
	"nora/internal/harness"
)

// parseAs stands in for one binary's flag path: a fresh FlagSet with the
// shared options registered, parsed over args.
func parseAs(t *testing.T, name string, args []string) *Options {
	t.Helper()
	var o Options
	fs := flag.NewFlagSet(name, flag.ContinueOnError)
	o.RegisterFlags(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatalf("%s: parse: %v", name, err)
	}
	if err := o.Finish(); err != nil {
		t.Fatalf("%s: finish: %v", name, err)
	}
	return &o
}

// TestBinariesResolveIdenticalEngineConfig pins the api_redesign contract:
// nora and nora-serve (and by construction every other binary) resolve
// identical engine.Configs from identical flags, because
// both register the one shared Options and derive the engine through
// Options.Engine. Before internal/cli each binary hand-rolled this
// plumbing and the copies could drift.
func TestBinariesResolveIdenticalEngineConfig(t *testing.T) {
	for _, args := range [][]string{
		{},
		{"-modeldir", "elsewhere", "-eval", "42", "-quick"},
	} {
		nora := parseAs(t, "nora", args)
		serve := parseAs(t, "nora-serve", args)
		if !reflect.DeepEqual(nora.Engine(), serve.Engine()) {
			t.Fatalf("args %v: engine configs diverge: %+v vs %+v",
				args, nora.Engine(), serve.Engine())
		}
		if *nora != *serve {
			t.Fatalf("args %v: resolved options diverge: %+v vs %+v", args, nora, serve)
		}
	}
}

func TestSharedDefaults(t *testing.T) {
	o := parseAs(t, "any", nil)
	if o.ModelDir != DefaultModelDir {
		t.Fatalf("default modeldir = %q, want %q", o.ModelDir, DefaultModelDir)
	}
	if o.EvalN != harness.EvalSize {
		t.Fatalf("default eval = %d, want %d", o.EvalN, harness.EvalSize)
	}
	if o.Quick {
		t.Fatal("unexpected default: quick=true")
	}
	if got, want := o.Engine(), (engine.Config{}); got != want {
		t.Fatalf("default engine config = %+v, want zero value", got)
	}
}

func TestQuickEval(t *testing.T) {
	o := parseAs(t, "x", []string{"-quick"})
	o.QuickEval(50)
	if o.EvalN != 50 {
		t.Fatalf("quick eval = %d, want 50", o.EvalN)
	}
	// An explicit -eval wins over -quick.
	o = parseAs(t, "x", []string{"-quick", "-eval", "77"})
	o.QuickEval(50)
	if o.EvalN != 77 {
		t.Fatalf("explicit eval overridden: got %d, want 77", o.EvalN)
	}
	// Without -quick the default stands.
	o = parseAs(t, "x", nil)
	o.QuickEval(50)
	if o.EvalN != harness.EvalSize {
		t.Fatalf("non-quick eval shrunk to %d", o.EvalN)
	}
}

func TestParseModels(t *testing.T) {
	specs, err := ParseModels("")
	if err != nil || len(specs) == 0 {
		t.Fatalf("empty key list should select the zoo: %v, %d specs", err, len(specs))
	}
	specs, err = ParseModels("opt-c3, mistral-c")
	if err != nil || len(specs) != 2 || specs[0].Key != "opt-c3" || specs[1].Key != "mistral-c" {
		t.Fatalf("ParseModels: %v %+v", err, specs)
	}
	if _, err := ParseModels("no-such-model"); err == nil {
		t.Fatal("unknown key accepted")
	}
}

func TestParseLists(t *testing.T) {
	is, err := ParseInts("1, 8,32")
	if err != nil || len(is) != 3 || is[2] != 32 {
		t.Fatalf("ParseInts: %v %v", is, err)
	}
	if _, err := ParseInts("1.5"); err == nil {
		t.Fatal("ParseInts accepted a float")
	}
}

func TestUseBeforeFinishPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewEngine before Finish did not panic")
		}
	}()
	var o Options
	o.NewEngine()
}

// TestCostModelRoundTrip pins the -costmodel flag surface: a model written
// as JSON parses back identically, k=v overrides patch exactly the named
// constants, and the engine config carries the override only when one was
// given (so the default engine config stays the zero value).
func TestCostModelRoundTrip(t *testing.T) {
	want := analog.DefaultCostModel()
	want.ADCEnergyPJ = 2.125
	want.TileMVMLatencyNS = 87.5

	// JSON file round trip.
	data, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "cost.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := ParseCostModel(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("JSON round trip: got %+v, want %+v", got, want)
	}

	// k=v overrides reach the same model.
	got, err = ParseCostModel("adc_pj=2.125, mvm_ns=87.5")
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("k=v overrides: got %+v, want %+v", got, want)
	}

	// Through the flag surface into the engine config.
	o := parseAs(t, "x", []string{"-costmodel", "adc_pj=2.125,mvm_ns=87.5"})
	if o.CostModel() != want {
		t.Fatalf("Options.CostModel = %+v, want %+v", o.CostModel(), want)
	}
	if o.Engine().CostModel != want {
		t.Fatalf("engine config cost model = %+v, want %+v", o.Engine().CostModel, want)
	}

	// No override: defaults resolved, zero-value engine config preserved.
	o = parseAs(t, "x", nil)
	if o.CostModel() != analog.DefaultCostModel() {
		t.Fatalf("default cost model = %+v", o.CostModel())
	}
	if o.Engine() != (engine.Config{}) {
		t.Fatalf("default engine config = %+v, want zero value", o.Engine())
	}
}

// TestCostModelRejectsGarbage covers the error paths: unknown keys, bare
// tokens, non-numeric values, and JSON with unknown fields.
func TestCostModelRejectsGarbage(t *testing.T) {
	for _, spec := range []string{"warp_pj=1", "adc_pj", "adc_pj=fast"} {
		if _, err := ParseCostModel(spec); err == nil {
			t.Errorf("spec %q accepted", spec)
		}
	}
	path := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(path, []byte(`{"adc_pj": 1, "warp_pj": 2}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ParseCostModel(path); err == nil {
		t.Error("JSON with unknown field accepted")
	}
	// Finish surfaces the parse error.
	var o Options
	fs := flag.NewFlagSet("x", flag.ContinueOnError)
	o.RegisterFlags(fs)
	if err := fs.Parse([]string{"-costmodel", "warp_pj=1"}); err != nil {
		t.Fatal(err)
	}
	if err := o.Finish(); err == nil {
		t.Fatal("Finish accepted an invalid cost model")
	}
}

// TestFleetOptionsValidation pins the fleet/serving flag guard rails: a
// zero- or negative-chip fleet, an out-of-range fault gradient, and bad
// serving knobs all fail fast at startup instead of panicking (or silently
// misbehaving) deep inside the scheduler. Zero -kv-pages stays valid — it
// selects the documented slab-equivalent pool.
func TestFleetOptionsValidation(t *testing.T) {
	parseFleet := func(args []string) (*FleetOptions, error) {
		var f FleetOptions
		fs := flag.NewFlagSet("nora-serve", flag.ContinueOnError)
		f.RegisterFlags(fs)
		if err := fs.Parse(args); err != nil {
			t.Fatalf("parse %v: %v", args, err)
		}
		_, err := f.Fleet()
		return &f, err
	}
	for _, bad := range [][]string{
		{"-chips", "0"},
		{"-chips", "-3"},
		{"-fault-gradient", "-0.1"},
		{"-fault-gradient", "1.5"},
		{"-policy", "coinflip"},
	} {
		if _, err := parseFleet(bad); err == nil {
			t.Errorf("args %v: invalid fleet flags accepted", bad)
		}
	}
	f, err := parseFleet([]string{"-chips", "4", "-fault-gradient", "0.08", "-policy", "rr"})
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := f.Fleet()
	if err != nil {
		t.Fatal(err)
	}
	if len(cfg.Chips) != 4 || cfg.Chips[0].ID != "" || cfg.Chips[3].FaultRate != 0.08 {
		t.Fatalf("resolved fleet config: %+v", cfg)
	}
	// Defaults resolve to the implicit single chip (bit-identity path).
	f, err = parseFleet(nil)
	if err != nil {
		t.Fatal(err)
	}
	cfg, _ = f.Fleet()
	if len(cfg.Chips) != 1 || cfg.Chips[0] != (fleet.ChipSpec{}) {
		t.Fatalf("default fleet config not the implicit chip: %+v", cfg)
	}

	for _, bad := range [][3]int{
		{0, 64, 0},   // zero decode batch
		{-4, 64, 0},  // negative decode batch
		{16, 0, 0},   // zero prefill chunk
		{16, -8, 0},  // negative prefill chunk
		{16, 64, -1}, // negative kv pages
	} {
		if err := ValidateServeKnobs(bad[0], bad[1], bad[2]); err == nil {
			t.Errorf("ValidateServeKnobs(%v) accepted invalid knobs", bad)
		}
	}
	if err := ValidateServeKnobs(16, 64, 0); err != nil {
		t.Errorf("kv-pages 0 (slab-equivalent) rejected: %v", err)
	}
	if err := ValidateServeKnobs(1, 1, 128); err != nil {
		t.Errorf("minimal valid knobs rejected: %v", err)
	}
}
