// Package cli is the single home of the flag surface shared by every nora
// binary: model directory, evaluation size, quick mode, noise-stream
// selection and the cost model. Before this package each command
// re-declared the same flags and re-derived an engine.Config from them by
// hand, and the copies drifted (defaults, help strings, stream validation).
// Now every binary registers one Options value and resolves engine
// configuration through one code path, so two commands given identical
// flags are guaranteed to build identical engines — a property pinned by
// TestBinariesResolveIdenticalEngineConfig.
//
// Usage pattern (all ten cmd binaries):
//
//	var opt cli.Options
//	opt.RegisterFlags(flag.CommandLine)
//	// ... binary-specific flags ...
//	flag.Parse()
//	if err := opt.Finish(); err != nil { ... }
//	eng := opt.NewEngine()
//	ws, err := opt.LoadModels("")
//
// Flags that a particular binary does not consume (for example
// -noise-stream on nora-train, which never deploys analog hardware) are
// still accepted, so the flag surface — and its defaults — is uniform
// across the whole tool set.
package cli

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"nora/internal/analog"
	"nora/internal/engine"
	"nora/internal/fleet"
	"nora/internal/harness"
	"nora/internal/model"
	"nora/internal/rng"
)

// Options is the shared configuration every nora binary accepts. The zero
// value is not ready to use; RegisterFlags installs the shared defaults.
type Options struct {
	// ModelDir is the directory holding the cached model zoo (-modeldir).
	ModelDir string
	// EvalN is the number of evaluation sequences per point (-eval).
	EvalN int
	// Quick selects a reduced sweep for fast smoke runs (-quick). Binaries
	// interpret it through QuickEval plus their own sweep shrinking.
	Quick bool
	// NoiseStream names the analog read-noise stream version
	// (-noise-stream): "v1" (Box-Muller, bit-compatible with prior runs) or
	// "v2" (ziggurat, faster). Finish validates and applies it.
	NoiseStream string
	// CostModelSpec overrides the energy/latency constants (-costmodel):
	// either a JSON file holding an analog.CostModel, or comma-separated
	// key=value pairs over the JSON keys (e.g. "adc_pj=2.1,mvm_ns=80").
	// Empty keeps analog.DefaultCostModel. Cost constants only price the
	// counted hardware events — they never change deployments or results.
	CostModelSpec string

	stream    rng.StreamVersion
	costModel analog.CostModel
	finished  bool
}

// Default flag values, shared by every binary. Exported so tests (and the
// serve layer) can assert against the single canonical set.
const (
	DefaultModelDir    = "testdata/models"
	DefaultNoiseStream = "v1"
)

// RegisterFlags installs the shared flag set on fs with the canonical
// defaults. Call before fs.Parse; binary-specific flags register alongside.
func (o *Options) RegisterFlags(fs *flag.FlagSet) {
	fs.StringVar(&o.ModelDir, "modeldir", DefaultModelDir, "directory with cached models")
	fs.IntVar(&o.EvalN, "eval", harness.EvalSize, "evaluation sequences per point")
	fs.BoolVar(&o.Quick, "quick", false, "reduced sweep for a fast smoke run")
	fs.StringVar(&o.NoiseStream, "noise-stream", DefaultNoiseStream, "analog noise stream: v1 (Box-Muller, bit-compatible with prior runs) or v2 (ziggurat, faster)")
	fs.StringVar(&o.CostModelSpec, "costmodel", "", "cost-model override: JSON file or k=v list (keys: dac_pj, adc_pj, cell_pj, mac_pj, mvm_ns, macs_per_ns, row_ns); empty = built-in defaults")
}

// Finish validates the parsed options and applies the process-wide ones
// (the analog noise-stream default). Call exactly once, after flag parsing
// and before NewEngine/LoadWorkloads.
func (o *Options) Finish() error {
	sv, err := rng.ParseStreamVersion(o.NoiseStream)
	if err != nil {
		return err
	}
	o.stream = sv
	analog.SetDefaultNoiseStream(sv)
	cm, err := ParseCostModel(o.CostModelSpec)
	if err != nil {
		return err
	}
	o.costModel = cm
	o.finished = true
	return nil
}

// ParseCostModel resolves a -costmodel spec: empty keeps the defaults, a
// path to a .json file (or any existing file) is decoded over the defaults,
// anything else is parsed as comma-separated key=value overrides using the
// JSON keys (see analog.CostModel).
func ParseCostModel(spec string) (analog.CostModel, error) {
	cm := analog.DefaultCostModel()
	if spec == "" {
		return cm, nil
	}
	if _, err := os.Stat(spec); err == nil || strings.HasSuffix(spec, ".json") {
		data, err := os.ReadFile(spec)
		if err != nil {
			return cm, fmt.Errorf("cli: -costmodel %s: %w", spec, err)
		}
		dec := json.NewDecoder(bytes.NewReader(data))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&cm); err != nil {
			return cm, fmt.Errorf("cli: -costmodel %s: %w", spec, err)
		}
		return cm, nil
	}
	for _, pair := range strings.Split(spec, ",") {
		key, val, ok := strings.Cut(strings.TrimSpace(pair), "=")
		if !ok {
			return cm, fmt.Errorf("cli: -costmodel: %q is neither a readable file nor key=value", pair)
		}
		v, err := strconv.ParseFloat(strings.TrimSpace(val), 64)
		if err != nil {
			return cm, fmt.Errorf("cli: -costmodel %s: %w", key, err)
		}
		if err := cm.Set(strings.TrimSpace(key), v); err != nil {
			return cm, fmt.Errorf("cli: -costmodel: %w", err)
		}
	}
	return cm, nil
}

// CostModel returns the resolved cost-model constants (Finish must have
// succeeded first).
func (o *Options) CostModel() analog.CostModel {
	o.mustFinish("CostModel")
	return o.costModel
}

// Stream returns the validated noise-stream version (Finish must have
// succeeded first).
func (o *Options) Stream() rng.StreamVersion {
	o.mustFinish("Stream")
	return o.stream
}

// Engine resolves the options into an engine configuration. Every binary
// derives its engine from this one function, so identical flags always
// mean identical engines.
func (o *Options) Engine() engine.Config {
	var cfg engine.Config
	if o.CostModelSpec != "" {
		// Only an explicit override lands in the config; the zero value lets
		// engine.New resolve analog.DefaultCostModel itself, keeping the
		// default engine config the zero value.
		cfg.CostModel = o.costModel
	}
	return cfg
}

// NewEngine builds the engine for the resolved configuration.
func (o *Options) NewEngine() *engine.Engine {
	o.mustFinish("NewEngine")
	return engine.New(o.Engine())
}

// QuickEval shrinks the evaluation size to n when -quick is set and -eval
// was left at its default, mirroring the historical per-binary behaviour
// (an explicit -eval always wins over -quick).
func (o *Options) QuickEval(n int) {
	if o.Quick && o.EvalN == harness.EvalSize {
		o.EvalN = n
	}
}

// LoadWorkloads assembles workloads for the given specs from the model
// directory, at the configured evaluation size and the standard
// calibration size (training and caching any missing models).
func (o *Options) LoadWorkloads(specs []model.Spec) ([]*harness.Workload, error) {
	o.mustFinish("LoadWorkloads")
	return harness.LoadZoo(o.ModelDir, specs, o.EvalN, harness.CalibSize)
}

// LoadModels is LoadWorkloads over a comma-separated zoo key list (empty
// selects the full zoo) — the selection syntax shared by -models flags.
func (o *Options) LoadModels(keys string) ([]*harness.Workload, error) {
	specs, err := ParseModels(keys)
	if err != nil {
		return nil, err
	}
	return o.LoadWorkloads(specs)
}

// mustFinish panics when Finish was skipped: silently running with an
// unvalidated (and unapplied) noise stream would be a correctness bug, not
// a recoverable condition.
func (o *Options) mustFinish(method string) {
	if !o.finished {
		panic(fmt.Sprintf("cli: Options.%s called before Finish", method))
	}
}

// ParseModels resolves a comma-separated list of zoo keys into specs; an
// empty list selects the full zoo.
func ParseModels(keys string) ([]model.Spec, error) {
	if keys == "" {
		return model.Zoo(), nil
	}
	var specs []model.Spec
	for _, key := range strings.Split(keys, ",") {
		spec, err := model.ByKey(strings.TrimSpace(key))
		if err != nil {
			return nil, err
		}
		specs = append(specs, spec)
	}
	return specs, nil
}

// FleetOptions is the shared flag surface for multi-chip fleet serving and
// simulation (nora-serve, nora-fleet). Resolve through Fleet(), which
// validates.
type FleetOptions struct {
	// Chips is the number of simulated chips (-chips); must be >= 1.
	Chips int
	// Replicas is the replicas per deployment (-replicas); 0 selects the
	// fleet default (one replica per shard-width chips), negatives are
	// rejected.
	Replicas int
	// Policy names the routing policy (-policy): roundrobin or health.
	Policy string
	// FaultGradient is the worst chip's stuck-at fault rate
	// (-fault-gradient): chips ramp linearly from fresh (chip 0) to this
	// rate, realizing a heterogeneous fleet. 0 keeps every chip fresh.
	FaultGradient float64
}

// RegisterFlags installs the fleet flag set on fs.
func (f *FleetOptions) RegisterFlags(fs *flag.FlagSet) {
	fs.IntVar(&f.Chips, "chips", 1, "simulated chips in the fleet (>= 1)")
	fs.IntVar(&f.Replicas, "replicas", 0, "replicas per deployment (0 = one per chip)")
	fs.StringVar(&f.Policy, "policy", "health", "replica routing policy: roundrobin or health")
	fs.Float64Var(&f.FaultGradient, "fault-gradient", 0,
		"stuck-at fault rate of the worst chip; chips ramp linearly from fresh to it")
}

// Fleet validates the parsed fleet flags and resolves the fleet
// configuration. A 1-chip fleet with no gradient is the implicit chip —
// bit-identical to fleet-unaware serving.
func (f *FleetOptions) Fleet() (fleet.Config, error) {
	if f.Chips < 1 {
		return fleet.Config{}, fmt.Errorf("cli: -chips %d: a fleet needs at least one chip", f.Chips)
	}
	if f.Replicas < 0 {
		return fleet.Config{}, fmt.Errorf("cli: -replicas %d must not be negative", f.Replicas)
	}
	if f.FaultGradient < 0 || f.FaultGradient >= 1 {
		return fleet.Config{}, fmt.Errorf("cli: -fault-gradient %g must be in [0, 1)", f.FaultGradient)
	}
	pol, err := fleet.ParsePolicy(f.Policy)
	if err != nil {
		return fleet.Config{}, err
	}
	return fleet.Config{
		Chips:    FleetChips(f.Chips, f.FaultGradient),
		Replicas: f.Replicas,
		Policy:   pol,
	}, nil
}

// FleetChips builds the canonical gradient chip set (see
// fleet.GradientChips): chip 0 is the implicit fresh chip and later chips
// ramp linearly up to the worst stuck-at rate.
func FleetChips(n int, worst float64) []fleet.ChipSpec {
	return fleet.GradientChips(n, worst)
}

// ValidateServeKnobs rejects serving knobs the schedulers would misbehave
// on: the continuous batcher needs at least one decode row and one prompt
// token of budget per step, and a negative KV page pool is meaningless.
// Zero KV pages stays valid — it selects the documented slab-equivalent
// auto-sized pool.
func ValidateServeKnobs(decodeBatch, prefillChunk, kvPages int) error {
	if decodeBatch <= 0 {
		return fmt.Errorf("cli: -decode-batch %d must be positive", decodeBatch)
	}
	if prefillChunk <= 0 {
		return fmt.Errorf("cli: -prefill-chunk %d must be positive", prefillChunk)
	}
	if kvPages < 0 {
		return fmt.Errorf("cli: -kv-pages %d must not be negative (0 = slab-equivalent pool)", kvPages)
	}
	return nil
}

// ParseFloats parses a comma-separated float list (ladder flags like
// -rates and -ages).
func ParseFloats(list string) ([]float64, error) {
	var out []float64
	for _, s := range strings.Split(list, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}

// ParseInts parses a comma-separated int list (the loadgen concurrency
// ladder).
func ParseInts(list string) ([]int, error) {
	var out []int
	for _, s := range strings.Split(list, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(s))
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}
