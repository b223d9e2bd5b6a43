// Package analog simulates a PCM-based analog compute-in-memory (CIM)
// accelerator tile and the AnalogLinear layer that maps transformer linear
// layers onto grids of such tiles, reproducing the aihwkit-style noise
// model the paper evaluates with (Table I / Table II):
//
//	I/O non-idealities:  DAC quantization, ADC quantization + saturation,
//	                     additive input noise, additive output noise,
//	                     S-shape output nonlinearity
//	tile non-idealities: programming noise, short-term weight read noise,
//	                     IR-drop, long-term drift + 1/f read noise
//
// The MVM pipeline per input row and tile follows Eq. 3–5 of the paper:
//
//	y_ij = α_i·γ_j · f_adc( Σ_k (ŵ_kj + σ_w ξ)·(f_dac(x_ik/α_i) + σ_in ξ) + σ_out ξ )
//
// with per-column weight scales γ_j = max|w_j|/g_max and per-row input
// scales α_i = max_k |x_ik| (abs-max noise management). NORA
// (internal/core) injects its per-channel component s_k by pre-scaling the
// weight columns and input channels before this mapping (Eq. 6–7).
package analog

import (
	"fmt"

	"nora/internal/rng"
)

// Config holds every tile parameter. The zero value is not useful; start
// from PaperPreset or Ideal and modify.
type Config struct {
	// TileRows and TileCols give the crossbar dimensions; larger weight
	// matrices are partitioned across a grid of tiles whose partial sums
	// are accumulated digitally.
	TileRows, TileCols int

	// InSteps and OutSteps are the DAC and ADC resolutions as quantization
	// steps per side (2·steps+1 levels over the converter range); a b-bit
	// converter has 2^(b−1) steps (see StepsForBits). 0 disables
	// quantization on that converter (ideal converter). Matches aihwkit's
	// in_res/out_res parameters.
	InSteps, OutSteps int

	// InNoise and OutNoise are the standard deviations of the additive
	// Gaussian "system" noise at the DAC output and ADC input, in units
	// of the normalized input (±1) and output, respectively.
	InNoise, OutNoise float32

	// WNoise is the standard deviation of short-term (cycle-by-cycle)
	// weight read noise, relative to the unit-normalized weights.
	WNoise float32

	// ProgNoiseScale scales the conductance-dependent programming noise
	// σ_prog(ĝ) = scale·(c0 + c1·ĝ + c2·ĝ²) applied once when weights
	// are programmed. 0 disables. 1.0 matches the device model.
	ProgNoiseScale float32

	// ProgPoly overrides the programming-noise polynomial coefficients
	// (c0, c1, c2). The zero value selects the PCM-like defaults;
	// ReRAMPreset installs a flat (conductance-independent) polynomial.
	ProgPoly [3]float32

	// DriftScale multiplies the per-device drift exponents ν. 0 selects
	// the PCM default of 1.0; ReRAM-class devices drift far less.
	DriftScale float32

	// IRDropScale scales the deterministic bitline IR-drop attenuation.
	// 0 disables; 1.0 is the paper's setting.
	IRDropScale float32

	// SShape sets the severity a of the S-shaped output nonlinearity
	// z → B·tanh(a·z/B)/tanh(a); 0 disables (linear).
	SShape float32

	// OutBound is the ADC full-scale bound B in normalized output units;
	// analog outputs beyond ±B saturate.
	OutBound float32

	// BoundManagement re-runs a saturating MVM with the input scaled
	// down by 2× (up to BMMaxIter times), trading input resolution for
	// headroom — aihwkit's iterative bound management.
	BoundManagement bool
	BMMaxIter       int

	// WriteVerify sets the number of write-verify refinement iterations
	// used when programming weights (paper §II: conductances are set by a
	// "write-verify memory programming process"). Each iteration reads
	// the programmed conductance back (with read noise WNoise) and
	// re-programs the residual, shrinking the effective programming error
	// toward the read-noise floor. 0 keeps single-shot programming.
	WriteVerify int

	// BitSerial streams the DAC input as signed binary pulse planes over
	// ⌈log2(InSteps)⌉+1 cycles instead of one analog voltage (paper §II:
	// "input vectors are converted into analog signals or bit streams").
	// Each plane runs the analog pipeline and its own ADC conversion;
	// planes are combined digitally with shift-add. Requires InSteps > 0.
	BitSerial bool

	// WeightSlices > 1 decomposes every weight into that many
	// base-2^SliceBits digits held on separate crossbar slices whose
	// digitized outputs are shift-added (paper §VII: multi-cell weight
	// precision for devices without continuous analog states). 0 or 1
	// keeps the continuous single-cell mapping. SliceBits defaults to 4
	// when unset.
	WeightSlices int
	SliceBits    int

	// DifferentialPair stores each weight as a pair of unipolar
	// conductances w = g⁺ − g⁻ (the standard PCM mapping). Programming
	// noise and drift then act per device: a weight near zero is two
	// *small* conductances whose independent errors do not cancel, and
	// drift moves g⁺ and g⁻ with independent exponents. Off, the tile
	// uses an idealized signed-conductance abstraction.
	DifferentialPair bool

	// DriftT is the time in seconds since programming. > 0 activates
	// conductance drift ĝ(t) = ĝ·(t/t0)^(−ν) with per-device ν, plus
	// 1/f read noise growing with log t.
	DriftT float64

	// DriftCompensation applies global drift compensation: outputs are
	// rescaled by the measured average conductance decay (the simple
	// compensation the paper alludes to for drift).
	DriftCompensation bool

	// NoiseStream holds no setting: rng.StreamVersion is zero-size, and
	// every deployment draws the one Box-Muller stream. The field stays
	// because perfbench/rungs.go seeds its tile rung with
	// rng.NewStream(seed, cfg.NoiseStream).
	NoiseStream rng.StreamVersion

	// FaultRate is the per-device stuck-at fault probability, drawn once at
	// programming time: a faulty device ignores programming and pins its
	// conductance to a rail. 0 disables device faults. Under
	// DifferentialPair the g⁺ and g⁻ devices of a weight fault
	// independently.
	FaultRate float32

	// FaultSA1Frac is the fraction of faulty devices stuck at G_max
	// ("stuck-at-1"); the remainder are stuck at G_min ("stuck-at-0", the
	// dominant failure mode of formed PCM/ReRAM cells). 0 makes every fault
	// stuck-at-G_min.
	FaultSA1Frac float32

	// GMaxStd is the standard deviation of the per-tile log-normal global
	// conductance scale exp(σ·ξ) applied to every programmed conductance —
	// the chip-to-chip (and macro-to-macro) G_max transfer variation of real
	// deployments, which the digital rescale chain calibrated for nominal
	// G_max does not correct. 0 disables.
	GMaxStd float32

	// PVRetries enables the program-verify retry mitigation: after initial
	// programming, up to PVRetries passes read every device back (with the
	// tile's read noise) and re-program the cells whose realized
	// conductance deviates from the target by more than pvTol. Stuck
	// devices cannot be corrected by re-programming; they are left for
	// SpareCols remapping. 0 disables the retry loop.
	PVRetries int

	// SpareCols is the number of spare crossbar columns per tile available
	// for fault remapping: after the retry loop, columns still holding an
	// out-of-tolerance cell are re-routed to a fault-free spare column,
	// re-programmed from the ideal targets (ROMER-style replacement).
	// 0 disables remapping.
	SpareCols int
}

// pvTol is the program-verify acceptance tolerance in unit-normalized
// conductance: 2% of the full conductance range, a little above the PCM
// programming-noise floor so healthy cells converge in one or two retries.
const pvTol = 0.02

// faultFree reports whether every device-fault/mitigation extension of this
// configuration is disabled — the condition under which Fingerprint stays
// suffix-free and programming is bit-identical to the pre-fault code.
func (c Config) faultFree() bool {
	return c.FaultRate == 0 && c.FaultSA1Frac == 0 && c.GMaxStd == 0 &&
		c.PVRetries == 0 && c.SpareCols == 0
}

// Programming-noise polynomial σ_prog(ĝ)/scale = c0 + c1·ĝ + c2·ĝ², with ĝ
// the unit-normalized conductance magnitude. Coefficients follow the
// PCM-like noise model shipped with aihwkit, normalized to g_max = 25 µS.
const (
	progC0 = 0.0105
	progC1 = 0.0786
	progC2 = -0.0469
)

// Drift model constants (PCM): ν ~ N(nuMean, nuStd) clipped to
// [nuMin, nuMax], reference time t0, and the 1/f read-noise coefficient.
const (
	driftNuMean = 0.031
	driftNuStd  = 0.012
	driftNuMin  = 0.0
	driftNuMax  = 0.1
	driftT0     = 20.0   // seconds
	readNoise1F = 0.0057 // relative 1/f read noise coefficient
	tRead       = 250e-9 // seconds, single read duration
)

// configFieldCount is the number of fields Fingerprint must cover. A test
// checks it against reflect.TypeOf(Config{}).NumField() so that adding a
// field without extending Fingerprint fails loudly instead of silently
// aliasing distinct configurations in the engine's deployment cache.
const configFieldCount = 28

// Fingerprint returns a stable, content-derived identifier of the
// configuration: two Configs share a fingerprint iff every field is equal.
// The engine uses it as a deployment cache-key component and as an input to
// seed derivation, so the encoding must stay deterministic across runs —
// it lists every field explicitly rather than relying on struct layout.
//
// The literals gmax=25, nm=0, alpha=0, pertile=false, adcoff=0, adcgain=0
// and the 0 in pv= stand for settings the tile no longer has. Every
// deployed configuration printed exactly that text for them, so keeping it
// keeps every deployment seed.
func (c Config) Fingerprint() string {
	fp := fmt.Sprintf(
		"tile=%dx%d;gmax=25;in=%d;out=%d;innoise=%g;outnoise=%g;wnoise=%g;"+
			"prog=%g;poly=%g,%g,%g;driftscale=%g;ir=%g;sshape=%g;bound=%g;"+
			"bm=%t,%d;nm=0;alpha=0;pertile=false;wv=%d;bitserial=%t;"+
			"slices=%d,%d;diffpair=%t;adcoff=0;adcgain=0;driftt=%g;driftcomp=%t",
		c.TileRows, c.TileCols, c.InSteps, c.OutSteps, c.InNoise, c.OutNoise, c.WNoise,
		c.ProgNoiseScale, c.ProgPoly[0], c.ProgPoly[1], c.ProgPoly[2], c.DriftScale,
		c.IRDropScale, c.SShape, c.OutBound, c.BoundManagement, c.BMMaxIter,
		c.WriteVerify, c.BitSerial, c.WeightSlices, c.SliceBits, c.DifferentialPair,
		c.DriftT, c.DriftCompensation)
	// Device-fault and mitigation fields add no suffix while all disabled,
	// keeping every pre-fault fingerprint (and deployment seed)
	// byte-identical; any non-zero field keys the whole group.
	if !c.faultFree() {
		fp += fmt.Sprintf(";fault=%g,%g;gmaxstd=%g;pv=%d,0;spare=%d",
			c.FaultRate, c.FaultSA1Frac, c.GMaxStd, c.PVRetries, c.SpareCols)
	}
	return fp
}

// PaperPreset returns the aihwkit settings of Table II of the paper:
// 7-bit DAC/ADC, out_noise 0.04, w_noise 0.0175, ir_drop 1.0, 512×512
// tiles, with noise & bound management enabled and PCM-like programming
// noise.
func PaperPreset() Config {
	return Config{
		TileRows: 512, TileCols: 512,
		InSteps:  StepsForBits(7),
		OutSteps: StepsForBits(7),
		InNoise:  0.0, OutNoise: 0.04,
		WNoise:           0.0175,
		ProgNoiseScale:   1.0,
		IRDropScale:      1.0,
		SShape:           0.0,
		OutBound:         12,
		BoundManagement:  true,
		BMMaxIter:        4,
		DifferentialPair: true,
	}
}

// ReRAMPreset returns a ReRAM-class variant of the paper preset (§VII:
// "this method can also be extended to other NVM devices such as ReRAM"):
// programming noise is roughly conductance-independent (filamentary
// switching), random-telegraph read noise is higher than PCM's, and
// long-term drift is an order of magnitude weaker.
func ReRAMPreset() Config {
	c := PaperPreset()
	c.ProgPoly = [3]float32{0.03, 0, 0}
	c.WNoise = 0.03
	c.DriftScale = 0.1
	return c
}

// Ideal returns a configuration with every non-ideality disabled; the
// AnalogLinear then computes an exact (up to float32) x·W + b. Useful as
// the digital baseline inside sweeps and as a correctness anchor in tests.
func Ideal() Config {
	return Config{
		TileRows: 512, TileCols: 512,
		OutBound: 1e9,
	}
}

// WithOnly returns a copy of the paper preset in which every noise source
// is disabled except the named one, set via the modify callback. This is
// the construction behind the paper's sensitivity study (Fig. 3), which
// scales each non-ideality "independently with other non-idealities set
// into the ideal situation".
func WithOnly(modify func(*Config)) Config {
	c := Ideal()
	c.BoundManagement = true
	c.BMMaxIter = 4
	c.OutBound = 12
	modify(&c)
	return c
}
