package analog

import (
	"math"
	"testing"

	"nora/internal/rng"
	"nora/internal/stats"
	"nora/internal/tensor"
)

// --- write-verify programming (paper §II) ---------------------------------

func TestWriteVerifyReducesProgrammingError(t *testing.T) {
	w := randMat(901, 64, 64)
	// Exaggerate programming noise; verify reads are noiseless here so the
	// iteration converges to the minimum-pulse floor.
	mse := func(iters int) float64 {
		cfg := WithOnly(func(c *Config) { c.ProgNoiseScale = 3 })
		cfg.WriteVerify = iters
		tile := NewTile(cfg, w, rng.New(902))
		// compare programmed weights to the ideal normalized weights
		ideal := NewTile(Ideal(), w, rng.New(903))
		var s float64
		for i := range tile.wProg.Data {
			d := float64(tile.wProg.Data[i] - ideal.wProg.Data[i])
			s += d * d
		}
		return s / float64(len(tile.wProg.Data))
	}
	m0, m3 := mse(0), mse(3)
	if m3 >= m0/2 {
		t.Fatalf("write-verify should cut programming error: %v → %v", m0, m3)
	}
}

func TestWriteVerifyDifferentialPairs(t *testing.T) {
	w := randMat(904, 48, 32)
	x := randVec(905, 48)
	want := tensor.VecMul(x, w)
	mse := func(iters int) float64 {
		cfg := WithOnly(func(c *Config) { c.ProgNoiseScale = 3 })
		cfg.DifferentialPair = true
		cfg.WriteVerify = iters
		tile := NewTile(cfg, w, rng.New(906))
		return stats.MSE(tile.MVMRow(x, rng.New(907)), want)
	}
	if m0, m3 := mse(0), mse(3); m3 >= m0 {
		t.Fatalf("pair write-verify should cut error: %v → %v", m0, m3)
	}
}

func TestWriteVerifyFloorFromReadNoise(t *testing.T) {
	// With read noise during verify, extra iterations cannot converge
	// below the read floor — error must not blow up either.
	w := randMat(908, 64, 64)
	cfg := WithOnly(func(c *Config) { c.ProgNoiseScale = 1 })
	cfg.WNoise = 0.05 // verify reads are noisy
	cfg.WriteVerify = 6
	tile := NewTile(cfg, w, rng.New(909))
	ideal := NewTile(Ideal(), w, rng.New(910))
	var s float64
	for i := range tile.wProg.Data {
		d := float64(tile.wProg.Data[i] - ideal.wProg.Data[i])
		s += d * d
	}
	rms := math.Sqrt(s / float64(len(tile.wProg.Data)))
	if rms > 0.15 {
		t.Fatalf("write-verify with noisy reads diverged: rms %v", rms)
	}
	if rms == 0 {
		t.Fatal("noisy verify cannot be exact")
	}
}

// --- ReRAM device preset (paper §VII) --------------------------------------

func TestReRAMPresetDevice(t *testing.T) {
	c := ReRAMPreset()
	if c.ProgPoly == ([3]float32{}) {
		t.Fatal("ReRAM must override the programming polynomial")
	}
	if c.ProgPoly[1] != 0 || c.ProgPoly[2] != 0 {
		t.Fatal("ReRAM programming noise should be conductance-independent")
	}
	if c.DriftScale >= 1 || c.DriftScale <= 0 {
		t.Fatalf("ReRAM drift scale %v should be well below PCM's 1.0", c.DriftScale)
	}
	if c.WNoise <= PaperPreset().WNoise {
		t.Fatal("ReRAM RTN read noise should exceed PCM's")
	}
}

func TestReRAMDriftsLessThanPCM(t *testing.T) {
	w := randMat(940, 32, 16)
	x := randVec(941, 32)
	want := tensor.VecMul(x, w)
	drifted := func(cfg Config) float64 {
		cfg.DriftT = 3600
		// isolate drift: disable the stochastic read path
		cfg.OutNoise, cfg.WNoise, cfg.InSteps, cfg.OutSteps = 0, 0, 0, 0
		cfg.IRDropScale, cfg.ProgNoiseScale = 0, 0
		tile := NewTile(cfg, w, rng.New(942))
		// remove the 1/f read-noise floor so only deterministic decay remains
		tile.readStd = 0
		return stats.MSE(tile.MVMRow(x, rng.New(943)), want)
	}
	pcm := drifted(PaperPreset())
	rer := drifted(ReRAMPreset())
	if rer >= pcm/2 {
		t.Fatalf("ReRAM 1h-drift error %v should be well below PCM %v", rer, pcm)
	}
}

func TestReRAMFlatProgNoise(t *testing.T) {
	// σ_prog must not depend on the conductance under the ReRAM polynomial.
	cfg := ReRAMPreset()
	tile := &Tile{cfg: cfg}
	if tile.progSigma(0.1) != tile.progSigma(0.9) {
		t.Fatal("ReRAM programming noise should be flat in conductance")
	}
	pcm := &Tile{cfg: PaperPreset()}
	if pcm.progSigma(0.1) == pcm.progSigma(0.9) {
		t.Fatal("PCM programming noise should depend on conductance")
	}
}

// --- bit-serial input streaming (paper §II "bit streams") ------------------

func TestBitSerialMatchesVoltageModeNoiseless(t *testing.T) {
	// With quantization as the only non-ideality, bit-serial streaming
	// reconstructs exactly the same quantized input as voltage mode, so
	// the results agree up to the per-plane ADC rounding.
	w := randMat(911, 32, 16)
	x := randVec(912, 32)
	base := WithOnly(func(c *Config) { c.InSteps = 64 })
	base.OutSteps = 0 // isolate the input path
	voltage := NewTile(base, w, rng.New(913)).MVMRow(x, rng.New(914))
	serial := base
	serial.BitSerial = true
	got := NewTile(serial, w, rng.New(913)).MVMRow(x, rng.New(914))
	for j := range got {
		if math.Abs(float64(got[j]-voltage[j])) > 2e-3*(1+math.Abs(float64(voltage[j]))) {
			t.Fatalf("noiseless bit-serial diverges at %d: %v vs %v", j, got[j], voltage[j])
		}
	}
}

func TestBitSerialRequiresInSteps(t *testing.T) {
	cfg := Ideal()
	cfg.BitSerial = true // InSteps 0
	tile := NewTile(cfg, randMat(915, 8, 4), rng.New(916))
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	tile.MVMRow(randVec(917, 8), rng.New(918))
}

func TestBitSerialCountsPlaneReads(t *testing.T) {
	cfg := WithOnly(func(c *Config) { c.InSteps = 64 })
	cfg.BitSerial = true
	tile := NewTile(cfg, randMat(919, 8, 4), rng.New(920))
	tile.MVMRow(randVec(921, 8), rng.New(922))
	c := tile.Counters().Snapshot()
	planes := tile.bitPlanes()
	if planes != 7 { // 64 needs 7 bits
		t.Fatalf("bitPlanes(64) = %d", planes)
	}
	if c.ADCConvs != int64(planes)*4 || c.DACConvs != int64(planes)*8 {
		t.Fatalf("bit-serial conversions wrong: %+v (planes %d)", c, planes)
	}
	if c.MVMs != 1 {
		t.Fatalf("one logical MVM expected, got %d", c.MVMs)
	}
}

func TestBitSerialOutputNoiseAccumulates(t *testing.T) {
	// Per-plane output noise makes bit-serial noisier than voltage mode
	// under pure additive output noise — a real engineering trade-off.
	w := randMat(923, 32, 16)
	x := randVec(924, 32)
	want := tensor.VecMul(x, w)
	mse := func(serial bool) float64 {
		cfg := WithOnly(func(c *Config) { c.OutNoise = 0.04 })
		cfg.InSteps = 64
		cfg.BitSerial = serial
		var total float64
		for trial := uint64(0); trial < 6; trial++ {
			tile := NewTile(cfg, w, rng.New(925+trial))
			total += stats.MSE(tile.MVMRow(x, rng.New(935+trial)), want)
		}
		return total
	}
	mv, ms := mse(false), mse(true)
	if ms <= mv {
		t.Fatalf("bit-serial should accumulate more output noise: serial %v vs voltage %v", ms, mv)
	}
}

func TestBitSerialUnderPaperNoiseBounded(t *testing.T) {
	w := randMat(926, 64, 64)
	x := randMat(927, 8, 64)
	want := tensor.MatMul(x, w)
	cfg := PaperPreset()
	cfg.BitSerial = true
	l := NewAnalogLinear("bs", w, nil, nil, cfg, rng.New(928))
	got := l.Forward(x)
	rel := math.Sqrt(tensor.MSE(got, want)) / (want.Frobenius() / math.Sqrt(float64(len(want.Data))))
	if rel > 0.5 {
		t.Fatalf("bit-serial paper-preset error unreasonable: rel RMS %v", rel)
	}
}

func TestBitSerialDeterminism(t *testing.T) {
	cfg := PaperPreset()
	cfg.BitSerial = true
	w := randMat(929, 16, 8)
	x := randVec(930, 16)
	a := NewTile(cfg, w, rng.New(931)).MVMRow(x, rng.New(932))
	b := NewTile(cfg, w, rng.New(931)).MVMRow(x, rng.New(932))
	for j := range a {
		if a[j] != b[j] {
			t.Fatal("bit-serial reads must be reproducible")
		}
	}
}
