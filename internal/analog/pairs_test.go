package analog

import (
	"math"
	"testing"

	"nora/internal/rng"
	"nora/internal/stats"
	"nora/internal/tensor"
)

func TestDifferentialPairIdealIsExact(t *testing.T) {
	cfg := Ideal()
	cfg.DifferentialPair = true
	w := randMat(501, 24, 16)
	tile := NewTile(cfg, w, rng.New(502))
	x := randVec(503, 24)
	got := tile.MVMRow(x, rng.New(504))
	want := tensor.VecMul(x, w)
	for j := range want {
		if math.Abs(float64(got[j]-want[j])) > 2e-4*(1+math.Abs(float64(want[j]))) {
			t.Fatalf("ideal differential tile diverges at %d: %v vs %v", j, got[j], want[j])
		}
	}
}

// With programming noise, the differential mapping keeps a noise floor on
// zero weights (devices cannot be programmed exactly), stays within the
// physical g ∈ [0,1] range per device, and realizes a *different* noise
// process than the signed abstraction (per-device half-normal truncation
// at g = 0 versus symmetric perturbation of a signed value).
func TestDifferentialPairZeroWeightNoiseFloor(t *testing.T) {
	const n = 100
	w := tensor.New(n, n) // all-zero weights except a scale row
	for j := 0; j < n; j++ {
		w.Set(0, j, 1)
	}
	cfg := WithOnly(func(c *Config) { c.ProgNoiseScale = 1 })
	cfg.DifferentialPair = true
	tile := NewTile(cfg, w, rng.New(505))
	var sum2 float64
	nonzero := 0
	for i := 1; i < n; i++ {
		for j := 0; j < n; j++ {
			v := float64(tile.wEff.At(i, j))
			sum2 += v * v
			if v != 0 {
				nonzero++
			}
		}
	}
	if nonzero == 0 {
		t.Fatal("zero weights must still carry a programming-noise floor")
	}
	// Device conductances stay within the physical range.
	for i := range tile.gPlus.Data {
		if tile.gPlus.Data[i] < 0 || tile.gPlus.Data[i] > 1 ||
			tile.gMinus.Data[i] < 0 || tile.gMinus.Data[i] > 1 {
			t.Fatal("pair conductances escaped [0,1]")
		}
	}
	// The floor's magnitude is set by σ_prog(0) = c0 (order-of-magnitude
	// check: variance within [c0²/10, 10·c0²]).
	variance := sum2 / float64((n-1)*n)
	c02 := float64(progC0 * progC0)
	if variance < c02/10 || variance > c02*10 {
		t.Fatalf("zero-weight noise floor variance %v far from c0² = %v", variance, c02)
	}
	// Distinct realization from the signed abstraction under the same seed.
	cfgS := cfg
	cfgS.DifferentialPair = false
	signed := NewTile(cfgS, w, rng.New(505))
	same := true
	for i := range tile.wEff.Data {
		if tile.wEff.Data[i] != signed.wEff.Data[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("pair and signed programming should realize different noise")
	}
}

func TestDifferentialPairDriftIndependentDevices(t *testing.T) {
	// After drift, a pair-mapped tile's weights change even where g⁺ and
	// g⁻ were both non-trivially programmed; SetTime(0) restores exactly.
	cfg := Ideal()
	cfg.DifferentialPair = true
	w := randMat(506, 16, 8)
	tile := NewTile(cfg, w, rng.New(507))
	x := randVec(508, 16)
	fresh := tile.MVMRow(x, rng.New(509))
	tile.SetTime(3600)
	drifted := tile.MVMRow(x, rng.New(509))
	var magF, magD float64
	for j := range fresh {
		magF += math.Abs(float64(fresh[j]))
		magD += math.Abs(float64(drifted[j]))
	}
	if magD >= magF {
		t.Fatalf("pair drift must shrink outputs: %v → %v", magF, magD)
	}
	tile.SetTime(0)
	restored := tile.MVMRow(x, rng.New(509))
	for j := range fresh {
		if restored[j] != fresh[j] {
			t.Fatal("SetTime(0) must restore the programmed pair state")
		}
	}
}

func TestDifferentialPairDriftCompensation(t *testing.T) {
	w := randMat(510, 32, 8)
	x := randVec(511, 32)
	want := tensor.VecMul(x, w)
	run := func(comp bool) float64 {
		cfg := Ideal()
		cfg.DifferentialPair = true
		cfg.DriftT = 3600
		cfg.DriftCompensation = comp
		tile := NewTile(cfg, w, rng.New(512))
		return stats.MSE(tile.MVMRow(x, rng.New(513)), want)
	}
	if c, n := run(true), run(false); c >= n {
		t.Fatalf("pair drift compensation must reduce error: %v vs %v", c, n)
	}
}

func TestPaperPresetUsesDifferentialPairs(t *testing.T) {
	if !PaperPreset().DifferentialPair {
		t.Fatal("paper preset should use the physical differential-pair mapping")
	}
}

func TestPairVsSignedAgreeWithoutProgNoise(t *testing.T) {
	// Without programming noise or drift, the two mappings are the same
	// linear operator.
	w := randMat(528, 20, 10)
	x := randVec(529, 20)
	mk := func(pair bool) []float32 {
		cfg := Ideal()
		cfg.DifferentialPair = pair
		tile := NewTile(cfg, w, rng.New(530))
		return tile.MVMRow(x, rng.New(531))
	}
	a, b := mk(false), mk(true)
	for j := range a {
		if math.Abs(float64(a[j]-b[j])) > 1e-6*(1+math.Abs(float64(a[j]))) {
			t.Fatalf("pair and signed mappings diverge at %d: %v vs %v", j, a[j], b[j])
		}
	}
}
