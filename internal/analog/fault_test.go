package analog

import (
	"math"
	"sync"
	"testing"

	"nora/internal/rng"
	"nora/internal/tensor"
)

// faultyConfig is a paper-preset tile with every fault/mitigation knob
// engaged, on small tiles so layers map onto multi-tile grids.
func faultyConfig() Config {
	cfg := PaperPreset()
	cfg.TileRows, cfg.TileCols = 16, 12
	cfg.FaultRate = 0.05
	cfg.FaultSA1Frac = 0.3
	cfg.GMaxStd = 0.05
	cfg.PVRetries = 3
	cfg.SpareCols = 2
	return cfg
}

// Same seed + same fault config → bit-identical programmed conductances and
// identical fault statistics, independently of everything around the build.
func TestFaultProgrammingDeterministic(t *testing.T) {
	w := randMat(61, 40, 30)
	a := NewAnalogLinear("l", w, nil, nil, faultyConfig(), rng.New(700))
	b := NewAnalogLinear("l", w, nil, nil, faultyConfig(), rng.New(700))
	if a.FaultStats() != b.FaultStats() {
		t.Fatalf("fault stats diverged: %+v vs %+v", a.FaultStats(), b.FaultStats())
	}
	if a.FaultStats().Stuck == 0 {
		t.Fatal("fault config drew no stuck devices")
	}
	ta, tb := a.Tiles(), b.Tiles()
	for rb := range ta {
		for cb := range ta[rb] {
			ga := ta[rb][cb].(*Tile)
			gb := tb[rb][cb].(*Tile)
			for i, v := range ga.wEff.Data {
				if math.Float32bits(v) != math.Float32bits(gb.wEff.Data[i]) {
					t.Fatalf("tile %d.%d conductance %d diverged: %v vs %v", rb, cb, i, v, gb.wEff.Data[i])
				}
			}
		}
	}
	// A different seed must realize a different fault pattern.
	c := NewAnalogLinear("l", w, nil, nil, faultyConfig(), rng.New(701))
	if c.FaultStats() == a.FaultStats() && c.FaultStats().Stuck > 0 {
		// Equal aggregate counts are possible but all-equal including PVWrites
		// across two seeds on this many devices is overwhelmingly unlikely.
		t.Fatalf("independent seeds realized identical fault statistics: %+v", a.FaultStats())
	}
}

// On an otherwise ideal tile, a stuck device reads exactly its rail and a
// healthy device reads exactly its target; the realized stuck fraction must
// track FaultRate.
func TestStuckAtPinsRails(t *testing.T) {
	cfg := Ideal()
	cfg.TileRows, cfg.TileCols = 256, 256
	cfg.FaultRate = 0.05
	cfg.FaultSA1Frac = 0.5
	w := randMat(62, 256, 256)
	tile := NewTile(cfg, w, rng.New(71))

	fs := tile.FaultStats()
	if fs.Devices != 256*256 {
		t.Fatalf("device count %d, want %d", fs.Devices, 256*256)
	}
	frac := fs.StuckFraction()
	if frac < 0.04 || frac > 0.06 {
		t.Fatalf("realized stuck fraction %.4f far from FaultRate 0.05", frac)
	}
	var offRail int
	for i, v := range tile.wEff.Data {
		ideal := w.Data[i] / tile.colScale[i%256]
		switch {
		case math.Float32bits(v) == math.Float32bits(ideal):
			// healthy: programmed exactly (no programming noise on Ideal)
		case v == 0 || v == 1 || v == -1:
			offRail++ // stuck at G_min (0) or G_max (±1)
		default:
			t.Fatalf("cell %d neither ideal nor pinned: programmed %v, ideal %v", i, v, ideal)
		}
	}
	if int64(offRail) > fs.Stuck {
		t.Fatalf("%d cells off target, only %d drawn stuck", offRail, fs.Stuck)
	}
}

// The program-verify retry loop must tighten realized conductances around
// their targets relative to single-shot programming.
func TestPVRetryImprovesProgramming(t *testing.T) {
	base := PaperPreset()
	base.TileRows, base.TileCols = 64, 64
	w := randMat(63, 64, 64)

	meanErr := func(cfg Config) float64 {
		tile := NewTile(cfg, w, rng.New(72))
		var sum float64
		for i, v := range tile.wEff.Data {
			ideal := w.Data[i] / tile.colScale[i%64]
			d := float64(v - ideal)
			if d < 0 {
				d = -d
			}
			sum += d
		}
		return sum / float64(len(tile.wEff.Data))
	}

	retried := base
	retried.PVRetries = 4
	e0, e1 := meanErr(base), meanErr(retried)
	if e1 >= e0 {
		t.Fatalf("program-verify retries did not help: err %.5f (0 retries) vs %.5f (4)", e0, e1)
	}
	tile := NewTile(retried, w, rng.New(72))
	if tile.FaultStats().PVWrites == 0 {
		t.Fatal("retry loop issued no re-program pulses")
	}
}

// Spare-column remapping must repair stuck columns the retry loop cannot:
// with spares available, fewer devices end outside tolerance and the
// composite error against the fault-free tile shrinks.
func TestSpareRemapRepairsStuckColumns(t *testing.T) {
	cfg := PaperPreset()
	cfg.TileRows, cfg.TileCols = 16, 16
	cfg.FaultRate = 0.02
	cfg.PVRetries = 3
	w := randMat(64, 16, 16)

	bare := NewTile(cfg, w, rng.New(73))
	spared := cfg
	spared.SpareCols = 16
	fixed := NewTile(spared, w, rng.New(73))

	fb, ff := bare.FaultStats(), fixed.FaultStats()
	if ff.RemappedCols == 0 {
		t.Fatal("no columns were remapped despite stuck devices and spares")
	}
	if ff.UnfixedCells >= fb.UnfixedCells {
		t.Fatalf("remapping did not reduce unfixed cells: %d (spares) vs %d (none)",
			ff.UnfixedCells, fb.UnfixedCells)
	}
}

// A stuck device does not drift: with FaultRate = 1 every cell is pinned at
// a rail, and advancing time must leave the array bit-identical.
func TestStuckCellsPinnedUnderDrift(t *testing.T) {
	cfg := Ideal()
	cfg.TileRows, cfg.TileCols = 32, 32
	cfg.FaultRate = 1
	cfg.FaultSA1Frac = 0.5
	w := randMat(65, 32, 32)

	fresh := NewTile(cfg, w, rng.New(74))
	aged := cfg
	aged.DriftT = 1e6 // ~11.5 days after programming
	drifted := NewTile(aged, w, rng.New(74))
	for i, v := range fresh.wEff.Data {
		if math.Float32bits(v) != math.Float32bits(drifted.wEff.Data[i]) {
			t.Fatalf("stuck cell %d drifted: %v → %v", i, v, drifted.wEff.Data[i])
		}
	}

	// Sanity check the inverse: healthy cells under the same age must drift.
	healthy := Ideal()
	healthy.TileRows, healthy.TileCols = 32, 32
	h0 := NewTile(healthy, w, rng.New(74))
	hAged := healthy
	hAged.DriftT = 1e6
	h1 := NewTile(hAged, w, rng.New(74))
	same := true
	for i := range h0.wEff.Data {
		if math.Float32bits(h0.wEff.Data[i]) != math.Float32bits(h1.wEff.Data[i]) {
			same = false
			break
		}
	}
	if same {
		t.Fatal("healthy cells did not drift at t = 1e6 s")
	}
}

// The chip-to-chip conductance scale must move every realized conductance
// by one common factor.
func TestChipScaleAppliesGlobally(t *testing.T) {
	cfg := Ideal()
	cfg.TileRows, cfg.TileCols = 32, 32
	cfg.GMaxStd = 0.1
	w := randMat(66, 32, 32)
	scaled := NewTile(cfg, w, rng.New(75))
	nomCfg := cfg
	nomCfg.GMaxStd = 0
	nominal := NewTile(nomCfg, w, rng.New(75))
	if scaled.chipScale == 1 || scaled.chipScale <= 0 {
		t.Fatalf("chip scale not drawn: %v", scaled.chipScale)
	}
	for i, v := range nominal.wEff.Data {
		want := v * scaled.chipScale
		if math.Float32bits(scaled.wEff.Data[i]) != math.Float32bits(want) {
			t.Fatalf("cell %d: %v, want %v·%v", i, scaled.wEff.Data[i], v, scaled.chipScale)
		}
	}
}

// Every fault field must key the fingerprint, and the all-disabled group
// must stay suffix-free so pre-fault fingerprints (and their derived
// deployment seeds) are unchanged.
func TestFaultFingerprintSuffix(t *testing.T) {
	base := PaperPreset()
	if !base.faultFree() {
		t.Fatal("paper preset must be fault-free")
	}
	fp := base.Fingerprint()
	for i := 0; i < len(fp); i++ {
		if fp[i] == 'f' && i+6 <= len(fp) && fp[i:i+6] == "fault=" {
			t.Fatalf("fault-free fingerprint carries a fault suffix: %s", fp)
		}
	}
	perturbed := []Config{base, base, base, base, base}
	perturbed[0].FaultRate = 0.01
	perturbed[1].FaultSA1Frac = 0.5
	perturbed[2].GMaxStd = 0.02
	perturbed[3].PVRetries = 1
	perturbed[4].SpareCols = 1
	seen := map[string]bool{fp: true}
	for i, c := range perturbed {
		got := c.Fingerprint()
		if seen[got] {
			t.Fatalf("fault field %d did not change the fingerprint: %s", i, got)
		}
		seen[got] = true
	}
}

// -race hammer over the fault pipeline: concurrent tile programming (each
// with the full retry/remap machinery) plus concurrent scoped reads of a
// shared faulty layer, pinned against the serial results bit-for-bit.
func TestFaultyProgrammingAndReadsParallel(t *testing.T) {
	cfg := faultyConfig()
	w := randMat(67, 40, 30)
	l := NewAnalogLinear("l", w, nil, nil, cfg, rng.New(902))
	x := randMat(68, 2, 40)

	labels := []string{"s0", "s1", "s2", "s3"}
	serial := make([]*tensor.Matrix, len(labels))
	for i, lb := range labels {
		serial[i] = l.WithNoiseScope(lb).Forward(x)
	}
	want := l.FaultStats()

	iters := 12
	if testing.Short() {
		iters = 4
	}
	var wg sync.WaitGroup
	errc := make(chan error, 2*len(labels))
	for i, lb := range labels {
		wg.Add(1)
		go func(i int, lb string) {
			defer wg.Done()
			for it := 0; it < iters; it++ {
				// Re-program an identically seeded twin while others read.
				twin := NewAnalogLinear("l", w, nil, nil, cfg, rng.New(902))
				if twin.FaultStats() != want {
					errc <- errFaultStats
					return
				}
				got := l.WithNoiseScope(lb).Forward(x)
				for j, v := range got.Data {
					if math.Float32bits(v) != math.Float32bits(serial[i].Data[j]) {
						errc <- errScopedRead
						return
					}
				}
			}
		}(i, lb)
	}
	wg.Wait()
	close(errc)
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
}

var (
	errFaultStats = errString("concurrent rebuild realized different fault statistics")
	errScopedRead = errString("scoped read of faulty layer diverged from serial")
)

type errString string

func (e errString) Error() string { return string(e) }
