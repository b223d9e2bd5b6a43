package harness

import (
	"math"
	"strings"
	"testing"

	"nora/internal/analog"
)

func TestNoiseKindStrings(t *testing.T) {
	seen := map[string]bool{}
	for _, k := range AllNoiseKinds() {
		s := k.String()
		if s == "" || seen[s] {
			t.Fatalf("bad or duplicate kind name %q", s)
		}
		seen[s] = true
	}
	if len(seen) != 8 {
		t.Fatalf("expected 8 noise kinds, got %d", len(seen))
	}
	if NoiseKind(99).String() == "" {
		t.Fatal("unknown kind should render")
	}
}

func TestIsIO(t *testing.T) {
	io := map[NoiseKind]bool{
		KindADCQuant: true, KindDACQuant: true, KindOutNoise: true, KindInNoise: true,
		KindIRDrop: false, KindReadNoise: false, KindSShape: false, KindProgNoise: false,
	}
	for k, want := range io {
		if k.IsIO() != want {
			t.Fatalf("%s: IsIO = %v", k, k.IsIO())
		}
	}
}

func TestConfigForSetsOnlyTheTargetKnob(t *testing.T) {
	base := analog.WithOnly(func(*analog.Config) {})
	check := func(k NoiseKind, param float64, inspect func(analog.Config) bool) {
		cfg := ConfigFor(k, param)
		if !inspect(cfg) {
			t.Fatalf("%s: knob not set", k)
		}
		// neutralize the knob; the rest must equal the all-ideal base
		switch k {
		case KindADCQuant:
			cfg.OutSteps = 0
		case KindDACQuant:
			cfg.InSteps = 0
		case KindOutNoise:
			cfg.OutNoise = 0
		case KindInNoise:
			cfg.InNoise = 0
		case KindIRDrop:
			cfg.IRDropScale = 0
		case KindReadNoise:
			cfg.WNoise = 0
		case KindSShape:
			cfg.SShape = 0
		case KindProgNoise:
			cfg.ProgNoiseScale = 0
		}
		if cfg != base {
			t.Fatalf("%s: other knobs disturbed: %+v", k, cfg)
		}
	}
	check(KindADCQuant, 33, func(c analog.Config) bool { return c.OutSteps == 33 })
	check(KindDACQuant, 17, func(c analog.Config) bool { return c.InSteps == 17 })
	check(KindOutNoise, 0.05, func(c analog.Config) bool { return c.OutNoise == 0.05 })
	check(KindInNoise, 0.03, func(c analog.Config) bool { return c.InNoise == 0.03 })
	check(KindIRDrop, 2, func(c analog.Config) bool { return c.IRDropScale == 2 })
	check(KindReadNoise, 0.02, func(c analog.Config) bool { return c.WNoise == 0.02 })
	check(KindSShape, 1.5, func(c analog.Config) bool { return c.SShape == 1.5 })
	check(KindProgNoise, 3, func(c analog.Config) bool { return c.ProgNoiseScale == 3 })
}

func TestConfigForUnknownPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	ConfigFor(NoiseKind(42), 1)
}

func TestMeasureMSEIdealIsTiny(t *testing.T) {
	mse := MeasureMSE(analog.Ideal(), 1)
	if mse > 1e-8 {
		t.Fatalf("ideal config MSE = %v, want ~0", mse)
	}
}

func TestMeasureMSEMonotoneInOutNoise(t *testing.T) {
	a := MeasureMSE(ConfigFor(KindOutNoise, 0.02), 1)
	b := MeasureMSE(ConfigFor(KindOutNoise, 0.08), 1)
	if a <= 0 || b <= 4*a*0.5 {
		t.Fatalf("MSE not growing with noise: %v vs %v", a, b)
	}
}

func TestMeasureMSEDeterministic(t *testing.T) {
	a := MeasureMSE(ConfigFor(KindOutNoise, 0.04), 5)
	b := MeasureMSE(ConfigFor(KindOutNoise, 0.04), 5)
	if a != b {
		t.Fatal("MeasureMSE must be deterministic for a fixed seed")
	}
}

func TestPaperMSETargetsWindow(t *testing.T) {
	targets := PaperMSETargets()
	if len(targets) < 4 {
		t.Fatal("need several sweep levels")
	}
	if targets[0] < 0.0001 || targets[0] > 0.0002 {
		t.Fatalf("first level %v outside paper's 0.0001–0.0002", targets[0])
	}
	last := targets[len(targets)-1]
	if last < 0.0027 || last > 0.0028 {
		t.Fatalf("last level %v outside paper's 0.0027–0.0028", last)
	}
	for i := 1; i < len(targets); i++ {
		if targets[i] <= targets[i-1] {
			t.Fatal("targets must ascend")
		}
	}
}

func TestCalibrateContinuousKinds(t *testing.T) {
	if testing.Short() {
		t.Skip("calibration search skipped in -short mode")
	}
	for _, kind := range []NoiseKind{KindOutNoise, KindReadNoise, KindProgNoise} {
		lvl := CalibrateToMSE(kind, 0.0015)
		if math.Abs(lvl.MSE-0.0015) > 0.3*0.0015 {
			t.Fatalf("%s: calibrated MSE %v misses target 0.0015", kind, lvl.MSE)
		}
		if lvl.Param <= 0 {
			t.Fatalf("%s: non-positive param", kind)
		}
	}
}

func TestCalibrateQuantKinds(t *testing.T) {
	if testing.Short() {
		t.Skip("calibration search skipped in -short mode")
	}
	for _, kind := range []NoiseKind{KindADCQuant, KindDACQuant} {
		lvl := CalibrateToMSE(kind, 0.0015)
		if lvl.Param < 1 {
			t.Fatalf("%s: steps < 1", kind)
		}
		if lvl.MSE < 0.0015/3 || lvl.MSE > 0.0015*3 {
			t.Fatalf("%s: integer-steps MSE %v too far from 0.0015", kind, lvl.MSE)
		}
	}
}

func TestTableText(t *testing.T) {
	tbl := NewTable("demo", "a", "bb")
	tbl.Add("x", 1.5)
	tbl.Add("longer", float32(2))
	var sb strings.Builder
	if err := tbl.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"=== demo ===", "a", "bb", "1.5000", "longer", "2.0000"} {
		if !strings.Contains(out, want) {
			t.Fatalf("text table missing %q:\n%s", want, out)
		}
	}
}

func TestTableCSV(t *testing.T) {
	tbl := NewTable("", "a", "b")
	tbl.Add(`has,comma`, `has"quote`)
	var sb strings.Builder
	if err := tbl.WriteCSV(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, `"has,comma"`) || !strings.Contains(out, `"has""quote"`) {
		t.Fatalf("CSV quoting wrong:\n%s", out)
	}
	if !strings.HasPrefix(out, "a,b\n") {
		t.Fatalf("CSV header wrong:\n%s", out)
	}
}

func TestTableMarkdown(t *testing.T) {
	tbl := NewTable("Fig. X", "a", "b")
	tbl.Add("v|alue", 1.25)
	var sb strings.Builder
	if err := tbl.WriteMarkdown(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"### Fig. X", "| a | b |", "| --- | --- |", `v\|alue`, "1.2500"} {
		if !strings.Contains(out, want) {
			t.Fatalf("markdown missing %q:\n%s", want, out)
		}
	}
}

func TestRenderersProduceRows(t *testing.T) {
	sp := []SensitivityPoint{{Model: "m", Kind: KindADCQuant}}
	if tb := SensitivityTable(sp); len(tb.Rows) != 1 {
		t.Fatal("SensitivityTable row count")
	}
	ar := []AccuracyRow{{Model: "m", Digital: 1, Naive: 0.2, NORA: 0.99}}
	if tb := AccuracyTable("t", ar); len(tb.Rows) != 1 {
		t.Fatal("AccuracyTable row count")
	}
	mr := []MitigationRow{{Model: "m", Kind: KindOutNoise}}
	if tb := MitigationTable(mr); len(tb.Rows) != 1 {
		t.Fatal("MitigationTable row count")
	}
	fr := []Fig6Row{{Model: "m"}}
	if tb := Fig6Table(fr); len(tb.Rows) != 1 {
		t.Fatal("Fig6Table row count")
	}
	dr := []DriftRow{{Model: "m"}}
	if tb := DriftTable(dr); len(tb.Rows) != 1 {
		t.Fatal("DriftTable row count")
	}
	lr := []LambdaRow{{Model: "m"}}
	if tb := LambdaTable(lr); len(tb.Rows) != 1 {
		t.Fatal("LambdaTable row count")
	}
}
