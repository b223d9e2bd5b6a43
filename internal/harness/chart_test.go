package harness

import (
	"strings"
	"testing"
)

func TestChartBasicRender(t *testing.T) {
	c := NewChart("demo", "xs", "ys", 20, 5)
	c.AddSeries("a", []float64{0, 1}, []float64{0, 1})
	var sb strings.Builder
	if err := c.Render(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"demo", "x: xs", "y: ys", "* a"} {
		if !strings.Contains(out, want) {
			t.Fatalf("chart missing %q:\n%s", want, out)
		}
	}
	lines := strings.Split(out, "\n")
	// first plot row contains the max-y point at the far right
	var topRow, bottomRow string
	for _, l := range lines {
		if strings.Contains(l, "|") {
			if topRow == "" {
				topRow = l
			}
			bottomRow = l
		}
	}
	if !strings.HasSuffix(strings.TrimRight(topRow, " "), "*") {
		t.Fatalf("(1,1) should land top-right: %q", topRow)
	}
	if !strings.Contains(bottomRow, "|*") {
		t.Fatalf("(0,0) should land bottom-left: %q", bottomRow)
	}
}

func TestChartDegenerateData(t *testing.T) {
	// flat series and single points must not divide by zero
	c := NewChart("", "", "", 10, 4)
	c.AddSeries("flat", []float64{1, 2, 3}, []float64{5, 5, 5})
	c.AddSeries("dot", []float64{2}, []float64{5})
	var sb strings.Builder
	if err := c.Render(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "*") {
		t.Fatal("markers missing")
	}
	// empty chart
	e := NewChart("", "", "", 10, 4)
	var sb2 strings.Builder
	if err := e.Render(&sb2); err != nil {
		t.Fatal(err)
	}
}

func TestChartSeriesLengthPanic(t *testing.T) {
	c := NewChart("", "", "", 10, 4)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	c.AddSeries("bad", []float64{1}, []float64{1, 2})
}

func TestChartDefaultDimensions(t *testing.T) {
	c := NewChart("t", "", "", 0, 0)
	if c.W <= 0 || c.H <= 0 {
		t.Fatal("defaults not applied")
	}
}

func TestSensitivityCharts(t *testing.T) {
	points := []SensitivityPoint{
		{Model: "m1", Kind: KindADCQuant, MSE: 0.001, Accuracy: 0.9},
		{Model: "m1", Kind: KindADCQuant, MSE: 0.002, Accuracy: 0.5},
		{Model: "m2", Kind: KindADCQuant, MSE: 0.001, Accuracy: 0.95},
		{Model: "m1", Kind: KindOutNoise, MSE: 0.001, Accuracy: 0.2},
	}
	var sb strings.Builder
	for _, c := range SensitivityCharts(points) {
		if err := c.Render(&sb); err != nil {
			t.Fatal(err)
		}
	}
	out := sb.String()
	if !strings.Contains(out, "adc-quant") || !strings.Contains(out, "out-noise") {
		t.Fatalf("charts missing kinds:\n%s", out)
	}
	if !strings.Contains(out, "* m1") || !strings.Contains(out, "o m2") {
		t.Fatalf("series legend missing:\n%s", out)
	}
	// kinds with no data are skipped silently
	if strings.Contains(out, "ir-drop") {
		t.Fatal("empty kind should be skipped")
	}
}

func TestSortStrings(t *testing.T) {
	xs := []string{"c", "a", "b"}
	sortStrings(xs)
	if xs[0] != "a" || xs[2] != "c" {
		t.Fatalf("sorted: %v", xs)
	}
}
