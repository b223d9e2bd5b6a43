package harness

import (
	"fmt"
	"io"
	"math"
	"strings"
)

// Chart renders simple ASCII scatter/line charts so experiment series —
// e.g. the accuracy-vs-MSE curves of Fig. 3 — can be inspected directly in
// the terminal without a plotting stack.
type Chart struct {
	Title  string
	XLabel string
	YLabel string
	W, H   int // plot area in characters (excluding axes)

	series []chartSeries
}

type chartSeries struct {
	name   string
	xs, ys []float64
}

// seriesMarkers are assigned to series in order.
var seriesMarkers = []rune{'*', 'o', '+', 'x', '#', '@', '%', '&'}

// NewChart creates a chart with the given plot-area size (sensible
// defaults are applied for non-positive dimensions).
func NewChart(title, xlabel, ylabel string, w, h int) *Chart {
	if w <= 0 {
		w = 60
	}
	if h <= 0 {
		h = 16
	}
	return &Chart{Title: title, XLabel: xlabel, YLabel: ylabel, W: w, H: h}
}

// AddSeries appends a named series; xs and ys must have equal length.
func (c *Chart) AddSeries(name string, xs, ys []float64) {
	if len(xs) != len(ys) {
		panic("harness: Chart.AddSeries length mismatch")
	}
	c.series = append(c.series, chartSeries{name: name, xs: append([]float64(nil), xs...), ys: append([]float64(nil), ys...)})
}

// bounds returns the data range across all series, padding degenerate
// (flat) ranges so every point stays plottable.
func (c *Chart) bounds() (xmin, xmax, ymin, ymax float64) {
	xmin, ymin = math.Inf(1), math.Inf(1)
	xmax, ymax = math.Inf(-1), math.Inf(-1)
	for _, s := range c.series {
		for i := range s.xs {
			xmin = math.Min(xmin, s.xs[i])
			xmax = math.Max(xmax, s.xs[i])
			ymin = math.Min(ymin, s.ys[i])
			ymax = math.Max(ymax, s.ys[i])
		}
	}
	if math.IsInf(xmin, 1) { // no data
		return 0, 1, 0, 1
	}
	if xmax == xmin {
		xmax = xmin + 1
	}
	if ymax == ymin {
		ymax = ymin + 1
	}
	return
}

// Render writes the chart to w.
func (c *Chart) Render(w io.Writer) error {
	xmin, xmax, ymin, ymax := c.bounds()
	grid := make([][]rune, c.H)
	for r := range grid {
		grid[r] = make([]rune, c.W)
		for col := range grid[r] {
			grid[r][col] = ' '
		}
	}
	for si, s := range c.series {
		marker := seriesMarkers[si%len(seriesMarkers)]
		for i := range s.xs {
			col := int(math.Round((s.xs[i] - xmin) / (xmax - xmin) * float64(c.W-1)))
			row := int(math.Round((s.ys[i] - ymin) / (ymax - ymin) * float64(c.H-1)))
			row = c.H - 1 - row // origin bottom-left
			if col >= 0 && col < c.W && row >= 0 && row < c.H {
				grid[row][col] = marker
			}
		}
	}

	var b strings.Builder
	if c.Title != "" {
		fmt.Fprintf(&b, "%s\n", c.Title)
	}
	yTop := fmt.Sprintf("%.3g", ymax)
	yBot := fmt.Sprintf("%.3g", ymin)
	pad := len(yTop)
	if len(yBot) > pad {
		pad = len(yBot)
	}
	for r := 0; r < c.H; r++ {
		label := strings.Repeat(" ", pad)
		switch r {
		case 0:
			label = fmt.Sprintf("%*s", pad, yTop)
		case c.H - 1:
			label = fmt.Sprintf("%*s", pad, yBot)
		}
		fmt.Fprintf(&b, "%s |%s\n", label, string(grid[r]))
	}
	fmt.Fprintf(&b, "%s +%s\n", strings.Repeat(" ", pad), strings.Repeat("-", c.W))
	xLeft := fmt.Sprintf("%.3g", xmin)
	xRight := fmt.Sprintf("%.3g", xmax)
	gap := c.W - len(xLeft) - len(xRight)
	if gap < 1 {
		gap = 1
	}
	fmt.Fprintf(&b, "%s  %s%s%s\n", strings.Repeat(" ", pad), xLeft, strings.Repeat(" ", gap), xRight)
	if c.XLabel != "" || c.YLabel != "" {
		fmt.Fprintf(&b, "%s  x: %s   y: %s\n", strings.Repeat(" ", pad), c.XLabel, c.YLabel)
	}
	for si, s := range c.series {
		fmt.Fprintf(&b, "%s  %c %s\n", strings.Repeat(" ", pad), seriesMarkers[si%len(seriesMarkers)], s.name)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// Series declares one chart series over a uniform result-row type: a name,
// an optional row filter, and the x/y projections. The chart companion of
// the Col/TableOf table emitter.
type Series[R any] struct {
	Name   string
	Filter func(R) bool // nil = all rows
	X, Y   func(R) float64
}

// ChartOf builds a chart declaratively from experiment rows × series specs.
// Series with no matching rows are omitted (so per-model series lists can
// be declared for the full zoo and rendered for whatever subset ran).
func ChartOf[R any](title, xlabel, ylabel string, rows []R, series []Series[R]) *Chart {
	chart := NewChart(title, xlabel, ylabel, 60, 12)
	for _, s := range series {
		var xs, ys []float64
		for _, r := range rows {
			if s.Filter != nil && !s.Filter(r) {
				continue
			}
			xs = append(xs, s.X(r))
			ys = append(ys, s.Y(r))
		}
		if len(xs) > 0 {
			chart.AddSeries(s.Name, xs, ys)
		}
	}
	return chart
}

// SensitivityCharts builds one accuracy-vs-achieved-MSE chart per noise
// kind that has points (the terminal rendition of Fig. 3's panels).
func SensitivityCharts(points []SensitivityPoint) []*Chart {
	var names []string
	seen := map[string]bool{}
	for _, p := range points {
		if !seen[p.Model] {
			seen[p.Model] = true
			names = append(names, p.Model)
		}
	}
	sortStrings(names)
	var charts []*Chart
	for _, kind := range AllNoiseKinds() {
		kind := kind
		series := make([]Series[SensitivityPoint], 0, len(names))
		for _, name := range names {
			name := name
			series = append(series, Series[SensitivityPoint]{
				Name:   name,
				Filter: func(p SensitivityPoint) bool { return p.Kind == kind && p.Model == name },
				X:      func(p SensitivityPoint) float64 { return p.MSE },
				Y:      func(p SensitivityPoint) float64 { return p.Accuracy },
			})
		}
		chart := ChartOf(fmt.Sprintf("Fig. 3 (%s) — accuracy vs reference MSE", kind),
			"reference MSE", "accuracy", points, series)
		if len(chart.series) > 0 {
			charts = append(charts, chart)
		}
	}
	return charts
}

func sortStrings(xs []string) {
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && xs[j] < xs[j-1]; j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
}
