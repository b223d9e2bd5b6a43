// Command perfbench is the repository's benchmark: it runs one workload
// in-process for a fixed time, checks the program's outputs, and prints
// each metric with its unit and sample count, ending with one JSON line.
//
//	bash perfbench/run.sh --workload predict --seed 1 --seconds 45 --trace 0
//
// Run it from the repository root. Every workload reports the same
// metrics, so the result line holds all of BENCHMARK.json's: --trace 0
// reports the end-to-end metrics; --trace 1 runs the workload once
// untraced and once traced, then times the layer ladder on the workload's
// own deployment, and reports the per-layer metrics. Figures kept out of
// the regression gate, such as one workload's own layers or a tail too
// noisy to gate, are printed as details, outside the result line (see
// README.md for every definition).
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// metric is one reported number with its unit and the count of samples
// it summarizes.
type metric struct {
	name    string
	unit    string
	value   float64
	samples int
}

// phase is one run of a workload: set up, warm up, measure, check.
type phase struct {
	e2e       []metric // end-to-end metrics, the same names on every workload
	layers    []metric // per-layer metrics, the same names on every workload (traced phases only)
	details   []metric // printed, not in the result line
	attempted int      // operations sent: requests, or sweep cells
	failed    int      // operations that failed or returned wrong output
	problems  []string // every failed check, with its reason
}

// fail records a failed check.
func (p *phase) fail(format string, args ...any) {
	p.problems = append(p.problems, fmt.Sprintf(format, args...))
}

// check counts one operation sent to the program, recording it as failed
// when err is set, and reports whether it succeeded.
func (p *phase) check(err error, format string, args ...any) bool {
	p.attempted++
	if err != nil {
		p.failed++
		p.fail(format+": %v", append(args, err)...)
		return false
	}
	return true
}

// windowed reports the median over windows of each window's pct-th
// percentile, with the total sample count, after requiring minTail samples
// beyond the percentile in every window.
func (p *phase) windowed(name string, ds []dist, pct float64) metric {
	total := 0
	for i, d := range ds {
		if n := d.tail(pct); n < minTail {
			p.fail("%s: window %d has only %d samples beyond p%g (need %d)", name, i, n, pct, minTail)
		}
		total += len(d)
	}
	return metric{name, "ms", medianOver(func(i int) float64 { return ds[i].percentile(pct) }), total}
}

// options are the command-line settings every workload receives.
type options struct {
	seed    uint64
	seconds time.Duration
}

// workload runs one benchmark workload; a non-nil tracer makes it a traced
// phase, which also reports the per-layer metrics and times the ladder.
type workload func(o options, tr *tracer) (*phase, error)

var workloads = map[string]workload{
	"sweep":   runSweep,
	"predict": runPredict,
}

// overheadMetric is the end-to-end metric the tracing overhead is measured
// on; lower is better.
const overheadMetric = "latency_p50_ms"

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run() error {
	name := flag.String("workload", "", "workload to run: sweep or predict")
	seed := flag.Uint64("seed", 1, "seed every workload input is drawn from")
	seconds := flag.Int("seconds", 45, "length of the measured phase in seconds")
	traced := flag.Int("trace", 0, "1 reports per-layer metrics from a traced run")
	flag.Parse()
	w, ok := workloads[*name]
	switch {
	case !ok:
		return fmt.Errorf("unknown workload %q (want sweep or predict)", *name)
	case *seconds < 1:
		return fmt.Errorf("--seconds %d must be at least 1", *seconds)
	case *traced != 0 && *traced != 1:
		return fmt.Errorf("--trace %d must be 0 or 1", *traced)
	}
	// Pin GOMAXPROCS to the CPUs this process may run on, so the engine's
	// worker pools size the same way on every run.
	runtime.GOMAXPROCS(runtime.NumCPU())
	o := options{seed: *seed, seconds: time.Duration(*seconds) * time.Second}

	meta, err := collectMeta(*name, *seed, *traced == 1)
	if err != nil {
		return err
	}
	fmt.Printf("meta %s\n", encode(meta))

	base, err := w(o, nil)
	if err != nil {
		return err
	}
	attempted, failed := base.attempted, base.failed
	problems := base.problems
	fmt.Println("end-to-end (untraced run):")
	printMetrics(base.e2e)
	printDetails(*name+" details (untraced run, not in the result line):", base.details)
	out := base.e2e

	if *traced == 1 {
		tr := newTracer()
		tp, err := w(o, tr)
		if err != nil {
			return err
		}
		attempted += tp.attempted
		failed += tp.failed
		problems = append(problems, tp.problems...)
		untracedV, tracedV := find(base.e2e, overheadMetric), find(tp.e2e, overheadMetric)
		out = append(tp.layers, metric{
			name:    "trace.overhead_share",
			unit:    "share",
			value:   overheadShare(untracedV.value, tracedV.value),
			samples: tracedV.samples,
		})
		fmt.Printf("end-to-end (traced run; %s %.4g vs untraced %.4g):\n", overheadMetric, tracedV.value, untracedV.value)
		printMetrics(tp.e2e)
		fmt.Println("per-layer (traced run):")
		printMetrics(out)
		printDetails(*name+" details (traced run, not in the result line):", tp.details)
		if path, err := tr.write(traceDir(), fmt.Sprintf("%s-seed%d.json", *name, *seed)); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
		} else {
			fmt.Println("spans written to", path)
		}
	}

	fmt.Printf("operations: sent=%d succeeded=%d failed=%d\n", attempted, attempted-failed, failed)
	for _, p := range problems {
		fmt.Println("FAILED CHECK:", p)
	}
	if err := checkManifest(manifestPath, *traced == 1, out); err != nil {
		return err
	}
	return printResult(len(problems) == 0, attempted, failed, out)
}

// manifestPath is BENCHMARK.json, relative to the repository root.
const manifestPath = "BENCHMARK.json"

// checkManifest requires the result line to carry exactly the metrics the
// manifest declares for the mode, end_to_end untraced and per_layer
// traced, each in its declared unit. A run whose metrics drifted from the
// manifest fails instead of printing a result the manifest cannot read.
func checkManifest(path string, traced bool, ms []metric) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("reading the manifest: %w", err)
	}
	var man struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &man); err != nil {
		return fmt.Errorf("reading the manifest: %w", err)
	}
	want := man.EndToEnd
	if traced {
		want = man.PerLayer
	}
	got := make(map[string]string, len(ms))
	for _, m := range ms {
		got[m.name] = m.unit
	}
	var diffs []string
	for _, w := range want {
		unit, ok := got[w.Name]
		switch {
		case !ok:
			diffs = append(diffs, w.Name+" is not measured")
		case unit != w.Unit:
			diffs = append(diffs, fmt.Sprintf("%s is in %s, declared in %s", w.Name, unit, w.Unit))
		}
		delete(got, w.Name)
	}
	for name := range got {
		diffs = append(diffs, name+" is not declared")
	}
	if len(diffs) > 0 {
		sort.Strings(diffs)
		return fmt.Errorf("%s does not match the metrics: %s", path, strings.Join(diffs, "; "))
	}
	return nil
}

// find returns the named metric; every workload reports overheadMetric.
func find(ms []metric, name string) metric {
	for _, m := range ms {
		if m.name == name {
			return m
		}
	}
	return metric{name: name, value: math.NaN()}
}

func printMetrics(ms []metric) {
	for _, m := range ms {
		fmt.Printf("  %-28s %14.6g %-8s samples=%d\n", m.name, m.value, m.unit, m.samples)
	}
}

// printDetails prints a workload's own figures under a heading, if any.
func printDetails(heading string, ms []metric) {
	if len(ms) > 0 {
		fmt.Println(heading)
		printMetrics(ms)
	}
}

// printResult prints the closing JSON line: exactly correct, attempted,
// failed and metrics, every value with all its digits.
func printResult(correct bool, attempted, failed int, ms []metric) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]value, len(ms))
	var bad []string
	for _, m := range ms {
		if math.IsNaN(m.value) || math.IsInf(m.value, 0) {
			bad = append(bad, m.name)
			continue
		}
		metrics[m.name] = value{m.value, m.unit}
	}
	if len(bad) > 0 {
		sort.Strings(bad)
		return errors.New("no value measured for " + strings.Join(bad, ", "))
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{correct, attempted, failed, metrics})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// traceDir is where traced runs write their spans: next to the benchmark
// binary, inside the build directory.
func traceDir() string {
	exe, err := os.Executable()
	if err != nil {
		return filepath.Join(".bench_build", "traces")
	}
	return filepath.Join(filepath.Dir(exe), "traces")
}
