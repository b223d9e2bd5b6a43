// Command nora runs the studies of EXPERIMENTS.md — every table and figure
// of the paper's evaluation plus the extension studies — from one registry
// (harness.Registry).
//
// Usage:
//
//	nora [flags] list
//	nora [flags] run ID...
//	nora [flags] report
//
// list prints each study's ID, the part of the paper it reproduces and the
// zoo models of its full and quick variants. run prints the named studies'
// tables and charts as text, with the engine stats on stderr. report runs
// every study into one markdown file with an engine-stats and cost footer.
//
// Flags go before the subcommand. Beside the shared ones (-modeldir, -eval,
// -quick, -noise-stream, -costmodel, -cpuprofile, -memprofile) there are
// two:
//
//	-csv DIR   also write every table as CSV into DIR: <ID>.csv, or
//	           <ID>-1.csv, <ID>-2.csv, ... for a study with several tables
//	-out PATH  the report's markdown file (default results/report.md)
//
// -quick selects every study's reduced variant and evaluates 50 sequences
// per point unless -eval says otherwise. A study's parameters (models,
// ladders, recipes) live in its registry entry; edit the entry to run
// another ladder.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"nora/internal/cli"
	"nora/internal/harness"
	"nora/internal/model"
	"nora/internal/prof"
)

func main() {
	var opt cli.Options
	opt.RegisterFlags(flag.CommandLine)
	csvDir := flag.String("csv", "", "also write every table as CSV into this directory")
	out := flag.String("out", "results/report.md", "report: output markdown path")
	flag.Usage = func() {
		fmt.Fprintln(flag.CommandLine.Output(), "usage: nora [flags] list | run ID... | report")
		flag.PrintDefaults()
	}
	flag.Parse()
	if err := opt.Finish(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	opt.QuickEval(50)

	stopProf := prof.Start()
	err := dispatch(&opt, flag.Args(), *csvDir, *out)
	stopProf()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

func dispatch(opt *cli.Options, args []string, csvDir, out string) error {
	if len(args) == 0 {
		flag.Usage()
		return fmt.Errorf("nora: missing subcommand")
	}
	env := newEnv(opt)
	switch cmd, ids := args[0], args[1:]; {
	case cmd == "list" && len(ids) == 0:
		return list(os.Stdout)
	case cmd == "run" && len(ids) > 0:
		if err := run(os.Stdout, env, ids, csvDir); err != nil {
			return err
		}
		fmt.Fprintln(os.Stderr, env.Eng.Stats())
		return nil
	case cmd == "report" && len(ids) == 0:
		return report(os.Stdout, env, out, csvDir)
	}
	flag.Usage()
	return fmt.Errorf("nora: bad subcommand %q", strings.Join(args, " "))
}

// newEnv builds the one engine and workload set every study of the process
// shares.
func newEnv(opt *cli.Options) *harness.Env {
	return &harness.Env{
		Eng:       opt.NewEngine(),
		ModelDir:  opt.ModelDir,
		EvalN:     opt.EvalN,
		Quick:     opt.Quick,
		CostModel: opt.CostModel(),
	}
}

// list prints the registry as a table.
func list(w io.Writer) error {
	models := func(specs []model.Spec) string {
		if len(specs) == len(model.Zoo()) {
			return "whole zoo"
		}
		keys := make([]string, len(specs))
		for i, s := range specs {
			keys[i] = s.Key
		}
		return strings.Join(keys, ",")
	}
	t := harness.NewTable("", "id", "reproduces", "models", "quick models")
	for _, en := range harness.Registry() {
		t.Add(en.ID, en.Figure, models(en.Full), models(en.Quick))
	}
	return t.WriteText(w)
}

// run runs the studies named by ids, in order, and writes each one's tables
// and charts to w as text (and its tables as CSV into csvDir when set).
func run(w io.Writer, env *harness.Env, ids []string, csvDir string) error {
	entries := make([]harness.Entry, len(ids))
	for i, id := range ids {
		en, err := harness.Lookup(id)
		if err != nil {
			return err
		}
		entries[i] = en
	}
	for _, en := range entries {
		res, err := en.Run(env)
		if err != nil {
			return fmt.Errorf("%s: %w", en.ID, err)
		}
		if err := writeCSV(res, csvDir, en.ID); err != nil {
			return err
		}
		if err := res.WriteText(w); err != nil {
			return err
		}
	}
	return nil
}

func writeCSV(res *harness.Result, dir, id string) error {
	if dir == "" {
		return nil
	}
	return res.WriteCSVFiles(dir, id)
}

// report runs every study into one markdown file at path, printing each
// table's title to progress as it lands, and ends the file with the
// engine's stats and counted-cost footer.
func report(progress io.Writer, env *harness.Env, path, csvDir string) (err error) {
	start := time.Now()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	// A close error means the tail of the report never reached disk; it must
	// fail the run, not leave a silently truncated report behind.
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()

	if _, err := fmt.Fprintf(f, "# NORA reproduction report\n\ngenerated %s · eval=%d per point · quick=%v\n\n",
		time.Now().Format(time.RFC3339), env.EvalN, env.Quick); err != nil {
		return err
	}
	for _, en := range harness.Registry() {
		res, err := en.Run(env)
		if err != nil {
			return fmt.Errorf("%s: %w", en.ID, err)
		}
		if err := writeCSV(res, csvDir, en.ID); err != nil {
			return err
		}
		if err := res.WriteMarkdown(f); err != nil {
			return err
		}
		for _, t := range res.Tables {
			fmt.Fprintf(progress, "[%7s] %s\n", time.Since(start).Round(time.Second), t.Title)
		}
	}

	stats := env.Eng.Stats()
	cost := stats.Cost
	if _, err := fmt.Fprintf(f, "---\nengine stats: `%s`\n\ncost (all deployments, counted events): analog %.1f uJ / %.1f ms vs digital %.1f uJ / %.1f ms — energy saving %.1fx, bm-retries %d\n\ntotal wall time: %s\n",
		stats,
		cost.Analog.EnergyPJ/1e6, cost.Analog.LatencyNS/1e6,
		cost.Digital.EnergyPJ/1e6, cost.Digital.LatencyNS/1e6,
		cost.EnergySaving, cost.Analog.Counters.BMRetries,
		time.Since(start).Round(time.Second)); err != nil {
		return err
	}
	fmt.Fprintln(progress, stats)
	fmt.Fprintf(progress, "report written to %s (%s)\n", path, time.Since(start).Round(time.Second))
	return nil
}
