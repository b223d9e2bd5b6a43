package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"nora/internal/cli"
	"nora/internal/harness"
)

var update = flag.Bool("update", false, "rewrite testdata/golden from this run")

const goldenDir = "../../testdata/golden"

// TestQuickRunsMatchGolden runs every study's quick variant through run, the
// function main calls, all in one Env as report shares it, against the
// committed zoo. Each study's text must equal testdata/golden/<ID>.txt, the
// output of `nora -quick run <ID>`, byte for byte, and every CSV it writes
// must be non-empty. E22's tok/s and speedup columns are wall clock; the
// test drops them before rendering (they also set the column widths), so
// E22's golden lacks them.
func TestQuickRunsMatchGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every study's quick variant on the committed zoo")
	}
	var opt cli.Options
	fs := flag.NewFlagSet("nora", flag.ContinueOnError)
	opt.RegisterFlags(fs)
	if err := fs.Parse([]string{"-quick", "-modeldir", "../../testdata/models"}); err != nil {
		t.Fatal(err)
	}
	if err := opt.Finish(); err != nil {
		t.Fatal(err)
	}
	opt.QuickEval(50)
	env := newEnv(&opt)
	csvDir := t.TempDir()

	for _, en := range harness.Registry() {
		var got bytes.Buffer
		if en.ID == "E22" {
			res, err := en.Run(env)
			if err != nil {
				t.Fatal(err)
			}
			dropColumns(res.Tables[0], "tok/s", "speedup")
			if err := res.WriteCSVFiles(csvDir, en.ID); err != nil {
				t.Fatal(err)
			}
			if err := res.WriteText(&got); err != nil {
				t.Fatal(err)
			}
		} else if err := run(&got, env, []string{en.ID}, csvDir); err != nil {
			t.Fatal(err)
		}

		path := filepath.Join(goldenDir, en.ID+".txt")
		if *update {
			if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if line, g, w := firstDiff(got.String(), string(want)); line > 0 {
			t.Errorf("%s differs from %s at line %d:\n got: %q\nwant: %q", en.ID, path, line, g, w)
		}
	}

	files, err := os.ReadDir(csvDir)
	if err != nil {
		t.Fatal(err)
	}
	if len(files) < len(harness.Registry()) {
		t.Fatalf("%d CSV files for %d studies", len(files), len(harness.Registry()))
	}
	for _, f := range files {
		if info, err := f.Info(); err != nil || info.Size() == 0 {
			t.Errorf("CSV %s is empty (%v)", f.Name(), err)
		}
	}
}

// dropColumns removes the named columns from t.
func dropColumns(t *harness.Table, names ...string) {
	drop := map[string]bool{}
	for _, n := range names {
		drop[n] = true
	}
	var keep []int
	for i, h := range t.Headers {
		if !drop[h] {
			keep = append(keep, i)
		}
	}
	pickCells := func(cells []string) []string {
		out := make([]string, len(keep))
		for j, i := range keep {
			out[j] = cells[i]
		}
		return out
	}
	t.Headers = pickCells(t.Headers)
	for r, row := range t.Rows {
		t.Rows[r] = pickCells(row)
	}
}

// firstDiff returns the first line (1-based) where got and want differ,
// with both lines; 0 when they are equal.
func firstDiff(got, want string) (int, string, string) {
	if got == want {
		return 0, "", ""
	}
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; ; i++ {
		var gl, wl string
		if i < len(g) {
			gl = g[i]
		}
		if i < len(w) {
			wl = w[i]
		}
		if gl != wl || i >= len(g) || i >= len(w) {
			return i + 1, gl, wl
		}
	}
}
