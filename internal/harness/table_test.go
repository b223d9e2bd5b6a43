package harness

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestWriteCSVFileCreatesParentDirs is the regression test for a
// `-csv results/robustness.csv` export failing on a fresh checkout: WriteCSVFile must create missing parent directories itself
// instead of relying on each caller to MkdirAll first.
func TestWriteCSVFileCreatesParentDirs(t *testing.T) {
	tbl := NewTable("t", "a", "b")
	tbl.Add("x", 1.5)
	path := filepath.Join(t.TempDir(), "results", "nested", "out.csv")
	if err := tbl.WriteCSVFile(path); err != nil {
		t.Fatalf("WriteCSVFile into missing parent dir: %v", err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := string(data), "a,b\nx,1.5000\n"; got != want {
		t.Fatalf("CSV content = %q, want %q", got, want)
	}
}

// TestWriteCSVFileBareName: a path with no directory component must not
// trip over MkdirAll(".").
func TestWriteCSVFileBareName(t *testing.T) {
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := os.Chdir(wd); err != nil {
			t.Fatal(err)
		}
	}()
	tbl := NewTable("t", "h")
	tbl.Add("v,with,commas")
	if err := tbl.WriteCSVFile("bare.csv"); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile("bare.csv")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `"v,with,commas"`) {
		t.Fatalf("CSV quoting lost: %q", data)
	}
}
