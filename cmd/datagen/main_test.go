package main

import (
	"bytes"
	"encoding/csv"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestWritesCSVs writes the smallest TFACC instance into a fresh directory:
// one CSV per relation, each with a header and the rows it reports.
func TestWritesCSVs(t *testing.T) {
	dir := t.TempDir()
	var out, errb bytes.Buffer
	if code := run([]string{"-dataset", "TFACC", "-scale", "1", "-out", dir}, &out, &errb); code != 0 {
		t.Fatalf("exit %d: %s", code, errb.String())
	}
	files, err := filepath.Glob(filepath.Join(dir, "tfacc_*.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) < 2 {
		t.Fatalf("wrote %d CSV files: %v\n%s", len(files), files, out.String())
	}
	for _, path := range files {
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		recs, err := csv.NewReader(f).ReadAll()
		f.Close()
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		if len(recs) < 2 {
			t.Errorf("%s holds %d records", path, len(recs))
		}
		if want := "wrote " + path + " ("; !strings.Contains(out.String(), want) {
			t.Errorf("output lacks %q:\n%s", want, out.String())
		}
	}
	if !strings.Contains(out.String(), "total |D| = ") {
		t.Errorf("output lacks the total:\n%s", out.String())
	}
}

// TestUnknownDataset exits 2 and writes nothing.
func TestUnknownDataset(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "out")
	var out, errb bytes.Buffer
	if code := run([]string{"-dataset", "nope", "-out", dir}, &out, &errb); code != 2 {
		t.Fatalf("exit %d, want 2", code)
	}
	if !strings.Contains(errb.String(), `unknown dataset "nope"`) {
		t.Errorf("stderr %q does not name the dataset", errb.String())
	}
	if _, err := os.Stat(dir); !os.IsNotExist(err) {
		t.Errorf("output directory created: %v", err)
	}
}
