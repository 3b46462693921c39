// Command datagen emits one of the synthetic datasets as CSV files (one per
// relation) so the data can be inspected or loaded elsewhere.
//
// Usage:
//
//	datagen -dataset tfacc -scale 2 -out ./data
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/relation"
	"repro/internal/workload"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run writes the dataset and returns the exit code: 0 on success, 1 when
// generating or writing failed, 2 on a usage error.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("datagen", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		dataset = fs.String("dataset", "tpch", "dataset: tpch | airca | tfacc")
		scale   = fs.Int("scale", 1, "dataset scale factor")
		seed    = fs.Int64("seed", 2017, "generator seed")
		out     = fs.String("out", ".", "output directory")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	d, err := workload.ByName(*dataset, *scale)
	if err != nil {
		fmt.Fprintln(stderr, "datagen:", err)
		return 2
	}
	if err := write(stdout, d, *seed, *out); err != nil {
		fmt.Fprintln(stderr, "datagen:", err)
		return 1
	}
	return 0
}

// write populates the dataset and writes one CSV file per relation into
// dir, named <dataset>_<relation>.csv.
func write(w io.Writer, d *workload.Dataset, seed int64, dir string) error {
	if err := d.Populate(seed); err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for _, name := range d.DB.Names() {
		r := d.DB.MustRelation(name)
		path := filepath.Join(dir, fmt.Sprintf("%s_%s.csv", strings.ToLower(d.Name), name))
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		if err := relation.WriteCSV(f, r); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(w, "wrote %s (%d rows)\n", path, r.Len())
	}
	fmt.Fprintf(w, "total |D| = %d tuples\n", d.DB.Size())
	return nil
}
