// Command beas answers a SQL query on one of the built-in datasets with a
// resource ratio α, printing the approximate answers, the deterministic
// accuracy bound η, and what the plan actually accessed.
//
// Usage:
//
//	beas -dataset tpch -scale 2 -alpha 0.01 \
//	     -sql "select o.status, count(o.ok) from orders as o group by o.status"
//
// Pass -exact to also compute the exact answers and the realised RC
// accuracy (this scans the full data, defeating the point — use it to
// inspect quality, not for the resource-bounded path).
//
// Pass -explain-eta to print the full bound-derivation trace: every rule
// that contributed to the reported η, with the fetch resolutions it
// consumed — the way to see *why* a bound is what it is.
//
// Pass -explain-trace to print the execution span tree: planning (cache
// hit or generation), each leaf with its fetch steps (the distinct
// X-values each looked up and the samples they returned), combine and η′
// refinement, each with wall time and access counts — the way to see
// *where* a query's time and budget went.
//
// Pass -timeout to bound the wall time of the query: the deadline travels
// into the executor as a context deadline, so an over-long execution is
// abandoned mid-flight (Ctrl-C cancels the same way).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"time"

	beas "repro"
	"repro/internal/workload"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// config is one invocation's query and output options.
type config struct {
	seed                         int64
	alpha                        float64
	sql                          string
	rows                         int
	timeout                      time.Duration
	exact, explain, explainTrace bool
}

// run answers one query and returns the exit code: 0 on success, 1 when
// the query failed, 2 on a usage error.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("beas", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var c config
	dataset := fs.String("dataset", "tpch", "dataset: tpch | airca | tfacc")
	scale := fs.Int("scale", 1, "dataset scale factor")
	fs.Int64Var(&c.seed, "seed", 2017, "generator seed")
	fs.Float64Var(&c.alpha, "alpha", 0.01, "resource ratio in (0, 1]")
	fs.StringVar(&c.sql, "sql", "", "SQL query (required)")
	fs.BoolVar(&c.exact, "exact", false, "also compute exact answers and realised accuracy")
	fs.IntVar(&c.rows, "rows", 20, "max answer rows to print")
	fs.DurationVar(&c.timeout, "timeout", 0, "abandon the query after this long (0 = no limit)")
	fs.BoolVar(&c.explain, "explain-eta", false, "print the bound-derivation trace behind the reported eta")
	fs.BoolVar(&c.explainTrace, "explain-trace", false, "print the execution span tree (planning, leaves, fetch steps with their X-values and samples) with timings")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if c.sql == "" {
		fmt.Fprintln(stderr, "beas: -sql is required")
		fs.Usage()
		return 2
	}
	d, err := workload.ByName(*dataset, *scale)
	if err != nil {
		fmt.Fprintln(stderr, "beas:", err)
		return 2
	}
	if err := answer(stdout, d, c); err != nil {
		fmt.Fprintln(stderr, "beas:", err)
		return 1
	}
	return 0
}

// answer populates the dataset, answers the query on it and prints the
// answers, η and what the plan accessed.
func answer(w io.Writer, d *workload.Dataset, c config) error {
	if err := d.Populate(c.seed); err != nil {
		return err
	}
	fmt.Fprintf(w, "dataset %s: |D| = %d tuples across %d relations\n", d.Name, d.DB.Size(), len(d.DB.Names()))

	as, err := d.AccessSchema()
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "access schema: %d ladders (%d templates), index %d tuples (%.2f x |D|)\n",
		as.Size(), as.NumTemplates(), as.IndexSize(), float64(as.IndexSize())/float64(d.DB.Size()))

	sys := beas.Open(d.DB, as)
	q, err := beas.ParseSQL(c.sql)
	if err != nil {
		return err
	}

	// Interrupt cancels the in-flight execution cooperatively; -timeout
	// additionally bounds it with a context deadline.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if c.timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, c.timeout)
		defer cancel()
	}

	opts := []beas.Option{beas.WithAlpha(c.alpha)}
	if c.explain {
		opts = append(opts, beas.WithExplainEta())
	}
	var tr *beas.Trace
	if c.explainTrace {
		tr = beas.NewTrace()
		opts = append(opts, beas.WithTrace(tr))
	}
	ans, plan, err := sys.Query(ctx, q, opts...)
	if err != nil {
		return err
	}

	fmt.Fprintf(w, "\nplan: class=%s budget=%d tuples (alpha=%g), generated in %v\n",
		plan.Class, plan.Budget, c.alpha, plan.GenTime)
	if ans.Exact {
		fmt.Fprintln(w, "answers are EXACT (boundedly evaluable within budget)")
	} else {
		fmt.Fprintf(w, "accuracy lower bound eta = %.4f\n", ans.Eta)
	}
	fmt.Fprintf(w, "accessed %d tuples (truncated=%v)\n\n", ans.Stats.Accessed, ans.Stats.Truncated)

	if c.explain {
		fmt.Fprintf(w, "bound trace:\n%v\n", ans.Trace)
	}
	if c.explainTrace {
		fmt.Fprintf(w, "execution trace:\n%v\n", tr)
	}

	for i, t := range ans.Rel.Tuples {
		if i >= c.rows {
			fmt.Fprintf(w, "... (%d more rows)\n", ans.Rel.Len()-i)
			break
		}
		fmt.Fprintln(w, "  ", t)
	}
	if ans.Rel.Len() == 0 {
		fmt.Fprintln(w, "   (no answers)")
	}

	if c.exact {
		ex, err := beas.Exact(d.DB, q)
		if err != nil {
			return err
		}
		rep, err := beas.Accuracy(d.DB, q, ans.Rel)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "\nexact answers: %d rows; realised RC accuracy = %.4f (Frel %.4f, Fcov %.4f)\n",
			ex.Len(), rep.Accuracy, rep.Frel, rep.Fcov)
	}
	return nil
}
