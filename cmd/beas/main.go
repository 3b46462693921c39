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
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"

	beas "repro"
	"repro/internal/workload"
)

func main() {
	var (
		dataset      = flag.String("dataset", "tpch", "dataset: tpch | airca | tfacc")
		scale        = flag.Int("scale", 1, "dataset scale factor")
		seed         = flag.Int64("seed", 2017, "generator seed")
		alpha        = flag.Float64("alpha", 0.01, "resource ratio in (0, 1]")
		sql          = flag.String("sql", "", "SQL query (required)")
		exact        = flag.Bool("exact", false, "also compute exact answers and realised accuracy")
		maxRows      = flag.Int("rows", 20, "max answer rows to print")
		timeout      = flag.Duration("timeout", 0, "abandon the query after this long (0 = no limit)")
		explain      = flag.Bool("explain-eta", false, "print the bound-derivation trace behind the reported eta")
		explainTrace = flag.Bool("explain-trace", false, "print the execution span tree (planning, leaves, fetch steps with their X-values and samples) with timings")
	)
	flag.Parse()
	if *sql == "" {
		fmt.Fprintln(os.Stderr, "beas: -sql is required")
		flag.Usage()
		os.Exit(2)
	}

	var d *workload.Dataset
	switch strings.ToLower(*dataset) {
	case "tpch":
		d = workload.TPCH(*scale, *seed)
	case "airca":
		d = workload.AIRCA(*scale, *seed)
	case "tfacc":
		d = workload.TFACC(*scale, *seed)
	default:
		fmt.Fprintf(os.Stderr, "beas: unknown dataset %q\n", *dataset)
		os.Exit(2)
	}
	fmt.Printf("dataset %s: |D| = %d tuples across %d relations\n", d.Name, d.DB.Size(), len(d.DB.Names()))

	as, err := d.AccessSchema()
	fatal(err)
	fmt.Printf("access schema: %d ladders (%d templates), index %d tuples (%.2f x |D|)\n",
		as.Size(), as.NumTemplates(), as.IndexSize(), float64(as.IndexSize())/float64(d.DB.Size()))

	sys := beas.Open(d.DB, as)
	q, err := beas.ParseSQL(*sql)
	fatal(err)

	// Interrupt cancels the in-flight execution cooperatively; -timeout
	// additionally bounds it with a context deadline.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	opts := []beas.Option{beas.WithAlpha(*alpha)}
	if *explain {
		opts = append(opts, beas.WithExplainEta())
	}
	var tr *beas.Trace
	if *explainTrace {
		tr = beas.NewTrace()
		opts = append(opts, beas.WithTrace(tr))
	}
	ans, plan, err := sys.Query(ctx, q, opts...)
	fatal(err)

	fmt.Printf("\nplan: class=%s budget=%d tuples (alpha=%g), generated in %v\n",
		plan.Class, plan.Budget, *alpha, plan.GenTime)
	if ans.Exact {
		fmt.Println("answers are EXACT (boundedly evaluable within budget)")
	} else {
		fmt.Printf("accuracy lower bound eta = %.4f\n", ans.Eta)
	}
	fmt.Printf("accessed %d tuples (truncated=%v)\n\n", ans.Stats.Accessed, ans.Stats.Truncated)

	if *explain {
		fmt.Println("bound trace:")
		fmt.Print(ans.Trace)
		fmt.Println()
	}

	if *explainTrace && tr != nil {
		fmt.Println("execution trace:")
		fmt.Print(tr.String())
		fmt.Println()
	}

	printed := 0
	for _, t := range ans.Rel.Tuples {
		if printed >= *maxRows {
			fmt.Printf("... (%d more rows)\n", ans.Rel.Len()-printed)
			break
		}
		fmt.Println("  ", t)
		printed++
	}
	if ans.Rel.Len() == 0 {
		fmt.Println("   (no answers)")
	}

	if *exact {
		ex, err := beas.Exact(d.DB, q)
		fatal(err)
		rep, err := beas.Accuracy(d.DB, q, ans.Rel)
		fatal(err)
		fmt.Printf("\nexact answers: %d rows; realised RC accuracy = %.4f (Frel %.4f, Fcov %.4f)\n",
			ex.Len(), rep.Accuracy, rep.Frel, rep.Fcov)
	}
}

func fatal(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "beas:", err)
		os.Exit(1)
	}
}
