// Analytics runs an exploratory-dashboard workload over the TPCH-like
// dataset: aggregate queries (count / sum / avg / max) answered under a
// small resource ratio, compared with the exact results. This is the
// paper's "small businesses analysing big data with limited resources"
// use case: every query touches at most α|D| tuples, unpredictably chosen
// queries included.
package main

import (
	"context"
	"fmt"
	"log"

	beas "repro"
	"repro/internal/workload"
)

func main() {
	d := workload.TPCH(4, 42)
	as, err := d.AccessSchema()
	if err != nil {
		log.Fatal(err)
	}
	sys := beas.Open(d.DB, as)
	fmt.Printf("TPCH-like dataset: |D| = %d tuples\n", d.DB.Size())

	const alpha = 0.02
	queries := []struct{ label, sql string }{
		{"orders per status",
			`select o.status, count(o.ok) as cnt from orders as o group by o.status`},
		{"avg order value per priority",
			`select o.priority, avg(o.totalprice) as avgv from orders as o group by o.priority`},
		{"max part price per brand",
			`select p.brand, max(p.pprice) as maxp from part as p group by p.brand`},
		{"revenue by customer segment (join)",
			`select c.segment, sum(o.totalprice) as rev
			 from orders as o, customer as c
			 where o.ck = c.ck group by c.segment`},
	}

	for _, q := range queries {
		expr, err := beas.ParseSQL(q.sql)
		if err != nil {
			log.Fatal(err)
		}
		ans, plan, err := sys.Query(context.Background(), expr,
			beas.WithAlpha(alpha), beas.WithTag("dashboard"))
		if err != nil {
			log.Fatal(err)
		}
		exact, err := beas.Exact(d.DB, expr)
		if err != nil {
			log.Fatal(err)
		}
		rep, err := beas.Accuracy(d.DB, expr, ans.Rel)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("\n== %s (alpha=%g, budget %d, accessed %d, eta=%.3f, RC=%.3f)\n",
			q.label, alpha, plan.Budget, ans.Stats.Accessed, ans.Eta, rep.Accuracy)
		fmt.Printf("%-28s %-22s %s\n", "group", "approx", "exact")
		exactByKey := map[string]string{}
		for _, t := range exact.Tuples {
			exactByKey[t[0].String()] = t[len(t)-1].String()
		}
		for _, t := range ans.Rel.Tuples {
			key := t[0].String()
			fmt.Printf("%-28s %-22s %s\n", key, t[len(t)-1].String(), exactByKey[key])
		}
	}

	// Tagged calls are broken out in the system's per-tag stats — the same
	// numbers beasd exposes per tenant as the beas_tag_* series of /stats
	// and /metrics.
	for tag, st := range sys.QueryStats() {
		fmt.Printf("\ntag %q: %d queries, %d tuples accessed, %v total\n",
			tag, st.Queries, st.Accessed, st.Total)
	}
}
