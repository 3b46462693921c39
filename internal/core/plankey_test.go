package core

import (
	"context"
	"strconv"
	"testing"

	"repro/internal/corpus"
	"repro/internal/fixture"
	"repro/internal/query"
	"repro/internal/relation"
	"repro/internal/workload"
)

// referencePlanKey is the plan-cache key as a string: α|budget|Render(e),
// with |ds=… for a group-by's DistScale.
func referencePlanKey(e query.Expr, alpha float64, budget int) string {
	key := strconv.FormatFloat(alpha, 'g', -1, 64) + "|" + strconv.Itoa(budget) + "|" + query.Render(e)
	if g, ok := e.(*query.GroupBy); ok && g.DistScale > 0 {
		key += "|ds=" + strconv.FormatFloat(g.DistScale, 'g', -1, 64)
	}
	return key
}

// planKeyQueries returns the randomized and edge-shape corpora, a group-by
// with a DistScale, and a generated TPCH workload: the queries whose keys
// the plan-key tests check.
func planKeyQueries(t *testing.T) []query.Expr {
	t.Helper()
	var qs []query.Expr
	for _, c := range corpus.Default() {
		qs = append(qs, c.Query)
	}
	for _, c := range corpus.EdgeCases() {
		qs = append(qs, c.Query)
	}
	spc := &query.SPC{
		Atoms:  []query.Atom{{Rel: "poi", Alias: "h"}},
		Preds:  []query.Pred{query.EqC(query.C("h", "city"), relation.String("NYC"))},
		Output: []query.Col{query.C("h", "city"), query.C("h", "price")},
	}
	qs = append(qs, &query.GroupBy{In: spc, Keys: []query.Col{query.C("h", "city")},
		Agg: query.AggMin, On: query.C("h", "price"), DistScale: 2.5})
	w, err := workload.TPCH(1, 3).Workload(200, 5)
	if err != nil {
		t.Fatal(err)
	}
	return append(qs, w...)
}

// The key built into a caller's buffer is byte for byte the string key
// (α|budget|Render(e)[|ds=…]), so the queries that share a plan are
// exactly those that shared one before.
func TestPlanKeyMatchesReference(t *testing.T) {
	longest := 0
	for qi, e := range planKeyQueries(t) {
		for _, alpha := range []float64{0.002, 0.05, 1} {
			budget := int(alpha * 21000)
			want := referencePlanKey(e, alpha, budget)
			if got := appendPlanKey(nil, e, alpha, budget); string(got) != want {
				t.Fatalf("query %d: key\n%q\nwant\n%q", qi, got, want)
			}
			prefix := []byte("prefix")
			if got := appendPlanKey(prefix, e, alpha, budget); string(got) != "prefix"+want {
				t.Fatalf("query %d: key appended after a prefix\n%q\nwant\n%q", qi, got, "prefix"+want)
			}
			longest = max(longest, len(want))
		}
	}
	t.Logf("longest key: %d bytes", longest)
}

// A warm plan-cache hit through planFor allocates only the returned plan
// copy (1 allocation per call): the key is built in a stack buffer and
// looked up by its bytes.
func TestPlanKeyHitAllocatesOnlyThePlanCopy(t *testing.T) {
	db := fixture.Example1(7, 120, 80)
	as, err := fixture.SchemaA0(db)
	if err != nil {
		t.Fatal(err)
	}
	s := New(db, as)
	ctx := context.Background()
	o := ExecOptions{Alpha: 0.1}
	hits := 0
	for ci, c := range corpus.Default() {
		if _, err := s.planFor(ctx, c.Query, o); err != nil {
			continue // the planner rejects the case; nothing is cached
		}
		p, err := s.planFor(ctx, c.Query, o)
		if err != nil || !p.CacheHit {
			t.Fatalf("case %d: second lookup is not a hit (err %v)", ci, err)
		}
		if n := testing.AllocsPerRun(20, func() { _, _ = s.planFor(ctx, c.Query, o) }); n != 1 {
			t.Fatalf("case %d: a warm hit allocates %v times, want 1 (the plan copy)\n%s", ci, n, query.Render(c.Query))
		}
		hits++
	}
	if hits == 0 {
		t.Fatal("no corpus case plans; the pin is vacuous")
	}
}
