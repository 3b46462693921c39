package plan

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"repro/internal/access"
	"repro/internal/fixture"
	"repro/internal/query"
	"repro/internal/relation"
)

// fetchAll runs ξF of p at budget with one worker through fetcher and
// returns the fetched blocks, their stats and the plan's layout.
func fetchAll(t *testing.T, p *Bounded, db *relation.Database, budget int, fetcher RemoteFetcher) ([]*blockAtom, *Stats, *planLayout) {
	t.Helper()
	lay, err := p.layoutFor(db)
	if err != nil {
		t.Fatal(err)
	}
	o := ExecOpts{Budget: budget, Fetcher: fetcher}
	atoms, stats, err := executeFetchBlocks(context.Background(), p, lay, o)
	if err != nil {
		t.Fatal(err)
	}
	return atoms, stats, lay
}

// sameResult reports the first difference between two evaluations: row
// values, row order and weights must all agree.
func sameResult(t *testing.T, what string, got, want *Result) {
	t.Helper()
	if len(got.Rel.Tuples) != len(want.Rel.Tuples) {
		t.Fatalf("%s: %d rows vs %d", what, len(got.Rel.Tuples), len(want.Rel.Tuples))
	}
	for i := range got.Rel.Tuples {
		if !got.Rel.Tuples[i].EqualTuple(want.Rel.Tuples[i]) {
			t.Fatalf("%s row %d: %v vs %v", what, i, got.Rel.Tuples[i], want.Rel.Tuples[i])
		}
		if got.Weights[i] != want.Weights[i] {
			t.Fatalf("%s row %d: weight %d vs %d", what, i, got.Weights[i], want.Weights[i])
		}
	}
}

// countingFetcher resolves batches in process and records, per call, how
// many rows its full levels hold.
type countingFetcher struct{ rows []int }

func (f *countingFetcher) FetchBatchBlocks(ctx context.Context, l *access.Ladder, xs []relation.Tuple, k int) ([]*access.LevelBlock, error) {
	lvls, err := localFetcher{}.FetchBatchBlocks(ctx, l, xs, k)
	n := 0
	for _, lvl := range lvls {
		if lvl != nil {
			n += lvl.Rows()
		}
	}
	f.rows = append(f.rows, n)
	return lvls, err
}

// At a budget of |D| every plan is exact, so the columnar evaluator's
// answer set must be the exact model's (query.EvaluateSet) on a
// selection-and-join mix. The frozen golden digests pin approximate
// answers.
func TestColumnarMatchesExact(t *testing.T) {
	db, as := setup(t)
	queries := []*query.SPC{
		fixture.Q1(3, 95),
		fixture.Q1(1, 250),
		fixture.Q2(5),
		{ // join with duplicate build keys: many friend rows share fid
			Atoms: []query.Atom{{Rel: "person", Alias: "p"}, {Rel: "friend", Alias: "f"}},
			Preds: []query.Pred{
				query.EqJ(query.C("p", "pid"), query.C("f", "fid")),
			},
			Output: []query.Col{query.C("p", "city"), query.C("f", "pid")},
		},
	}
	budget := db.Size()
	for qi, q := range queries {
		out, err := execute(NewBounded(mustChase(t, q, as, db, budget), budget), db)
		if err != nil {
			t.Fatalf("q%d: %v", qi, err)
		}
		if out.Stats.Truncated {
			t.Fatalf("q%d: full-budget run truncated", qi)
		}
		exact, err := query.EvaluateSet(db, q)
		if err != nil {
			t.Fatal(err)
		}
		got, want := asSet(out.Rel), asSet(exact)
		if len(want) == 0 {
			t.Fatalf("q%d: exact answer is empty; the comparison is vacuous", qi)
		}
		for k := range want {
			if !got[k] {
				t.Fatalf("q%d: missing exact answer %q", qi, k)
			}
		}
		if len(got) != len(want) {
			t.Fatalf("q%d: %d distinct answers, exact has %d", qi, len(got), len(want))
		}
	}
}

// Every run ends with each atom on its precompiled final schema (pointer
// identity), so the one evaluator serves it. A full-budget run fetches
// every step. A run that truncates with steps remaining never calls the
// fetcher after the truncating step, spends exactly its budget and — an
// atom being left empty — answers nothing.
func TestRunsCompleteTheirSchemas(t *testing.T) {
	db, as := setup(t)
	ctx := context.Background()
	q := fixture.Q1(3, 95)
	res := mustChase(t, q, as, db, db.Size())
	onFinalSchemas := func(what string, atoms []*blockAtom, lay *planLayout) {
		t.Helper()
		for ai, ba := range atoms {
			if ba == nil || ba.schema != lay.finalSchema[ai] {
				t.Fatalf("%s: atom %d does not carry its final schema", what, ai)
			}
		}
	}

	full := NewBounded(res, db.Size())
	cf := &countingFetcher{}
	atoms, stats, lay := fetchAll(t, full, db, db.Size(), cf)
	if stats.Truncated {
		t.Fatal("full-budget fetch should not truncate")
	}
	if len(cf.rows) != len(res.Steps) {
		t.Fatalf("full-budget fetch made %d fetcher calls for %d steps", len(cf.rows), len(res.Steps))
	}
	onFinalSchemas("full budget", atoms, lay)
	want, err := evaluateColumnar(ctx, full, lay, atoms)
	if err != nil {
		t.Fatal(err)
	}
	got, err := execute(full, db)
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, "full budget", got, want)

	// The largest budget that truncates Q1 with steps still remaining.
	for budget := db.Size() - 1; budget > 0; budget-- {
		p := NewBounded(res, budget)
		cf := &countingFetcher{}
		atoms, stats, lay := fetchAll(t, p, db, budget, cf)
		// The fetch truncates in the first step whose levels take the
		// running total past the budget.
		trunc, seen := -1, 0
		for i, n := range cf.rows {
			if seen += n; seen > budget {
				trunc = i
				break
			}
		}
		if stats.Truncated != (trunc >= 0) {
			t.Fatalf("budget %d: truncated %v, but the fetched levels hold %d rows", budget, stats.Truncated, seen)
		}
		if trunc < 0 || trunc == len(res.Steps)-1 {
			continue
		}
		if len(cf.rows) != trunc+1 {
			t.Fatalf("budget %d: step %d truncated, but the fetcher was called %d times", budget, trunc+1, len(cf.rows))
		}
		onFinalSchemas(fmt.Sprintf("truncated at budget %d", budget), atoms, lay)

		cf = &countingFetcher{}
		out, err := ExecuteOpts(ctx, p, db, ExecOpts{Budget: budget, Fetcher: cf})
		if err != nil {
			t.Fatal(err)
		}
		if len(out.Rel.Tuples) != 0 || !out.Stats.Truncated || out.Stats.Accessed != budget {
			t.Fatalf("budget %d: %d rows, truncated %v, accessed %d; want 0 rows, truncated, accessed %d",
				budget, len(out.Rel.Tuples), out.Stats.Truncated, out.Stats.Accessed, budget)
		}
		t.Logf("budget %d truncates in step %d of %d", budget, trunc+1, len(res.Steps))
		return
	}
	t.Fatal("no budget truncates Q1 with steps remaining; truncation is untested")
}

// A column the query needs that the final schemas lack is a build-time
// error naming the column: a predicate column and an output column.
func TestEvalLayoutNamesMissingColumn(t *testing.T) {
	db, as := setup(t)
	q := fixture.Q1(3, 95) // atom 0 is h: h.type is a predicate column, h.address output only
	budget := db.Size()
	lay, err := NewBounded(mustChase(t, q, as, db, budget), budget).layoutFor(db)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := buildEvalLayout(q, db, lay.finalSchema); err != nil {
		t.Fatalf("complete schemas: %v", err)
	}
	for _, attr := range []string{"type", "address"} {
		h := lay.finalSchema[0]
		var kept []relation.Attribute
		for _, a := range h.Attrs {
			if a.Name != attr {
				kept = append(kept, a)
			}
		}
		if len(kept) == len(h.Attrs) {
			t.Fatalf("final schema of h has no %s column", attr)
		}
		without, err := relation.NewSchema(h.Name, kept...)
		if err != nil {
			t.Fatal(err)
		}
		schemas := append([]*relation.Schema{without}, lay.finalSchema[1:]...)
		_, err = buildEvalLayout(q, db, schemas)
		if err == nil || !strings.Contains(err.Error(), "h."+attr) {
			t.Fatalf("schema without h.%s: error %v, want one naming h.%s", attr, err, attr)
		}
	}
}

// Targeted regression for the hash-join build loop: with duplicate join
// keys on the build side, the join must still produce exactly the exact
// evaluator's answers (the original loop computed the projected key twice
// per row; the rewrite projects once and buckets by hash).
func TestHashJoinDuplicateBuildKeys(t *testing.T) {
	db, as := setup(t)
	q := &query.SPC{
		Atoms: []query.Atom{{Rel: "person", Alias: "p"}, {Rel: "friend", Alias: "f"}},
		Preds: []query.Pred{
			query.EqJ(query.C("p", "pid"), query.C("f", "fid")),
		},
		Output: []query.Col{query.C("p", "city"), query.C("f", "pid")},
	}
	budget := db.Size()
	res := mustChase(t, q, as, db, budget)
	out, err := execute(NewBounded(res, budget), db)
	if err != nil {
		t.Fatal(err)
	}
	exact, err := query.EvaluateSet(db, q)
	if err != nil {
		t.Fatal(err)
	}
	got, want := asSet(out.Rel), asSet(exact)
	for k := range want {
		if !got[k] {
			t.Fatalf("missing joined tuple %q", k)
		}
	}
	if len(got) != len(want) {
		t.Fatalf("join produced %d distinct tuples, exact has %d", len(got), len(want))
	}
	// Sanity: duplicate fids exist, so the build side really had bucket
	// chains longer than one.
	fids := relation.NewTupleMap[int](0)
	friend := db.MustRelation("friend")
	fi := friend.Schema.MustIndex("fid")
	dups := 0
	for _, tp := range friend.Tuples {
		c := fids.GetOrInsert(relation.Tuple{tp[fi]})
		*c++
		if *c == 2 {
			dups++
		}
	}
	if dups == 0 {
		t.Fatal("fixture produced no duplicate build keys; test is vacuous")
	}
}
