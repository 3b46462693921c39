package plan

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"repro/internal/access"
	"repro/internal/chase"
	"repro/internal/corpus"
	"repro/internal/fixture"
	"repro/internal/query"
	"repro/internal/relation"
)

// fetchAll runs ξF of p at budget through fetcher on a scratch of its own
// and returns the fetched blocks, their stats and the plan's layout.
func fetchAll(t *testing.T, p *Bounded, db *relation.Database, budget int, fetcher RemoteFetcher) ([]*blockAtom, Stats, *planLayout) {
	t.Helper()
	lay, err := p.layoutFor()
	if err != nil {
		t.Fatal(err)
	}
	o := ExecOpts{Budget: budget, Fetcher: fetcher}
	sc := new(runScratch)
	atoms, stats, err := executeFetchBlocks(context.Background(), p, lay, o, sc)
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
	want, err := evaluateColumnar(ctx, full, lay, atoms, new(runScratch))
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
	res := mustChase(t, q, as, db, budget)
	lay, err := NewBounded(res, budget).layoutFor()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := buildEvalLayout(res, lay.finalSchema, colsOf(res, lay.finalSchema)); err != nil {
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
		_, err = buildEvalLayout(res, schemas, colsOf(res, schemas))
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
	fids := map[string]int{}
	friend := db.MustRelation("friend")
	fi := friend.Schema.MustIndex("fid")
	dups := 0
	for _, tp := range friend.Tuples {
		key := relation.Tuple{tp[fi]}.Key()
		fids[key]++
		if fids[key] == 2 {
			dups++
		}
	}
	if dups == 0 {
		t.Fatal("fixture produced no duplicate build keys; test is vacuous")
	}
}

// colsOf places every base attribute of res's atoms in the given
// schemas by name: the column table buildEvalLayout reads, -1 where a
// schema lacks the attribute.
func colsOf(res *chase.Result, schemas []*relation.Schema) [][]int {
	out := make([][]int, len(schemas))
	for ai, b := range res.Leaf.Bases {
		for _, a := range b.Attrs {
			ci, ok := schemas[ai].Index(a.Name)
			if !ok {
				ci = -1
			}
			out[ai] = append(out[ai], ci)
		}
	}
	return out
}

// layoutCase is one SPC leaf of a corpus query, chased at its share of the
// case's budget, over the database the corpus runs on.
type layoutCase struct {
	name string
	db   *relation.Database
	res  *chase.Result
}

// corpusLayoutCases chases every SPC leaf of the 200-case corpus (over the
// differential suite's fixture) and of the edge-shape corpus, each leaf at
// its even share of the case's budget as the planner does.
func corpusLayoutCases(t *testing.T) []layoutCase {
	t.Helper()
	var out []layoutCase
	add := func(set string, db *relation.Database, cases []corpus.Case) {
		as, err := fixture.SchemaA0(db)
		if err != nil {
			t.Fatal(err)
		}
		for ci, c := range cases {
			leaves := query.SPCLeaves(c.Query)
			budget := int(c.Alpha*float64(db.Size())) / len(leaves)
			for li, leaf := range leaves {
				res, err := chase.Chase(leaf, as, db, budget)
				if err != nil {
					continue // the planner rejects this leaf before any layout
				}
				out = append(out, layoutCase{name: fmt.Sprintf("%s case %d leaf %d", set, ci, li), db: db, res: res})
			}
		}
	}
	add("corpus", fixture.Example1(7, 120, 80), corpus.Default())
	add("edge", corpus.EdgeDB(), corpus.EdgeCases())
	return out
}

// evalReads returns, per atom, the columns the evaluation reads: constant
// predicates, both sides of joins, and outputs.
func evalReads(t *testing.T, q *query.SPC, db *relation.Database) []map[string]bool {
	t.Helper()
	reads := make([]map[string]bool, len(q.Atoms))
	for ai := range reads {
		reads[ai] = map[string]bool{}
	}
	mark := func(c query.Col) {
		for ai, a := range q.Atoms {
			if a.Name() == c.Rel {
				reads[ai][c.Attr] = true
			}
		}
	}
	for _, pd := range q.Preds {
		mark(pd.Left)
		if pd.Join {
			mark(pd.Right)
		}
	}
	outs, err := query.OutputCols(q, db)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range outs {
		mark(c)
	}
	return reads
}

// checkStepSchemas replays lay's steps over res and checks that every step
// schema carries exactly the columns something reads: the evaluation, or
// a step as its external X source or as its own X. Routes are checked
// against a replay of untrimmed schemas (every X and Y attribute a step
// fetched): an X attribute the untrimmed schema holds is read from the
// row itself (xOwn). It returns how many fetched columns the final schemas
// leave out.
func checkStepSchemas(t *testing.T, name string, db *relation.Database, res *chase.Result, lay *planLayout) int {
	t.Helper()
	q := res.Leaf.Q
	reads := evalReads(t, q, db)
	fetched := make([]map[string]bool, len(q.Atoms)) // untrimmed schemas
	stepReads := make([]map[string]bool, len(q.Atoms))
	for ai := range fetched {
		fetched[ai], stepReads[ai] = map[string]bool{}, map[string]bool{}
	}
	for si := range res.Steps {
		s := &res.Steps[si]
		for xi, attr := range s.Ladder.X {
			if src := s.X[xi]; fetched[s.AtomIdx][attr] {
				stepReads[s.AtomIdx][attr] = true
			} else if !src.IsConst {
				stepReads[src.AtomIdx][res.Leaf.Bases[src.AtomIdx].Attrs[src.Attr].Name] = true
			}
		}
		for _, a := range append(append([]string(nil), s.Ladder.X...), s.Ladder.Y...) {
			fetched[s.AtomIdx][a] = true
		}
	}
	for ai := range fetched {
		clear(fetched[ai])
	}

	cur := make([]*relation.Schema, len(q.Atoms))
	for si := range res.Steps {
		s, sl := &res.Steps[si], &lay.steps[si]
		ai := s.AtomIdx
		for xi, attr := range s.Ladder.X {
			src := s.X[xi]
			switch {
			case fetched[ai][attr]:
				if sl.route[xi] != xOwn || cur[ai].Attrs[sl.ownCol[xi]].Name != attr {
					t.Fatalf("%s step %d: X %s was fetched on its atom, but its route is %d", name, si, attr, sl.route[xi])
				}
			case src.IsConst:
				if sl.route[xi] != xConst {
					t.Fatalf("%s step %d: constant X %s has route %d", name, si, attr, sl.route[xi])
				}
			default:
				if sl.route[xi] != xExt {
					t.Fatalf("%s step %d: external X %s has route %d", name, si, attr, sl.route[xi])
				}
			}
		}
		for gi, srcAtom := range sl.extSrcAtom {
			for i, xi := range sl.extGroups[gi] {
				want := res.Leaf.Bases[srcAtom].Attrs[s.X[xi].Attr].Name
				if got := cur[srcAtom].Attrs[sl.extSrcCols[gi][i]].Name; got != want {
					t.Fatalf("%s step %d: external X %s reads column %s", name, si, want, got)
				}
			}
		}
		for _, a := range append(append([]string(nil), s.Ladder.X...), s.Ladder.Y...) {
			fetched[ai][a] = true
		}
		has := map[string]bool{}
		for _, a := range sl.schema.Attrs {
			has[a.Name] = true
			if !reads[ai][a.Name] && !stepReads[ai][a.Name] {
				t.Fatalf("%s step %d: atom %d carries %s, which nothing reads", name, si, ai, a.Name)
			}
		}
		for a := range fetched[ai] {
			if (reads[ai][a] || stepReads[ai][a]) && !has[a] {
				t.Fatalf("%s step %d: atom %d lacks %s, which is fetched and read", name, si, ai, a)
			}
		}
		cur[ai] = sl.schema
	}
	trimmed := 0
	for ai, s := range lay.finalSchema {
		trimmed += len(fetched[ai]) - s.Arity()
	}
	return trimmed
}

// Every step schema carries only the columns a predicate, a join, an
// output or a step's X reads, and never lacks one of them, over the
// randomized and edge-shape corpora — and in a plan whose only reader of
// two columns is a later step's own X.
func TestStepSchemasCarryOnlyReadColumns(t *testing.T) {
	t.Run("corpora", func(t *testing.T) {
		cases := corpusLayoutCases(t)
		trimmed := 0
		for _, c := range cases {
			lay, err := NewBounded(c.res, 0).layoutFor()
			if err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
			trimmed += checkStepSchemas(t, c.name, c.db, c.res, lay)
		}
		if trimmed == 0 {
			t.Fatal("no plan of the corpora fetches a column nothing reads; the check is vacuous")
		}
		t.Logf("%d leaves; their final schemas leave out %d fetched columns", len(cases), trimmed)
	})
	t.Run("own X of an earlier Y", testOwnXOfEarlierY)
}

// testOwnXOfEarlierY: a step whose own X is an earlier step's Y that
// nothing else reads keeps that column, and reads the X from the row itself
// (xOwn). poi is sampled through the generic template, then refined per
// (type, city) by the ϕ3 ladder, while the query reads only price and
// address. Trimming type and city would leave the refinement without its X.
func testOwnXOfEarlierY(t *testing.T) {
	db, as := setup(t)
	tmpl := as.Find("poi", nil, db.MustRelation("poi").Schema.AttrNames())
	refine := as.Find("poi", []string{"type", "city"}, []string{"price", "address"})
	if tmpl == nil || refine == nil {
		t.Fatal("fixture schema lacks the poi template or the ϕ3 ladder")
	}
	q := &query.SPC{
		Atoms:  []query.Atom{{Rel: "poi", Alias: "h"}},
		Preds:  []query.Pred{query.LeC(query.C("h", "price"), relation.Float(200))},
		Output: []query.Col{query.C("h", "address")},
	}
	// Chased for its column tables, then given the hand-built steps.
	res := mustChase(t, q, as, db, db.Size())
	res.Steps = []chase.Step{
		{AtomIdx: 0, Ladder: tmpl},
		{AtomIdx: 0, Ladder: refine, K: refine.MaxK(), X: []chase.Source{
			{AtomIdx: 0, Attr: attrIdx(res.Leaf, 0, "type")}, {AtomIdx: 0, Attr: attrIdx(res.Leaf, 0, "city")},
		}},
	}
	lay, err := NewBounded(res, 0).layoutFor()
	if err != nil {
		t.Fatal(err)
	}
	checkStepSchemas(t, "refinement", db, res, lay)
	first := lay.steps[0].schema
	for xi, attr := range refine.X {
		sl := &lay.steps[1]
		if sl.route[xi] != xOwn || first.Attrs[sl.ownCol[xi]].Name != attr {
			t.Fatalf("refinement X %s: route %d, want own column %s", attr, sl.route[xi], attr)
		}
	}
	var names []string
	for _, a := range lay.finalSchema[0].Attrs {
		names = append(names, a.Name)
	}
	if got, want := strings.Join(names, ","), "address,type,city,price"; got != want {
		t.Fatalf("final schema of h = %s, want %s", got, want)
	}
}
