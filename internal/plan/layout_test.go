package plan

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/fixture"
	"repro/internal/query"
	"repro/internal/relation"
)

// fetchAll runs ξF of p at budget with one in-process worker and returns
// the fetched blocks, their stats and the plan's layout.
func fetchAll(t *testing.T, p *Bounded, db *relation.Database, budget int) ([]*blockAtom, *Stats, *planLayout) {
	t.Helper()
	lay, err := p.layoutFor(db)
	if err != nil {
		t.Fatal(err)
	}
	o := ExecOpts{Budget: budget, Workers: 1, Fetcher: localFetcher{workers: 1}}
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

// On complete fetches the precompiled columnar evaluator must agree with
// evaluateDynamic over the materialised rows, row for row (values, order
// and weights): evaluateDynamic is the only evaluator truncated runs get,
// so it has to stay an exact stand-in.
func TestFastEvalMatchesDynamic(t *testing.T) {
	db, as := setup(t)
	ctx := context.Background()
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
	compared := 0
	for qi, q := range queries {
		for _, budget := range []int{40, 400, db.Size()} {
			p := NewBounded(mustChase(t, q, as, db, budget), budget)
			atoms, _, lay := fetchAll(t, p, db, budget)
			if lay.eval == nil || !blocksComplete(lay, atoms) {
				continue // a partial fetch has only the one evaluator
			}
			got, gotErr := evaluateColumnar(ctx, p, lay, atoms)
			want, wantErr := evaluateDynamic(ctx, p, db, materializeAtoms(p, lay, atoms))
			if (gotErr != nil) != (wantErr != nil) {
				t.Fatalf("q%d budget %d: err %v vs dynamic %v", qi, budget, gotErr, wantErr)
			}
			if gotErr != nil {
				continue
			}
			sameResult(t, fmt.Sprintf("q%d budget %d", qi, budget), got, want)
			compared++
		}
	}
	t.Logf("%d complete fetches compared", compared)
	if compared < len(queries) {
		t.Fatalf("only %d complete fetches compared; the test is nearly vacuous", compared)
	}
}

// A full-budget run must take the precompiled evaluator — guard against it
// silently decaying to the fallback — and a run truncated with an atom
// left unbuilt must take evaluateDynamic; ExecuteOpts must return exactly
// what the selected evaluator computes.
func TestFastPathSelected(t *testing.T) {
	db, as := setup(t)
	ctx := context.Background()
	q := fixture.Q1(3, 95)
	res := mustChase(t, q, as, db, db.Size())

	full := NewBounded(res, db.Size())
	atoms, stats, lay := fetchAll(t, full, db, db.Size())
	if stats.Truncated {
		t.Fatal("full-budget fetch should not truncate")
	}
	if lay.eval == nil {
		t.Fatal("eval layout not precompiled for Q1")
	}
	if !blocksComplete(lay, atoms) {
		t.Fatal("fetched atoms do not carry the precompiled schemas")
	}
	want, err := evaluateColumnar(ctx, full, lay, atoms)
	if err != nil {
		t.Fatal(err)
	}
	got, err := execute(full, db)
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, "full budget", got, want)

	// The largest budget that still truncates Q1 with an atom unbuilt.
	for budget := db.Size() - 1; budget > 0; budget-- {
		p := NewBounded(res, budget)
		atoms, stats, lay := fetchAll(t, p, db, budget)
		if !stats.Truncated || blocksComplete(lay, atoms) {
			continue
		}
		want, wantErr := evaluateDynamic(ctx, p, db, materializeAtoms(p, lay, atoms))
		got, gotErr := execute(p, db)
		if (gotErr != nil) != (wantErr != nil) {
			t.Fatalf("budget %d: err %v vs fallback %v", budget, gotErr, wantErr)
		}
		if gotErr == nil {
			sameResult(t, fmt.Sprintf("truncated at budget %d", budget), got, want)
			t.Logf("budget %d truncates with a partial atom: fallback gives %d rows", budget, len(want.Rel.Tuples))
		}
		return
	}
	t.Fatal("no budget truncates Q1 with a partial atom; the fallback is untested")
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
