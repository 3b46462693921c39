package plan_test

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/fixture"
	"repro/internal/plan"
	"repro/internal/relation"
)

// isoLeaf is one leaf run of the isolation corpus: a leaf plan of a
// corpus query, the database it reads and the budget it runs on, with the
// text of its run on a freshly allocated scratch.
type isoLeaf struct {
	what string
	p    *plan.Bounded
	db   *relation.Database
	o    plan.ExecOpts
	want string
}

// isolationLeaves plans the 200-case randomized corpus and the edge-shape
// corpus, interleaved in a seeded shuffle, and runs every leaf once on a
// fresh scratch for reference.
func isolationLeaves(t *testing.T) []isoLeaf {
	t.Helper()
	db := fixture.Example1(7, 120, 80)
	as, err := fixture.SchemaA0(db)
	if err != nil {
		t.Fatal(err)
	}
	edb := corpus.EdgeDB()
	eas, err := fixture.SchemaA0(edb)
	if err != nil {
		t.Fatal(err)
	}
	s, es := core.New(db, as), core.New(edb, eas)
	ctx := context.Background()
	var leaves []isoLeaf
	add := func(what string, db *relation.Database, p *core.Plan) {
		for li, l := range p.Leaves {
			o := plan.ExecOpts{Budget: p.Budget}
			want := resultText(plan.ExecuteOn(ctx, l.Bounded, db, o, plan.NewScratch()))
			leaves = append(leaves, isoLeaf{what: fmt.Sprintf("%s leaf %d", what, li), p: l.Bounded, db: db, o: o, want: want})
		}
	}
	g := corpus.NewGenerator(42)
	alphas := []float64{0.01, 0.1, 0.6}
	for ci := 0; ci < 200; ci++ {
		p, err := s.PlanContext(ctx, g.Query(), core.ExecOptions{Alpha: alphas[ci%len(alphas)]})
		if err != nil {
			continue
		}
		add(fmt.Sprintf("corpus case %d", ci), db, p)
	}
	for ci, c := range corpus.EdgeCases() {
		p, err := es.PlanContext(ctx, c.Query, core.ExecOptions{Alpha: c.Alpha})
		if err != nil {
			continue
		}
		add(fmt.Sprintf("edge case %d", ci), edb, p)
	}
	rand.New(rand.NewSource(40)).Shuffle(len(leaves), func(i, j int) { leaves[i], leaves[j] = leaves[j], leaves[i] })
	return leaves
}

// resultText spells out everything a run returns — every value with its
// kind, every weight, the stats, or the error text — so two runs agree
// exactly when their texts do.
func resultText(r *plan.Result, err error) string {
	if err != nil {
		return "err=" + err.Error()
	}
	var b strings.Builder
	fmt.Fprintf(&b, "schema=%p stats=%+v rows=%d\n", r.Rel.Schema, r.Stats, r.Rel.Len())
	for i, t := range r.Rel.Tuples {
		for _, v := range t {
			fmt.Fprintf(&b, "%d:%s ", v.Kind(), relation.Tuple{v}.Key())
		}
		fmt.Fprintf(&b, "w=%d\n", r.Weights[i])
	}
	if len(r.Weights) != r.Rel.Len() {
		fmt.Fprintf(&b, "weights=%d\n", len(r.Weights))
	}
	return b.String()
}

// kept is a run's returned Result with its text when it returned, so a
// later check sees whether anything changed it since.
type kept struct {
	leaf *isoLeaf
	res  *plan.Result
	err  error
	text string
}

func keep(l *isoLeaf, res *plan.Result, err error) kept {
	return kept{leaf: l, res: res, err: err, text: resultText(res, err)}
}

// check fails when a kept run differed from its fresh-scratch reference
// when it returned, or has changed since.
func (k kept) check(t *testing.T, when string) {
	t.Helper()
	if k.text != k.leaf.want {
		t.Errorf("%s (%s): pooled run answered\n%s\nfresh scratch answered\n%s", k.leaf.what, when, k.text, k.leaf.want)
	}
	if now := resultText(k.res, k.err); now != k.text {
		t.Errorf("%s (%s): the answer changed after later runs:\n%s\nwas\n%s", k.leaf.what, when, now, k.text)
	}
}

// Pooled run memory never leaks into an answer: every leaf of the
// randomized and edge-shape corpora, run in an interleaved order through
// the pooled ExecuteOpts — on one goroutine, then from 8 at once — returns
// exactly what a run on a freshly allocated scratch does, and every
// answer stays as it was after all the runs that reused the memory of its
// own.
func TestPooledScratchIsolation(t *testing.T) {
	leaves := isolationLeaves(t)
	ctx := context.Background()
	var runs []kept
	for i := range leaves {
		l := &leaves[i]
		res, err := plan.ExecuteOpts(ctx, l.p, l.db, l.o)
		runs = append(runs, keep(l, res, err))
	}
	for _, k := range runs {
		k.check(t, "one goroutine")
	}

	const goroutines = 8
	byG := make([][]kept, goroutines)
	var wg sync.WaitGroup
	for gi := range byG {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range leaves {
				l := &leaves[(i+gi*len(leaves)/goroutines)%len(leaves)]
				res, err := plan.ExecuteOpts(ctx, l.p, l.db, l.o)
				byG[gi] = append(byG[gi], keep(l, res, err))
			}
		}()
	}
	wg.Wait()
	for _, runs := range byG {
		for _, k := range runs {
			k.check(t, fmt.Sprintf("%d goroutines", goroutines))
		}
	}
}

// An answer shares no memory with the scratch it was computed in: every
// leaf runs on one scratch whose buffers are overwritten with sentinel
// values after each run, and every kept answer — checked after all of
// them — is what a fresh scratch returns.
func TestPoisonedScratchLeavesAnswersAlone(t *testing.T) {
	leaves := isolationLeaves(t)
	ctx := context.Background()
	sc := plan.NewScratch()
	var runs []kept
	for i := range leaves {
		l := &leaves[i]
		res, err := plan.ExecuteOn(ctx, l.p, l.db, l.o, sc)
		runs = append(runs, keep(l, res, err))
		sc.Poison()
	}
	for _, k := range runs {
		k.check(t, "poisoned scratch")
	}
}
