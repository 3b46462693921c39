package core

import (
	"context"
	"fmt"
	"math"
	"slices"
	"sync"
	"testing"

	"repro/internal/corpus"
	"repro/internal/fixture"
	"repro/internal/plan"
	"repro/internal/query"
	"repro/internal/relation"
)

// The dangerous-distance exclusion and the η′ coverage-gap search run
// through a K-D tree; they must answer as the quadratic scans of §6 do.
// Over a corpus of random Diff queries, each plan's leaves run once and
// the production Answer assembled from them is compared with a scan
// reference built from the same leaf results: the answer keys must be the
// scan exclusion's and Eta must be etaOf(DRel, scan d′ + d̂cov) bit for
// bit. Every size class a retired size rule once sent to a scan instead of
// the tree must be reached (diffSizeClass).
func TestDiffIndexMatchesScan(t *testing.T) {
	s, queries := diffCorpus(t)
	ctx := context.Background()
	checked := 0
	reached := map[string]int{}
	for ci, q := range queries {
		for _, alpha := range diffAlphas {
			o := ExecOptions{Alpha: alpha}
			p, err := s.PlanContext(ctx, q, o)
			if err != nil {
				continue
			}
			results, err := s.runInOrder(ctx, p, o)
			if err != nil {
				continue
			}
			ans, err := s.assemble(ctx, p, o, results)
			if err != nil {
				t.Fatalf("case %d alpha %g: %v", ci, alpha, err)
			}
			want, eta := scanDiffAnswer(t, s, p, q, results, reached)
			if !sameKeys(relKeys(want), relKeys(ans.Rel)) {
				t.Errorf("case %d alpha %g: answers differ from the scan exclusion\n%s", ci, alpha, query.Render(q))
			}
			if ans.Eta != eta {
				t.Errorf("case %d alpha %g: eta %v, scan reference %v\n%s", ci, alpha, ans.Eta, eta, query.Render(q))
			}
			checked++
		}
	}
	if checked < 80 {
		t.Errorf("only %d diff cases compared — corpus too lossy", checked)
	}
	for _, class := range []string{
		"exclusion: no points", "exclusion: 1–7 points",
		"exclusion: work below 4096", "exclusion: work at or above 4096",
		"eta: no points", "eta: work below 4096", "eta: work at or above 4096",
	} {
		if reached[class] < 5 {
			t.Errorf("%s: %d cases; want at least 5", class, reached[class])
		}
	}
	t.Logf("%d cases; size classes reached: %v", checked, reached)
}

// diffAlphas are the resource ratios the Diff corpus runs at.
var diffAlphas = []float64{0.05, 0.4, 0.8}

// diffCorpus returns a Scheme over a larger Example 1 instance and 80
// random Diff queries whose right-hand side is a variant of the left.
func diffCorpus(t *testing.T) (*Scheme, []*query.Diff) {
	t.Helper()
	db := fixture.Example1(13, 150, 400)
	as, err := fixture.SchemaA0(db)
	if err != nil {
		t.Fatal(err)
	}
	g := corpus.NewGenerator(7)
	qs := make([]*query.Diff, 80)
	for i := range qs {
		spc := g.SPC()
		qs[i] = &query.Diff{L: spc, R: g.Variant(spc)}
	}
	return New(db, as), qs
}

// scanDiffAnswer is the quadratic reference for a top-level Diff plan's
// answer and η over its executed leaves: each left answer is compared with
// every Ê(Q̂₂) tuple, and each Ŝ tuple with every answer. It counts the
// size class of each search in reached.
func scanDiffAnswer(t *testing.T, s *Scheme, p *Plan, q *query.Diff, results []*plan.Result, reached map[string]int) (*relation.Relation, float64) {
	t.Helper()
	l, err := s.combine(p, q.L, results)
	if err != nil {
		t.Fatal(err)
	}
	out := relation.NewRelation(l.Schema)
	if s.sideExact(p, q.R) {
		r, err := s.combine(p, q.R, results)
		if err != nil {
			t.Fatal(err)
		}
		drop := map[string]bool{}
		for _, u := range r.Tuples {
			drop[u.Key()] = true
		}
		for _, u := range l.Tuples {
			if !drop[u.Key()] {
				out.Tuples = append(out.Tuples, u)
			}
		}
	} else {
		rHatExpr := query.MaxInduced(q.R)
		rHat, err := s.combine(p, rHatExpr, results)
		if err != nil {
			t.Fatal(err)
		}
		delta, attrs, err := s.dangerousDistances(p, rHatExpr)
		if err != nil {
			t.Fatal(err)
		}
		reached["exclusion: "+diffSizeClass(l.Len(), rHat.Len())]++
		for _, u := range l.Tuples {
			if !slices.ContainsFunc(rHat.Tuples, func(v relation.Tuple) bool { return withinPerAttr(attrs, u, v, delta) }) {
				out.Tuples = append(out.Tuples, u)
			}
		}
	}

	truncated := false
	for _, r := range results {
		truncated = truncated || r.Stats.Truncated
	}
	switch {
	case truncated:
		return out, 0
	case p.Exact:
		return out, 1
	}
	hatExpr := query.MaxInduced(p.Expr)
	hat, err := s.combine(p, hatExpr, results)
	if err != nil {
		t.Fatal(err)
	}
	_, hatCov := s.bound(p, hatExpr)
	reached["eta: "+diffSizeClass(hat.Len(), out.Len())]++
	dPrime := 0.0
	for _, u := range hat.Tuples {
		best := math.Inf(1)
		for _, v := range out.Tuples {
			best = min(best, relation.TupleDistance(hat.Schema.Attrs, v, u))
		}
		dPrime = max(dPrime, best)
	}
	return out, etaOf(p.DRel, dPrime+hatCov)
}

// withinPerAttr reports whether u lies within delta of v on every
// attribute, two +inf distances counting as within (§6's exclusion).
func withinPerAttr(attrs []relation.Attribute, u, v relation.Tuple, delta []float64) bool {
	for i, a := range attrs {
		d := a.Dist.Between(u[i], v[i])
		if d > delta[i] && !(math.IsInf(d, 1) && math.IsInf(delta[i], 1)) {
			return false
		}
	}
	return true
}

// diffSizeClass names the size class of a search that probes `points`
// indexed tuples `probes` times. Before the K-D tree served every search,
// a size rule scanned instead when there were fewer than 8 points or the
// product was below 4096; these classes are where the two used to part.
func diffSizeClass(probes, points int) string {
	switch {
	case points == 0 && probes == 0:
		return "no probes or points"
	case points == 0:
		return "no points"
	case points < 8:
		return "1–7 points"
	case probes*points < 4096:
		return "work below 4096"
	default:
		return "work at or above 4096"
	}
}

// A tree scratch grown past maxPooledTreeBytes by a large answer is not
// pooled: no scratch the pool hands out afterwards holds more.
func TestOversizedTreeScratchIsNotPooled(t *testing.T) {
	attrs := []relation.Attribute{relation.Attr("x", relation.KindFloat, relation.Numeric(1)), relation.Attr("y", relation.KindFloat, relation.Numeric(1))}
	r := relation.NewRelation(relation.MustSchema("t", attrs...))
	for i := 0; i < 100000; i++ {
		r.Tuples = append(r.Tuples, relation.Tuple{relation.Float(float64(i)), relation.Float(float64(i % 97))})
	}
	ts := treeScratchPool.Get()
	if tree := ts.treeOf(attrs, r); tree.Items() != r.Len() {
		t.Fatalf("tree of %d items over %d distinct points", tree.Items(), r.Len())
	}
	if ts.points.RetainedBytes() <= maxPooledTreeBytes {
		t.Fatalf("the large answer keeps %d bytes of points; want more than %d", ts.points.RetainedBytes(), maxPooledTreeBytes)
	}
	putTreeScratch(ts)
	for range 4 {
		if got := treeScratchPool.Get(); got == ts || got.points.RetainedBytes() > maxPooledTreeBytes {
			t.Fatalf("the pool returned a tree scratch of %d bytes; want at most %d", got.points.RetainedBytes(), maxPooledTreeBytes)
		}
	}
}

// treeCase is one query whose plan probes a K-D tree: an EXCEPT whose
// right-hand side is fetched approximately (combineDiff) or whose plan is
// not exact (refineEtaDiff).
type treeCase struct {
	s     *Scheme
	q     query.Expr
	alpha float64
	want  string // the answer of a run on one goroutine
}

// treeCases collects the EXCEPT cases of the golden, edge-shape and Diff
// corpora whose plans probe a K-D tree.
func treeCases(t *testing.T) []treeCase {
	t.Helper()
	ctx := context.Background()
	var out []treeCase
	add := func(s *Scheme, q query.Expr, alpha float64) {
		p, err := s.PlanContext(ctx, q, ExecOptions{Alpha: alpha})
		if err != nil || !query.HasDiff(q) || p.Exact && !slices.ContainsFunc(diffsOf(q), func(d *query.Diff) bool { return !s.sideExact(p, d.R) }) {
			return
		}
		out = append(out, treeCase{s: s, q: q, alpha: alpha, want: answerText(s.AnswerContext(ctx, q, ExecOptions{Alpha: alpha}))})
	}
	db := fixture.Example1(7, 120, 80)
	as, err := fixture.SchemaA0(db)
	if err != nil {
		t.Fatal(err)
	}
	s := New(db, as)
	g := corpus.NewGenerator(42)
	alphas := []float64{0.01, 0.1, 0.6}
	for ci := 0; ci < 200; ci++ {
		add(s, g.Query(), alphas[ci%len(alphas)])
	}
	edb := corpus.EdgeDB()
	eas, err := fixture.SchemaA0(edb)
	if err != nil {
		t.Fatal(err)
	}
	es := New(edb, eas)
	for _, c := range corpus.EdgeCases() {
		add(es, c.Query, c.Alpha)
	}
	ds, queries := diffCorpus(t)
	for _, q := range queries {
		for _, alpha := range diffAlphas {
			add(ds, q, alpha)
		}
	}
	return out
}

// diffsOf lists the set differences of an expression.
func diffsOf(e query.Expr) []*query.Diff {
	switch q := e.(type) {
	case *query.Union:
		return append(diffsOf(q.L), diffsOf(q.R)...)
	case *query.Diff:
		return append([]*query.Diff{q}, append(diffsOf(q.L), diffsOf(q.R)...)...)
	case *query.GroupBy:
		return diffsOf(q.In)
	default:
		return nil
	}
}

// answerText renders everything an answer certifies: its keys, η,
// exactness and access statistics, or the error.
func answerText(ans *Answer, _ *Plan, err error) string {
	if err != nil {
		return "err=" + err.Error()
	}
	return fmt.Sprintf("%q eta=%v exact=%v stats=%+v", relKeys(ans.Rel), ans.Eta, ans.Exact, ans.Stats)
}

// Pooled tree scratches never leak into an answer: every EXCEPT case whose
// plan probes a K-D tree, run from 8 goroutines at once on one Scheme
// per corpus, answers as a run on one goroutine does, and every kept
// answer is unchanged after all the runs that reused the pooled trees.
func TestTreeScratchIsolation(t *testing.T) {
	cases := treeCases(t)
	if len(cases) < 100 {
		t.Fatalf("only %d EXCEPT cases probe a tree", len(cases))
	}
	type kept struct {
		c    *treeCase
		ans  *Answer
		err  error
		text string
	}
	const goroutines = 8
	byG := make([][]kept, goroutines)
	var wg sync.WaitGroup
	for gi := range byG {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range cases {
				c := &cases[(i+gi*len(cases)/goroutines)%len(cases)]
				ans, p, err := c.s.AnswerContext(context.Background(), c.q, ExecOptions{Alpha: c.alpha})
				byG[gi] = append(byG[gi], kept{c: c, ans: ans, err: err, text: answerText(ans, p, err)})
			}
		}()
	}
	wg.Wait()
	for _, runs := range byG {
		for _, k := range runs {
			if k.text != k.c.want {
				t.Errorf("%s alpha %g: concurrent run answered\n%s\none goroutine answered\n%s", query.Render(k.c.q), k.c.alpha, k.text, k.c.want)
			}
			if now := answerText(k.ans, nil, k.err); now != k.text {
				t.Errorf("%s alpha %g: the answer changed after later runs:\n%s\nwas\n%s", query.Render(k.c.q), k.c.alpha, now, k.text)
			}
		}
	}
	t.Logf("%d EXCEPT cases probe a tree", len(cases))
}
