package core

import (
	"context"
	"testing"

	"repro/internal/corpus"
	"repro/internal/fixture"
	"repro/internal/query"
	"repro/internal/relation"
)

// The kd-tree-indexed dangerous-distance exclusion and η′ coverage-gap
// search must be answer- and bound-identical to the quadratic scans they
// replace. Force both paths over a corpus of random Diff queries (whose
// approximate right-hand sides exercise combineDiff and refineEtaDiff) and
// compare complete Answers.
func TestDiffIndexMatchesScan(t *testing.T) {
	db := fixture.Example1(13, 150, 400)
	as, err := fixture.SchemaA0(db)
	if err != nil {
		t.Fatal(err)
	}
	g := corpus.NewGenerator(7)
	defer func(v int) { diffIndexMinWork = v }(diffIndexMinWork)

	checked := 0
	for ci := 0; ci < 60; ci++ {
		spc := g.SPC()
		q := &query.Diff{L: spc, R: g.Variant(spc)}
		for _, alpha := range []float64{0.05, 0.4} {
			// Fresh schemes per path so plan caches cannot cross-talk.
			diffIndexMinWork = 1 << 30 // always scan
			sScan := New(db, as)
			ansScan, _, errScan := sScan.AnswerContext(context.Background(), q, ExecOptions{Alpha: alpha})

			diffIndexMinWork = 0 // always index (when points >= 8)
			sTree := New(db, as)
			ansTree, _, errTree := sTree.AnswerContext(context.Background(), q, ExecOptions{Alpha: alpha})

			if (errScan != nil) != (errTree != nil) {
				t.Fatalf("case %d alpha %g: scan err %v, tree err %v", ci, alpha, errScan, errTree)
			}
			if errScan != nil {
				continue
			}
			if !sameKeys(relKeys(ansScan.Rel), relKeys(ansTree.Rel)) {
				t.Errorf("case %d alpha %g: indexed diff answers differ from scan\n%s", ci, alpha, query.Render(q))
			}
			if ansScan.Eta != ansTree.Eta || ansScan.Exact != ansTree.Exact || ansScan.Stats != ansTree.Stats {
				t.Errorf("case %d alpha %g: indexed (eta=%g exact=%v stats=%+v) != scan (eta=%g exact=%v stats=%+v)",
					ci, alpha, ansTree.Eta, ansTree.Exact, ansTree.Stats, ansScan.Eta, ansScan.Exact, ansScan.Stats)
			}
			checked++
		}
	}
	if checked < 40 {
		t.Errorf("only %d diff cases compared — corpus too lossy", checked)
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
