package core

import (
	"context"
	"testing"

	"repro/internal/corpus"
	"repro/internal/fixture"
	"repro/internal/query"
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
