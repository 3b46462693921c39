package access

import (
	"reflect"
	"testing"

	"repro/internal/relation"
)

// The parallel offline build must be a pure speedup: a ladder built with a
// worker pool has to be indistinguishable from the sequential build — same
// metadata, same resolutions, and identical samples for every group at
// every level.
func TestParallelBuildLadderIdentical(t *testing.T) {
	db := exampleDB(t)
	specs := []struct {
		rel  string
		x, y []string
	}{
		{"poi", []string{"type", "city"}, []string{"price", "address"}},
		{"poi", nil, []string{"address", "type", "city", "price"}},
		{"friend", []string{"pid"}, []string{"fid"}},
		{"person", []string{"pid"}, []string{"city"}},
	}
	for _, spec := range specs {
		seq, err := buildLadderWorkers(db, spec.rel, spec.x, spec.y, 1)
		if err != nil {
			t.Fatalf("%s sequential: %v", spec.rel, err)
		}
		par, err := buildLadderWorkers(db, spec.rel, spec.x, spec.y, 8)
		if err != nil {
			t.Fatalf("%s parallel: %v", spec.rel, err)
		}
		if seq.MaxK() != par.MaxK() || seq.NumGroups() != par.NumGroups() ||
			seq.MaxGroupDistinct() != par.MaxGroupDistinct() || seq.IndexSize() != par.IndexSize() {
			t.Fatalf("%s: metadata differs: seq (K=%d g=%d N=%d sz=%d) par (K=%d g=%d N=%d sz=%d)",
				spec.rel, seq.MaxK(), seq.NumGroups(), seq.MaxGroupDistinct(), seq.IndexSize(),
				par.MaxK(), par.NumGroups(), par.MaxGroupDistinct(), par.IndexSize())
		}
		for k := 0; k <= seq.MaxK(); k++ {
			if !reflect.DeepEqual(seq.Resolution(k), par.Resolution(k)) {
				t.Fatalf("%s level %d: resolutions differ: %v vs %v", spec.rel, k, seq.Resolution(k), par.Resolution(k))
			}
		}
		for _, x := range seq.GroupXs() {
			if seq.ExactLevelFor(x) != par.ExactLevelFor(x) {
				t.Fatalf("%s group %v: exact level differs", spec.rel, x)
			}
			for k := 0; k <= seq.ExactLevelFor(x); k++ {
				if !reflect.DeepEqual(fetchRows(seq, x, k), fetchRows(par, x, k)) {
					t.Fatalf("%s group %v level %d: samples differ", spec.rel, x, k)
				}
			}
		}
	}
}

// Concurrent discovery must return exactly what per-relation sequential
// mining returns, in db.Names order.
func TestDiscoverConcurrentDeterministic(t *testing.T) {
	db := exampleDB(t)
	opts := DiscoverOptions{}.withDefaults()
	var want []Candidate
	for _, name := range db.Names() {
		want = append(want, discoverRelation(db.MustRelation(name), opts)...)
	}
	for trial := 0; trial < 3; trial++ {
		got := Discover(db, DiscoverOptions{})
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: concurrent Discover diverged:\n got %+v\nwant %+v", trial, got, want)
		}
	}
}

// Empty relations must be skipped by discovery, same as before the
// concurrent rewrite.
func TestDiscoverSkipsEmptyRelation(t *testing.T) {
	db := exampleDB(t)
	empty := relation.NewRelation(relation.MustSchema("empty",
		relation.Attr("a", relation.KindInt, relation.Trivial()),
		relation.Attr("b", relation.KindInt, relation.Trivial()),
	))
	db.MustAdd(empty)
	for _, c := range Discover(db, DiscoverOptions{}) {
		if c.Rel == "empty" {
			t.Fatalf("empty relation mined: %+v", c)
		}
	}
}
