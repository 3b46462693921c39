package fixture

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"repro/internal/relation"
)

// assertSameDB compares two databases relation by relation: names, schemas
// and tuples, value for value and kind for kind, in stored order.
func assertSameDB(t *testing.T, label string, a, b *relation.Database) {
	t.Helper()
	if !slices.Equal(a.Names(), b.Names()) {
		t.Fatalf("%s: relations %v vs %v", label, a.Names(), b.Names())
	}
	for _, name := range a.Names() {
		ra, rb := a.MustRelation(name), b.MustRelation(name)
		if !reflect.DeepEqual(ra.Schema, rb.Schema) {
			t.Fatalf("%s: %s schemas differ", label, name)
		}
		if ra.Len() != rb.Len() {
			t.Fatalf("%s: %s has %d vs %d tuples", label, name, ra.Len(), rb.Len())
		}
		for i := range ra.Tuples {
			if !reflect.DeepEqual(ra.Tuples[i], rb.Tuples[i]) {
				t.Fatalf("%s: %s tuple %d is %v vs %v", label, name, i, ra.Tuples[i], rb.Tuples[i])
			}
		}
	}
}

// Example1 is Example1Schema filled by PopulateExample1, tuple for tuple:
// the warm-start path builds the shell and the cold path the whole
// database, and both must describe the same data.
func TestExample1MatchesSchemaAndPopulate(t *testing.T) {
	for _, seed := range []int64{1, 7, 11} {
		shell := Example1Schema()
		for _, name := range shell.Names() {
			if n := shell.MustRelation(name).Len(); n != 0 {
				t.Fatalf("Example1Schema: %s has %d tuples, want none", name, n)
			}
		}
		PopulateExample1(shell, seed, 60, 120)
		assertSameDB(t, fmt.Sprintf("seed %d", seed), Example1(seed, 60, 120), shell)
	}
}

// The same seed gives the same database on every call, and another seed
// another one, so the determinism the differential suites rely on is not
// vacuous.
func TestExample1Deterministic(t *testing.T) {
	a, b := Example1(7, 120, 80), Example1(7, 120, 80)
	assertSameDB(t, "seed 7 twice", a, b)
	if a.Size() == 0 {
		t.Fatal("Example1 generated no tuples")
	}
	other := Example1(8, 120, 80)
	if reflect.DeepEqual(a.MustRelation("poi").Tuples, other.MustRelation("poi").Tuples) {
		t.Fatal("seeds 7 and 8 generate the same poi tuples")
	}
}

// SchemaA0 builds the ladders its documentation names — At over each
// relation plus friend(pid → fid), person(pid → city) and
// poi({type, city} → {price, address}) — and the database conforms to every
// one of them.
func TestSchemaA0(t *testing.T) {
	db := Example1(11, 60, 120)
	type spec struct {
		rel  string
		x, y []string
	}
	want := []spec{
		{"friend", nil, []string{"pid", "fid"}},
		{"person", nil, []string{"pid", "city"}},
		{"poi", nil, []string{"address", "type", "city", "price"}},
		{"friend", []string{"pid"}, []string{"fid"}},
		{"person", []string{"pid"}, []string{"city"}},
		{"poi", []string{"type", "city"}, []string{"price", "address"}},
	}
	s, err := SchemaA0(db)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Ladders) != len(want) {
		t.Fatalf("%d ladders, want %d", len(s.Ladders), len(want))
	}
	for _, w := range want {
		if s.Find(w.rel, w.x, w.y) == nil {
			t.Fatalf("no ladder %s(%v -> %v)", w.rel, w.x, w.y)
		}
	}
	if err := s.Verify(db); err != nil {
		t.Error(err)
	}
}
