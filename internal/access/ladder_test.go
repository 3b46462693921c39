package access

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/relation"
)

// exampleDB builds a small version of the paper's Example 1 database:
// person(pid, city), friend(pid, fid), poi(address, type, city, price).
func exampleDB(t testing.TB) *relation.Database {
	t.Helper()
	db := relation.NewDatabase()

	person := relation.NewRelation(relation.MustSchema("person",
		relation.Attr("pid", relation.KindInt, relation.Trivial()),
		relation.Attr("city", relation.KindString, relation.Trivial()),
	))
	friend := relation.NewRelation(relation.MustSchema("friend",
		relation.Attr("pid", relation.KindInt, relation.Trivial()),
		relation.Attr("fid", relation.KindInt, relation.Trivial()),
	))
	poi := relation.NewRelation(relation.MustSchema("poi",
		relation.Attr("address", relation.KindString, relation.Discrete()),
		relation.Attr("type", relation.KindString, relation.Discrete()),
		relation.Attr("city", relation.KindString, relation.Trivial()),
		relation.Attr("price", relation.KindFloat, relation.Numeric(100)),
	))

	cities := []string{"NYC", "Chicago", "Boston", "Austin"}
	rng := rand.New(rand.NewSource(42))
	for pid := 0; pid < 40; pid++ {
		person.MustAppend(relation.Tuple{relation.Int(int64(pid)), relation.String(cities[pid%len(cities)])})
		nf := rng.Intn(5)
		for j := 0; j < nf; j++ {
			friend.MustAppend(relation.Tuple{relation.Int(int64(pid)), relation.Int(int64(rng.Intn(40)))})
		}
	}
	types := []string{"hotel", "bar", "cafe"}
	for i := 0; i < 200; i++ {
		poi.MustAppend(relation.Tuple{
			relation.String("addr" + relation.Int(int64(i)).String()),
			relation.String(types[rng.Intn(len(types))]),
			relation.String(cities[rng.Intn(len(cities))]),
			relation.Float(20 + rng.Float64()*300),
		})
	}
	db.MustAdd(person)
	db.MustAdd(friend)
	db.MustAdd(poi)
	return db
}

func TestBuildLadderErrors(t *testing.T) {
	db := exampleDB(t)
	if _, err := BuildLadder(db, "nope", nil, []string{"x"}); err == nil {
		t.Error("unknown relation must error")
	}
	if _, err := BuildLadder(db, "poi", []string{"nope"}, []string{"price"}); err == nil {
		t.Error("unknown X attribute must error")
	}
	if _, err := BuildLadder(db, "poi", []string{"type"}, []string{"nope"}); err == nil {
		t.Error("unknown Y attribute must error")
	}
	if _, err := BuildLadder(db, "poi", []string{"type"}, nil); err == nil {
		t.Error("empty Y must error")
	}
}

func TestLadderConstraintSemantics(t *testing.T) {
	db := exampleDB(t)
	// person(pid -> city): key constraint, 1 city per pid (paper's ϕ2).
	l, err := BuildLadder(db, "person", []string{"pid"}, []string{"city"})
	if err != nil {
		t.Fatalf("BuildLadder: %v", err)
	}
	if l.MaxGroupDistinct() != 1 {
		t.Errorf("MaxGroupDistinct = %d, want 1", l.MaxGroupDistinct())
	}
	if l.MaxK() != 0 {
		t.Errorf("MaxK = %d, want 0 (key groups are singletons)", l.MaxK())
	}
	c := l.Constraint()
	if !c.IsConstraint() || c.N != 1 {
		t.Errorf("Constraint() = %v", c)
	}
	// Fetch returns the exact city.
	key := relation.Tuple{relation.Int(3)}
	samples := fetchRows(l, key, 0)
	if len(samples) != 1 {
		t.Fatalf("Fetch = %d samples, want 1", len(samples))
	}
	if s, _ := samples[0].Y[0].AsString(); s != "Austin" {
		t.Errorf("person 3 city = %q, want Austin", s)
	}
	// Missing X-value yields nothing.
	if got := fetchRows(l, relation.Tuple{relation.Int(9999)}, 0); got != nil {
		t.Errorf("Fetch missing key = %v", got)
	}
}

func TestLadderTemplateLevels(t *testing.T) {
	db := exampleDB(t)
	l, err := BuildLadder(db, "poi", []string{"type", "city"}, []string{"price", "address"})
	if err != nil {
		t.Fatalf("BuildLadder: %v", err)
	}
	if l.MaxK() < 2 {
		t.Fatalf("MaxK = %d, want a few levels", l.MaxK())
	}
	// N doubles per level until capped.
	for k := 0; k <= l.MaxK(); k++ {
		tmpl := l.Template(k)
		if tmpl.K != k || tmpl.Relation != "poi" {
			t.Errorf("Template(%d) identity wrong: %+v", k, tmpl)
		}
		want := 1 << uint(k)
		if want > l.MaxGroupDistinct() || k == l.MaxK() {
			want = l.MaxGroupDistinct()
		}
		if tmpl.N != want {
			t.Errorf("Template(%d).N = %d, want %d", k, tmpl.N, want)
		}
	}
	// Top level is the constraint.
	if !l.Template(l.MaxK()).IsConstraint() {
		t.Error("top level must be exact")
	}
	// Level 0 on a spread-out numeric attribute is approximate.
	if l.Template(0).IsConstraint() {
		t.Error("level 0 should be approximate for spread data")
	}
	// Clamping.
	if l.Template(-5).K != 0 || l.Template(99).K != l.MaxK() {
		t.Error("Template level clamping")
	}
}

func TestLadderResolutionMonotone(t *testing.T) {
	db := exampleDB(t)
	l, err := BuildLadder(db, "poi", []string{"type"}, []string{"price"})
	if err != nil {
		t.Fatalf("BuildLadder: %v", err)
	}
	prev := math.Inf(1)
	for k := 0; k <= l.MaxK(); k++ {
		cur := l.MaxResolution(k)
		if cur > prev+1e-9 {
			t.Fatalf("resolution increased at level %d: %g > %g", k, cur, prev)
		}
		prev = cur
	}
	if l.MaxResolution(l.MaxK()) != 0 {
		t.Error("top-level resolution must be 0")
	}
}

func TestLadderFetchBound(t *testing.T) {
	db := exampleDB(t)
	l, err := BuildLadder(db, "poi", []string{"type", "city"}, []string{"price", "address"})
	if err != nil {
		t.Fatalf("BuildLadder: %v", err)
	}
	for k := 0; k <= l.MaxK()+1; k++ {
		bound := l.FetchBound(k)
		for _, key := range l.GroupXs() {
			if got := len(fetchRows(l, key, k)); got > bound {
				t.Errorf("level %d: fetched %d > bound %d", k, got, bound)
			}
		}
	}
}

func TestLadderCountAnnotations(t *testing.T) {
	db := exampleDB(t)
	// friend(pid -> fid): counts at level 0 must sum to the group size.
	l, err := BuildLadder(db, "friend", []string{"pid"}, []string{"fid"})
	if err != nil {
		t.Fatalf("BuildLadder: %v", err)
	}
	friend := db.MustRelation("friend")
	sizes := map[string]int{}
	var keys []relation.Tuple // each key of sizes once, first spelling
	pidIdx := friend.Schema.MustIndex("pid")
	for _, tp := range friend.Tuples {
		key := relation.Tuple{tp[pidIdx]}
		if sizes[key.Key()] == 0 {
			keys = append(keys, key)
		}
		sizes[key.Key()]++
	}
	for _, key := range keys {
		got := 0
		for _, s := range fetchRows(l, key, 0) {
			got += s.Count
		}
		if want := sizes[key.Key()]; got != want {
			t.Errorf("group %v count sum = %d, want %d", key, got, want)
		}
	}
}

func TestLadderVerify(t *testing.T) {
	db := exampleDB(t)
	for _, spec := range []struct {
		rel  string
		x, y []string
	}{
		{"poi", []string{"type", "city"}, []string{"price", "address"}},
		{"friend", []string{"pid"}, []string{"fid"}},
		{"person", []string{"pid"}, []string{"city"}},
		{"poi", nil, []string{"address", "type", "city", "price"}},
	} {
		l, err := BuildLadder(db, spec.rel, spec.x, spec.y)
		if err != nil {
			t.Fatalf("BuildLadder(%s): %v", spec.rel, err)
		}
		if err := l.Verify(db); err != nil {
			t.Errorf("Verify(%s %v->%v): %v", spec.rel, spec.x, spec.y, err)
		}
	}
}

func TestTemplateString(t *testing.T) {
	db := exampleDB(t)
	l, _ := BuildLadder(db, "person", []string{"pid"}, []string{"city"})
	s := l.Constraint().String()
	if s != "person({pid} -> {city}, 1, 0)" {
		t.Errorf("String = %q", s)
	}
	l2, _ := BuildLadder(db, "poi", []string{"type"}, []string{"price"})
	s2 := l2.Template(0).String()
	if s2 == "" || s2 == s {
		t.Errorf("approximate template String = %q", s2)
	}
	if tm := l2.Template(0); tm.MaxResolution() < tm.Resolution[0] {
		t.Error("MaxResolution lower than a component")
	}
}
