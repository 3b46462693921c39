package relation

import "testing"

func poiSchema(t testing.TB) *Schema {
	t.Helper()
	s, err := NewSchema("poi",
		Attr("address", KindString, Discrete()),
		Attr("type", KindString, Discrete()),
		Attr("city", KindString, Trivial()),
		Attr("price", KindFloat, Numeric(100)),
	)
	if err != nil {
		t.Fatalf("NewSchema: %v", err)
	}
	return s
}

func TestSchemaBasics(t *testing.T) {
	s := poiSchema(t)
	if s.Arity() != 4 {
		t.Fatalf("Arity = %d", s.Arity())
	}
	if i, ok := s.Index("city"); !ok || i != 2 {
		t.Errorf("Index(city) = %d, %v", i, ok)
	}
	if _, ok := s.Index("nope"); ok {
		t.Error("Index(nope) should fail")
	}
	want := []string{"address", "type", "city", "price"}
	got := s.AttrNames()
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("AttrNames[%d] = %q, want %q", i, got[i], want[i])
		}
	}
}

func TestSchemaErrors(t *testing.T) {
	if _, err := NewSchema("r", Attr("a", KindInt, Trivial()), Attr("a", KindInt, Trivial())); err == nil {
		t.Error("duplicate attribute should error")
	}
	if _, err := NewSchema("r", Attr("", KindInt, Trivial())); err == nil {
		t.Error("empty attribute name should error")
	}
	defer func() {
		if recover() == nil {
			t.Error("MustSchema should panic on error")
		}
	}()
	MustSchema("r", Attr("a", KindInt, Trivial()), Attr("a", KindInt, Trivial()))
}

func TestSchemaIndicesAndProject(t *testing.T) {
	s := poiSchema(t)
	idx, err := s.Indices([]string{"price", "city"})
	if err != nil || idx[0] != 3 || idx[1] != 2 {
		t.Fatalf("Indices = %v, %v", idx, err)
	}
	if _, err := s.Indices([]string{"nope"}); err == nil {
		t.Error("Indices(nope) should fail")
	}
	p, err := s.Project("poi_pc", []string{"price", "city"})
	if err != nil {
		t.Fatalf("Project: %v", err)
	}
	if p.Name != "poi_pc" || p.Arity() != 2 || p.Attrs[0].Name != "price" {
		t.Errorf("Project schema wrong: %+v", p)
	}
	// Distance specs carried over.
	if p.Attrs[0].Dist.Kind != DistNumeric || p.Attrs[0].Dist.Scale != 100 {
		t.Error("Project must carry distance specs")
	}
	if _, err := s.Project("x", []string{"nope"}); err == nil {
		t.Error("Project with bad attr should fail")
	}
}

func TestMustIndexPanics(t *testing.T) {
	s := poiSchema(t)
	if s.MustIndex("price") != 3 {
		t.Error("MustIndex(price)")
	}
	defer func() {
		if recover() == nil {
			t.Error("MustIndex should panic on unknown attr")
		}
	}()
	s.MustIndex("nope")
}
