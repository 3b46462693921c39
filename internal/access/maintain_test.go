package access

import (
	"testing"

	"repro/internal/relation"
)

func maintSchema(t *testing.T, db *relation.Database) *Schema {
	t.Helper()
	s, err := BuildAt(db)
	if err != nil {
		t.Fatalf("BuildAt: %v", err)
	}
	if _, err := s.Extend(db, "poi", []string{"type", "city"}, []string{"price", "address"}); err != nil {
		t.Fatalf("Extend: %v", err)
	}
	if _, err := s.Extend(db, "friend", []string{"pid"}, []string{"fid"}); err != nil {
		t.Fatalf("Extend: %v", err)
	}
	return s
}

func TestInsertMaintainsConformance(t *testing.T) {
	db := exampleDB(t)
	s := maintSchema(t, db)
	before := db.Size()

	tup := relation.Tuple{
		relation.String("addr-new"), relation.String("hotel"),
		relation.String("NYC"), relation.Float(123),
	}
	if err := s.Insert(db, "poi", tup); err != nil {
		t.Fatalf("Insert: %v", err)
	}
	if db.Size() != before+1 {
		t.Errorf("|D| = %d, want %d", db.Size(), before+1)
	}
	// D |= A must still hold after the update (C2's contract).
	if err := s.Verify(db); err != nil {
		t.Errorf("conformance broken after insert: %v", err)
	}
	// The new tuple is fetchable through the template's index.
	l := s.Find("poi", []string{"type", "city"}, []string{"price", "address"})
	key := relation.Tuple{relation.String("hotel"), relation.String("NYC")}
	found := false
	for _, smp := range fetchRows(l, key, l.MaxK()) {
		if a, _ := smp.Y[1].AsString(); a == "addr-new" {
			found = true
		}
	}
	if !found {
		t.Error("inserted tuple not indexed")
	}
}

func TestInsertNewGroup(t *testing.T) {
	db := exampleDB(t)
	s := maintSchema(t, db)
	l := s.Find("poi", []string{"type", "city"}, []string{"price", "address"})
	groupsBefore := l.NumGroups()
	tup := relation.Tuple{
		relation.String("addr-x"), relation.String("observatory"),
		relation.String("NYC"), relation.Float(5),
	}
	if err := s.Insert(db, "poi", tup); err != nil {
		t.Fatalf("Insert: %v", err)
	}
	if l.NumGroups() != groupsBefore+1 {
		t.Errorf("groups = %d, want %d", l.NumGroups(), groupsBefore+1)
	}
	key := relation.Tuple{relation.String("observatory"), relation.String("NYC")}
	if got := fetchRows(l, key, 0); len(got) != 1 {
		t.Errorf("new group fetch = %d samples, want 1", len(got))
	}
}

func TestDeleteMaintainsConformance(t *testing.T) {
	db := exampleDB(t)
	s := maintSchema(t, db)
	poi := db.MustRelation("poi")
	victim := poi.Tuples[0].Clone()
	before := poi.Len()

	ok, err := s.Delete(db, "poi", victim)
	if err != nil || !ok {
		t.Fatalf("Delete: %v, %v", ok, err)
	}
	if poi.Len() != before-1 {
		t.Errorf("|poi| = %d, want %d", poi.Len(), before-1)
	}
	if err := s.Verify(db); err != nil {
		t.Errorf("conformance broken after delete: %v", err)
	}
	// Deleting a non-existent tuple is a no-op.
	ok, err = s.Delete(db, "poi", relation.Tuple{
		relation.String("nope"), relation.String("x"), relation.String("y"), relation.Float(0),
	})
	if err != nil || ok {
		t.Errorf("phantom delete: %v, %v", ok, err)
	}
}

func TestDeleteEmptiesGroup(t *testing.T) {
	db := relation.NewDatabase()
	r := relation.NewRelation(relation.MustSchema("kv",
		relation.Attr("k", relation.KindInt, relation.Trivial()),
		relation.Attr("v", relation.KindFloat, relation.Numeric(10)),
	))
	r.MustAppend(
		relation.Tuple{relation.Int(1), relation.Float(5)},
		relation.Tuple{relation.Int(2), relation.Float(7)},
	)
	db.MustAdd(r)
	s := &Schema{}
	l, err := s.Extend(db, "kv", []string{"k"}, []string{"v"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Delete(db, "kv", relation.Tuple{relation.Int(1), relation.Float(5)}); err != nil {
		t.Fatal(err)
	}
	if l.NumGroups() != 1 {
		t.Errorf("groups = %d, want 1 after emptying", l.NumGroups())
	}
	if got := fetchRows(l, relation.Tuple{relation.Int(1)}, 0); got != nil {
		t.Errorf("emptied group still fetches %v", got)
	}
	if err := s.Verify(db); err != nil {
		t.Errorf("conformance: %v", err)
	}
}

// Deleting through a value spelling that is Equal but canonically distinct
// (Int(1e16) vs Float(1e16): numerically equal, different index keys above
// the canonInt cutoff) must update the group of the tuple actually removed
// from the relation, not the group the query spelling hashes to.
func TestDeleteCanonicalKeyMismatch(t *testing.T) {
	db := relation.NewDatabase()
	r := relation.NewRelation(relation.MustSchema("kv",
		relation.Attr("k", relation.KindFloat, relation.Trivial()),
		relation.Attr("v", relation.KindFloat, relation.Numeric(10)),
	))
	r.MustAppend(
		relation.Tuple{relation.Float(1e16), relation.Float(5)},
		relation.Tuple{relation.Int(2), relation.Float(7)},
	)
	db.MustAdd(r)
	s := &Schema{}
	l, err := s.Extend(db, "kv", []string{"k"}, []string{"v"})
	if err != nil {
		t.Fatal(err)
	}
	// EqualTuple matches the Float(1e16) tuple; its group must empty.
	ok, err := s.Delete(db, "kv", relation.Tuple{relation.Int(1e16), relation.Float(5)})
	if err != nil || !ok {
		t.Fatalf("Delete: %v, %v", ok, err)
	}
	if got := fetchRows(l, relation.Tuple{relation.Float(1e16)}, 0); got != nil {
		t.Errorf("stale group still fetches %v after delete", got)
	}
	if l.NumGroups() != 1 {
		t.Errorf("groups = %d, want 1", l.NumGroups())
	}
	if err := s.Verify(db); err != nil {
		t.Errorf("conformance: %v", err)
	}
}

func TestMaintainErrors(t *testing.T) {
	db := exampleDB(t)
	s := maintSchema(t, db)
	if err := s.Insert(db, "nope", relation.Tuple{}); err == nil {
		t.Error("insert into unknown relation must fail")
	}
	if _, err := s.Delete(db, "nope", relation.Tuple{}); err == nil {
		t.Error("delete from unknown relation must fail")
	}
	if err := s.Insert(db, "poi", relation.Tuple{relation.Int(1)}); err == nil {
		t.Error("arity mismatch must fail")
	}
}

// Insert appends the tuple to the relation in db and incrementally updates
// every ladder of the schema that indexes that relation.
func (s *Schema) Insert(db *relation.Database, rel string, t relation.Tuple) error {
	_, err := s.Apply(db, []Op{{Kind: OpInsert, Rel: rel, Tuple: t}})
	return err
}

// Delete removes (one occurrence of) the tuple from the relation in db and
// updates the affected ladder groups. It reports whether a tuple was
// removed.
func (s *Schema) Delete(db *relation.Database, rel string, t relation.Tuple) (bool, error) {
	applied, err := s.Apply(db, []Op{{Kind: OpDelete, Rel: rel, Tuple: t}})
	if err != nil {
		return false, err
	}
	return applied[0], nil
}
