// Package fixture builds the running-example database of the paper
// (Example 1: person, friend, poi) at configurable sizes, plus the access
// schema A0 used throughout §1–§5. It backs the test suites of the chase,
// plan, core and accuracy packages, which all exercise the same scenario.
package fixture

import (
	"fmt"
	"math/rand"

	"repro/internal/access"
	"repro/internal/query"
	"repro/internal/relation"
)

// Cities used by the generator.
var Cities = []string{"NYC", "Chicago", "Boston", "Austin", "Seattle", "Denver"}

// POITypes used by the generator.
var POITypes = []string{"hotel", "bar", "cafe", "museum"}

// Example1 returns a deterministic instance of the Example 1 schema with
// nPersons persons (averaging ~3 friends each) and nPOI points of interest.
func Example1(seed int64, nPersons, nPOI int) *relation.Database {
	db := Example1Schema()
	PopulateExample1(db, seed, nPersons, nPOI)
	return db
}

// Example1Schema returns the Example 1 database as a schema-only shell:
// person, friend and poi with no tuples. PopulateExample1 generates the
// contents; warm starts from a persisted snapshot skip it entirely (the
// snapshot supplies the tuples — see beas.OpenPersistedSchema).
func Example1Schema() *relation.Database {
	db := relation.NewDatabase()
	db.MustAdd(relation.NewRelation(relation.MustSchema("person",
		relation.Attr("pid", relation.KindInt, relation.Trivial()),
		relation.Attr("city", relation.KindString, relation.Trivial()),
	)))
	db.MustAdd(relation.NewRelation(relation.MustSchema("friend",
		relation.Attr("pid", relation.KindInt, relation.Trivial()),
		relation.Attr("fid", relation.KindInt, relation.Trivial()),
	)))
	db.MustAdd(relation.NewRelation(relation.MustSchema("poi",
		relation.Attr("address", relation.KindString, relation.Discrete()),
		relation.Attr("type", relation.KindString, relation.Discrete()),
		relation.Attr("city", relation.KindString, relation.Trivial()),
		relation.Attr("price", relation.KindFloat, relation.Numeric(100)),
	)))
	return db
}

// PopulateExample1 fills an Example1Schema shell with the generated tuples,
// deterministically for the seed: Example1Schema + PopulateExample1 yields
// the same database as Example1 (the rng consumption order is identical).
func PopulateExample1(db *relation.Database, seed int64, nPersons, nPOI int) {
	rng := rand.New(rand.NewSource(seed))
	person := db.MustRelation("person")
	friend := db.MustRelation("friend")
	poi := db.MustRelation("poi")

	for pid := 0; pid < nPersons; pid++ {
		person.MustAppend(relation.Tuple{
			relation.Int(int64(pid)),
			relation.String(Cities[rng.Intn(len(Cities))]),
		})
		for j, nf := 0, rng.Intn(6); j < nf; j++ {
			friend.MustAppend(relation.Tuple{
				relation.Int(int64(pid)),
				relation.Int(int64(rng.Intn(nPersons))),
			})
		}
	}
	for i := 0; i < nPOI; i++ {
		poi.MustAppend(relation.Tuple{
			relation.String(fmt.Sprintf("addr%d", i)),
			relation.String(POITypes[rng.Intn(len(POITypes))]),
			relation.String(Cities[rng.Intn(len(Cities))]),
			relation.Float(10 + rng.Float64()*390),
		})
	}
}

// SchemaA0 builds the paper's access schema A0 extended with At: the
// constraints ϕ1 = friend(pid → fid), ϕ2 = person(pid → city) and the
// template ladder ψ = poi({type, city} → {price, address}), on top of the
// generic At ladders.
func SchemaA0(db *relation.Database) (*access.Schema, error) {
	s, err := access.BuildAt(db)
	if err != nil {
		return nil, err
	}
	if _, err := s.Extend(db, "friend", []string{"pid"}, []string{"fid"}); err != nil {
		return nil, err
	}
	if _, err := s.Extend(db, "person", []string{"pid"}, []string{"city"}); err != nil {
		return nil, err
	}
	if _, err := s.Extend(db, "poi", []string{"type", "city"}, []string{"price", "address"}); err != nil {
		return nil, err
	}
	return s, nil
}

// Q1 is the paper's query Q1: hotels costing at most maxPrice in a city
// where a friend of person p0 lives.
func Q1(p0 int64, maxPrice float64) *query.SPC {
	return &query.SPC{
		Atoms: []query.Atom{
			{Rel: "poi", Alias: "h"},
			{Rel: "friend", Alias: "f"},
			{Rel: "person", Alias: "p"},
		},
		Preds: []query.Pred{
			query.EqC(query.C("f", "pid"), relation.Int(p0)),
			query.EqJ(query.C("f", "fid"), query.C("p", "pid")),
			query.EqJ(query.C("p", "city"), query.C("h", "city")),
			query.EqC(query.C("h", "type"), relation.String("hotel")),
			query.LeC(query.C("h", "price"), relation.Float(maxPrice)),
		},
		Output: []query.Col{query.C("h", "address"), query.C("h", "price")},
	}
}

// Q2 is the paper's query Q2: cities where friends of p0 live (boundedly
// evaluable under ϕ1, ϕ2).
func Q2(p0 int64) *query.SPC {
	return &query.SPC{
		Atoms: []query.Atom{
			{Rel: "friend", Alias: "f"},
			{Rel: "person", Alias: "p"},
		},
		Preds: []query.Pred{
			query.EqC(query.C("f", "pid"), relation.Int(p0)),
			query.EqJ(query.C("f", "fid"), query.C("p", "pid")),
		},
		Output: []query.Col{query.C("p", "city")},
	}
}
