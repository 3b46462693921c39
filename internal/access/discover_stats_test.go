package access_test

import (
	"math"
	"slices"
	"strings"
	"testing"

	"repro/internal/access"
	"repro/internal/fixture"
	"repro/internal/relation"
	"repro/internal/workload"
)

// refGroupStats is the reference grouping: per X-value, the set of
// distinct Y-values (Y the complement of X), both keyed by Tuple.Key
// strings.
func refGroupStats(r *relation.Relation, xIdx, yIdx []int) (groups, maxFanout int) {
	ys := map[string]map[string]bool{}
	for _, t := range r.Tuples {
		x := t.Project(xIdx).Key()
		if ys[x] == nil {
			ys[x] = map[string]bool{}
		}
		ys[x][t.Project(yIdx).Key()] = true
	}
	for _, g := range ys {
		maxFanout = max(maxFanout, len(g))
	}
	return len(ys), maxFanout
}

// xSets returns every attribute set of size 1 and 2 of r whose complement
// is not empty, with that complement: the X- and Y-sets discovery mines.
func xSets(r *relation.Relation) (xs, ys [][]string) {
	attrs := r.Schema.AttrNames()
	for i := range attrs {
		for j := i; j < len(attrs); j++ {
			x := slices.Compact([]string{attrs[i], attrs[j]})
			var y []string
			for _, a := range attrs {
				if !slices.Contains(x, a) {
					y = append(y, a)
				}
			}
			if len(y) > 0 {
				xs, ys = append(xs, x), append(ys, y)
			}
		}
	}
	return xs, ys
}

// discoverDBs are the databases the discovery differential runs on: the
// paper's Example 1 and the TPC-H-like workload, plus a relation whose
// keys spell one value several ways (Int/Float, NaN, −0, null).
func discoverDBs() map[string]*relation.Database {
	hostile := relation.NewDatabase()
	r := relation.NewRelation(relation.MustSchema("h",
		relation.Attr("a", relation.KindInt, relation.Trivial()),
		relation.Attr("b", relation.KindFloat, relation.Numeric(10)),
		relation.Attr("c", relation.KindString, relation.Discrete()),
	))
	vals := []relation.Value{relation.Int(3), relation.Float(3), relation.Float(math.NaN()),
		relation.Float(math.Copysign(0, -1)), relation.Int(0), relation.Null(), relation.String("3")}
	for i := 0; i < 400; i++ {
		r.MustAppend(relation.Tuple{vals[i%len(vals)], vals[i/len(vals)%len(vals)], vals[i*7%5]})
	}
	hostile.MustAdd(r)
	return map[string]*relation.Database{
		"example1": fixture.Example1(11, 80, 600),
		"tpch":     workload.TPCH(1, 3).DB,
		"hostile":  hostile,
	}
}

// Discovery counts each X group's distinct tuples of the distinct
// relation; that must equal the group's number of distinct Y-values, for
// every X-set discovery mines, and the candidates Discover returns must
// carry exactly those counts. With no cap and single-attribute X-sets,
// Discover keeps every X-set that splits its relation.
func TestDiscoverMatchesPerXYSets(t *testing.T) {
	statKey := func(rel string, x []string) string { return rel + "/" + strings.Join(x, ",") }
	for name, db := range discoverDBs() {
		ref := map[string][2]int{} // statKey → groups, max fanout
		splitting := 0             // single-attribute X-sets with two groups or more
		for _, rel := range db.Names() {
			r := db.MustRelation(rel)
			d := r.Distinct()
			xs, ys := xSets(r)
			for i, x := range xs {
				xIdx, _ := r.Schema.Indices(x)
				yIdx, _ := r.Schema.Indices(ys[i])
				wg, wf := refGroupStats(r, xIdx, yIdx)
				if g, f := access.GroupStats(d, xIdx); g != wg || f != wf {
					t.Errorf("%s %s%v: %d groups, max fanout %d; reference %d, %d", name, rel, x, g, f, wg, wf)
				}
				ref[statKey(rel, x)] = [2]int{wg, wf}
				if len(x) == 1 && wg > 1 {
					splitting++
				}
			}
		}
		uncapped := access.DiscoverOptions{MaxX: 1, MaxGroups: math.MaxInt, MaxPerRelation: math.MaxInt}
		if n := len(access.Discover(db, uncapped)); n != splitting {
			t.Errorf("%s: uncapped discovery keeps %d single-attribute X-sets, reference %d", name, n, splitting)
		}
		for _, opts := range []access.DiscoverOptions{{}, uncapped} {
			for _, c := range access.Discover(db, opts) {
				if want := ref[statKey(c.Rel, c.X)]; c.Groups != want[0] || c.MaxFanout != want[1] {
					t.Errorf("%s %+v: reference %d groups, max fanout %d", name, c, want[0], want[1])
				}
			}
		}
	}
}
