// Package workload provides the experimental substrate of §8: deterministic
// generators for the three datasets (a TPC-H-like star schema and synthetic
// analogues of the AIRCA flight data and the TFACC road-accident data), the
// per-dataset access schemas (constraints on keys and foreign keys plus
// value templates, extending At), and a query generator that controls the
// paper's workload knobs — #-sel, #-prod, query class (SPC / RA / aggregate
// SPC) and the number of set differences.
//
// The real AIRCA (60GB) and TFACC (21GB) datasets are not redistributable
// and far beyond laptop scale; the generators reproduce their schema shape,
// key/foreign-key structure, and skewed categorical + numeric value
// distributions at a configurable scale, which is what the resource-bounded
// evaluation actually exercises (see DESIGN.md §3, Substitutions).
package workload

import (
	"fmt"
	"math/rand"
	"strings"

	"repro/internal/access"
	"repro/internal/query"
	"repro/internal/relation"
)

// Join is a foreign-key edge of a dataset's join graph.
type Join struct {
	FromRel, FromAttr string
	ToRel, ToAttr     string
}

// SelAttr is an attribute suitable for selection predicates.
type SelAttr struct {
	Rel, Attr string
	// Numeric selects <=/>= predicates with data-drawn constants;
	// otherwise equality against a categorical value.
	Numeric bool
}

// LadderSpec declares one access-schema ladder to build beyond At.
type LadderSpec struct {
	Rel  string
	X, Y []string
}

// Dataset bundles a generated database with the metadata the query
// generator and access-schema builder need.
type Dataset struct {
	Name string
	DB   *relation.Database
	// Joins is the foreign-key join graph.
	Joins []Join
	// Sel lists attributes for selection predicates.
	Sel []SelAttr
	// Anchors lists key / foreign-key attributes suitable for equality
	// anchors ("orders of customer X"). Anchored queries let the chase
	// cover the join chain with access constraints — the paper draws half
	// of its query attributes from the access constraints for the same
	// reason.
	Anchors []SelAttr
	// AggKeys lists (rel, attr) pairs usable as group-by keys.
	AggKeys []SelAttr
	// AggVals lists numeric attributes usable as aggregate inputs.
	AggVals []SelAttr
	// Ladders declares the access schema beyond At.
	Ladders []LadderSpec
	// Facts are the relations query bodies start from.
	Facts []string

	// populate fills the (empty) relations with the generated tuples; set by
	// the *Schema constructors and consumed exactly once via Populate. It
	// stays unexported so the only ways to fill a shell are Populate and a
	// persisted snapshot restore.
	populate func(seed int64)
}

// ByName returns the named dataset (tpch, airca or tfacc, in any case) at
// the scale as a schema-only shell; call Populate to generate its tuples.
func ByName(name string, scale int) (*Dataset, error) {
	switch strings.ToLower(name) {
	case "tpch":
		return TPCHSchema(scale), nil
	case "airca":
		return AIRCASchema(scale), nil
	case "tfacc":
		return TFACCSchema(scale), nil
	}
	return nil, fmt.Errorf("unknown dataset %q", name)
}

// Populate generates the dataset's tuples into its schema-only relations,
// deterministically for the seed: TPCHSchema(sf) followed by Populate(seed)
// yields the same database as TPCH(sf, seed). It fails on a dataset that
// already holds tuples — either an earlier Populate or a snapshot restore
// (OpenPersistedSchema warm start) already supplied the contents, and
// generating on top would silently double the data.
func (d *Dataset) Populate(seed int64) error {
	if d.populate == nil {
		return fmt.Errorf("workload: dataset %s has no deferred generator", d.Name)
	}
	if d.DB.Size() > 0 {
		return fmt.Errorf("workload: dataset %s already holds %d tuples", d.Name, d.DB.Size())
	}
	d.populate(seed)
	return nil
}

// mustPopulate backs the one-shot constructors, which populate a shell they
// just built: a failure is a programming error, not a runtime condition.
func (d *Dataset) mustPopulate(seed int64) {
	if err := d.Populate(seed); err != nil {
		panic(err)
	}
}

// AccessSchema builds At plus the dataset's declared ladders.
func (d *Dataset) AccessSchema() (*access.Schema, error) {
	s, err := access.BuildAt(d.DB)
	if err != nil {
		return nil, err
	}
	for _, spec := range d.Ladders {
		if _, err := s.Extend(d.DB, spec.Rel, spec.X, spec.Y); err != nil {
			return nil, fmt.Errorf("workload: ladder %s(%v->%v): %w", spec.Rel, spec.X, spec.Y, err)
		}
	}
	return s, nil
}

// pick returns a pseudo-random tuple of the relation.
func pick(rng *rand.Rand, r *relation.Relation) relation.Tuple {
	return r.Tuples[rng.Intn(r.Len())]
}

// sampleValue draws an actual attribute value from the data, so generated
// predicates are never trivially empty.
func (d *Dataset) sampleValue(rng *rand.Rand, rel, attr string) relation.Value {
	r := d.DB.MustRelation(rel)
	return pick(rng, r)[r.Schema.MustIndex(attr)]
}

// selAttrsOf returns the selection attributes available on a relation.
func (d *Dataset) selAttrsOf(rel string) []SelAttr {
	var out []SelAttr
	for _, s := range d.Sel {
		if s.Rel == rel {
			out = append(out, s)
		}
	}
	return out
}

// aggKeysOf returns the group-by key attributes available on a relation.
func (d *Dataset) aggKeysOf(rel string) []SelAttr {
	var out []SelAttr
	for _, s := range d.AggKeys {
		if s.Rel == rel {
			out = append(out, s)
		}
	}
	return out
}

// hasAggKey reports whether any in-scope relation offers a group-by key.
func (d *Dataset) hasAggKey(rels map[string]bool) bool {
	for _, s := range d.AggKeys {
		if rels[s.Rel] {
			return true
		}
	}
	return false
}

// joinsFrom returns the join edges incident to any relation in the set.
func (d *Dataset) joinsFrom(rels map[string]bool) []Join {
	var out []Join
	for _, j := range d.Joins {
		if rels[j.FromRel] != rels[j.ToRel] { // exactly one endpoint inside
			out = append(out, j)
		}
	}
	return out
}

// Class of generated query, mirroring Fig. 6(i)'s x-axis.
type Class int

// Generated query classes.
const (
	GenSPC Class = iota
	GenRA
	GenAggSPC
)

// String names the class like the paper's figures.
func (c Class) String() string {
	switch c {
	case GenSPC:
		return "SPC"
	case GenRA:
		return "RA"
	default:
		return "agg(SPC)"
	}
}

// Spec controls one generated query.
type Spec struct {
	Class Class
	// NSel is the number of constant selection predicates (#-sel).
	NSel int
	// NProd is the number of Cartesian products (#-prod): the query body
	// has NProd+1 atoms joined along foreign keys.
	NProd int
	// NDiff is the number of set differences for RA queries (0–3); 0
	// produces a union.
	NDiff int
	// Agg selects the aggregate for GenAggSPC (defaults to count).
	Agg query.AggKind
}

// Generate builds a query according to the spec, deterministically for a
// given seed.
func (d *Dataset) Generate(spec Spec, seed int64) (query.Expr, error) {
	rng := rand.New(rand.NewSource(seed))
	base, err := d.genSPC(rng, spec.NSel, spec.NProd, spec.Class == GenAggSPC)
	if err != nil {
		return nil, err
	}
	switch spec.Class {
	case GenSPC:
		return base, nil
	case GenRA:
		return d.genRA(rng, base, spec.NDiff)
	default:
		return d.genAgg(rng, base, spec.Agg)
	}
}

// Workload generates the paper's mixed workload: 30% aggregate SPC, the
// rest RA with 0–3 set differences, #-sel in [3,7], #-prod in [0,4].
func (d *Dataset) Workload(n int, seed int64) ([]query.Expr, error) {
	rng := rand.New(rand.NewSource(seed))
	out := make([]query.Expr, 0, n)
	for i := 0; i < n; i++ {
		spec := Spec{
			NSel:  3 + rng.Intn(5),
			NProd: rng.Intn(3),
		}
		switch {
		case i%10 < 3:
			spec.Class = GenAggSPC
			spec.Agg = []query.AggKind{query.AggCount, query.AggSum, query.AggAvg, query.AggMin, query.AggMax}[rng.Intn(5)]
		case i%10 < 7:
			spec.Class = GenRA
			spec.NDiff = rng.Intn(4)
		default:
			spec.Class = GenSPC
		}
		q, err := d.Generate(spec, seed+int64(i)*7919)
		if err != nil {
			return nil, err
		}
		out = append(out, q)
	}
	return out, nil
}

// genSPC builds a connected join body of nProd+1 atoms with nSel constant
// predicates drawn from the data.
func (d *Dataset) genSPC(rng *rand.Rand, nSel, nProd int, forAgg bool) (*query.SPC, error) {
	fact := d.Facts[rng.Intn(len(d.Facts))]
	q := &query.SPC{Atoms: []query.Atom{{Rel: fact, Alias: "t0"}}}
	inQuery := map[string]bool{fact: true}
	aliasOf := map[string]string{fact: "t0"}

	for len(q.Atoms) < nProd+1 {
		edges := d.joinsFrom(inQuery)
		if len(edges) == 0 {
			break // join graph exhausted; fewer products than asked
		}
		e := edges[rng.Intn(len(edges))]
		newRel, newAttr, oldRel, oldAttr := e.FromRel, e.FromAttr, e.ToRel, e.ToAttr
		if inQuery[newRel] {
			newRel, newAttr, oldRel, oldAttr = e.ToRel, e.ToAttr, e.FromRel, e.FromAttr
		}
		alias := fmt.Sprintf("t%d", len(q.Atoms))
		q.Atoms = append(q.Atoms, query.Atom{Rel: newRel, Alias: alias})
		q.Preds = append(q.Preds, query.EqJ(
			query.C(aliasOf[oldRel], oldAttr),
			query.C(alias, newAttr),
		))
		inQuery[newRel] = true
		aliasOf[newRel] = alias
	}

	// For aggregates the body must reach a relation with a group-by key:
	// extend along the join graph until one is in scope.
	if forAgg {
		for !d.hasAggKey(inQuery) {
			edges := d.joinsFrom(inQuery)
			if len(edges) == 0 {
				break
			}
			// Prefer an edge whose new endpoint has aggregate keys.
			e := edges[rng.Intn(len(edges))]
			for _, cand := range edges {
				other := cand.FromRel
				if inQuery[other] {
					other = cand.ToRel
				}
				if len(d.aggKeysOf(other)) > 0 {
					e = cand
					break
				}
			}
			newRel, newAttr, oldRel, oldAttr := e.FromRel, e.FromAttr, e.ToRel, e.ToAttr
			if inQuery[newRel] {
				newRel, newAttr, oldRel, oldAttr = e.ToRel, e.ToAttr, e.FromRel, e.FromAttr
			}
			alias := fmt.Sprintf("t%d", len(q.Atoms))
			q.Atoms = append(q.Atoms, query.Atom{Rel: newRel, Alias: alias})
			q.Preds = append(q.Preds, query.EqJ(
				query.C(aliasOf[oldRel], oldAttr),
				query.C(alias, newAttr),
			))
			inQuery[newRel] = true
			aliasOf[newRel] = alias
		}
	}

	// Constant predicates over the chosen relations' selection attributes.
	// Categorical attributes get at most one equality predicate; numeric
	// attributes may carry several <= / >= predicates with distinct
	// data-drawn constants, so any #-sel is reachable.
	// Iterate relations in atom order, not map order: a seeded generator
	// must be deterministic, and map iteration here used to reshuffle the
	// candidate pools (and thus the whole workload) between runs.
	var pool []SelAttr
	for _, a := range q.Atoms {
		pool = append(pool, d.selAttrsOf(a.Rel)...)
	}
	if len(pool) == 0 {
		return nil, fmt.Errorf("workload: no selection attributes on %v", q.Atoms)
	}
	usedPred := map[string]bool{}
	added := 0
	// Anchor the body on a key/foreign-key constant most of the time
	// (mirroring the paper's "half of the attributes in the queries are
	// from the access constraints", whose templates are keyed on the
	// constraints' attributes): this lets the chase cover the join chain
	// exactly via constraints, like Q1's p0 anchor.
	if nSel > 0 && rng.Intn(5) != 0 {
		var anchors []SelAttr
		for _, atom := range q.Atoms {
			for _, a := range d.Anchors {
				if a.Rel == atom.Rel {
					anchors = append(anchors, a)
				}
			}
		}
		if len(anchors) > 0 {
			a := anchors[rng.Intn(len(anchors))]
			q.Preds = append(q.Preds, query.EqC(
				query.C(aliasOf[a.Rel], a.Attr),
				d.sampleValue(rng, a.Rel, a.Attr),
			))
			usedPred[a.Rel+"."+a.Attr] = true
			added++
		}
	}
	for attempts := 0; added < nSel && attempts < nSel*20+100; attempts++ {
		sa := pool[rng.Intn(len(pool))]
		col := query.C(aliasOf[sa.Rel], sa.Attr)
		v := d.sampleValue(rng, sa.Rel, sa.Attr)
		var pd query.Pred
		var key string
		if sa.Numeric {
			// Take the looser of two data samples so each range
			// predicate passes ~75% of values; stacked predicates
			// still leave answers.
			v2 := d.sampleValue(rng, sa.Rel, sa.Attr)
			if rng.Intn(2) == 0 {
				if v.Less(v2) {
					v = v2
				}
				pd = query.LeC(col, v)
			} else {
				if v2.Less(v) {
					v = v2
				}
				pd = query.GeC(col, v)
			}
			key = sa.Rel + "." + sa.Attr + pd.Op.String() + v.Key()
		} else {
			pd = query.EqC(col, v)
			key = sa.Rel + "." + sa.Attr
		}
		if usedPred[key] {
			continue
		}
		usedPred[key] = true
		q.Preds = append(q.Preds, pd)
		added++
	}

	// Output: for aggregates, a categorical key plus a numeric value from
	// the atoms in the query; otherwise two or three informative columns.
	q.Output = d.chooseOutput(rng, q, aliasOf, inQuery, forAgg)
	if len(q.Output) == 0 {
		return nil, fmt.Errorf("workload: no output columns for %v", q.Atoms)
	}
	return q, nil
}

func (d *Dataset) chooseOutput(rng *rand.Rand, q *query.SPC, aliasOf map[string]string, inQuery map[string]bool, forAgg bool) []query.Col {
	var keys, vals []query.Col
	for _, s := range d.AggKeys {
		if inQuery[s.Rel] {
			keys = append(keys, query.C(aliasOf[s.Rel], s.Attr))
		}
	}
	for _, s := range d.AggVals {
		if inQuery[s.Rel] {
			vals = append(vals, query.C(aliasOf[s.Rel], s.Attr))
		}
	}
	if forAgg {
		if len(keys) == 0 || len(vals) == 0 {
			return nil
		}
		return []query.Col{keys[rng.Intn(len(keys))], vals[rng.Intn(len(vals))]}
	}
	var out []query.Col
	if len(keys) > 0 {
		out = append(out, keys[rng.Intn(len(keys))])
	}
	if len(vals) > 0 {
		out = append(out, vals[rng.Intn(len(vals))])
	}
	if len(vals) > 1 {
		extra := vals[rng.Intn(len(vals))]
		dup := false
		for _, c := range out {
			if c == extra {
				dup = true
			}
		}
		if !dup {
			out = append(out, extra)
		}
	}
	if len(out) == 0 {
		// Fall back to any selection attribute in scope (atom order, so
		// the seeded generation stays deterministic).
		for _, a := range q.Atoms {
			if sel := d.selAttrsOf(a.Rel); len(sel) > 0 {
				out = append(out, query.C(aliasOf[a.Rel], sel[0].Attr))
				break
			}
		}
	}
	return out
}

// genRA wraps the base SPC into unions/differences against perturbed
// variants (same output schema, one predicate tightened), giving RA queries
// with the requested number of set differences.
func (d *Dataset) genRA(rng *rand.Rand, base *query.SPC, nDiff int) (query.Expr, error) {
	if nDiff <= 0 {
		other := perturb(rng, base, false)
		return &query.Union{L: base, R: other}, nil
	}
	var e query.Expr = base
	for i := 0; i < nDiff; i++ {
		e = &query.Diff{L: e, R: perturb(rng, base, true)}
	}
	return e, nil
}

// perturb clones the SPC, tightening (or shifting) one constant predicate.
func perturb(rng *rand.Rand, base *query.SPC, tighten bool) *query.SPC {
	out := &query.SPC{
		Atoms:  append([]query.Atom(nil), base.Atoms...),
		Preds:  append([]query.Pred(nil), base.Preds...),
		Output: append([]query.Col(nil), base.Output...),
	}
	var candidates []int
	for i, p := range out.Preds {
		if !p.Join {
			candidates = append(candidates, i)
		}
	}
	if len(candidates) == 0 {
		return out
	}
	pi := candidates[rng.Intn(len(candidates))]
	p := out.Preds[pi]
	if f, ok := p.Const.AsFloat(); ok && p.Op != query.OpEq {
		shift := 0.5 + rng.Float64()*0.3 // tighten by 20–50%: a wide band
		if !tighten {
			shift = 1.1 + rng.Float64()*0.3
		}
		if p.Op == query.OpGe || p.Op == query.OpGt {
			shift = 2 - shift // >= tightens upward
		}
		if p.Const.Kind() == relation.KindInt {
			p.Const = relation.Int(int64(f * shift))
		} else {
			p.Const = relation.Float(f * shift)
		}
	} else if p.Op == query.OpEq {
		// For equality predicates, tightening flips the comparison into a
		// narrower numeric band elsewhere is not possible; drop-in: keep
		// the predicate, difference becomes empty-ish, which is still a
		// valid RA query shape.
		_ = p
	}
	out.Preds[pi] = p
	return out
}

// genAgg wraps the SPC (whose output is [key, value]) into a group-by.
// For count and sum, whose magnitudes scale with the group size, the
// aggregate output's distance is normalised by the typical group magnitude
// (body size over distinct key values) so the RC-measure stays comparable
// across aggregates — the same normalisation the paper applies when
// reporting accuracies in [0, 1].
func (d *Dataset) genAgg(rng *rand.Rand, base *query.SPC, agg query.AggKind) (query.Expr, error) {
	if len(base.Output) < 2 {
		return nil, fmt.Errorf("workload: aggregate needs key and value columns")
	}
	g := &query.GroupBy{
		In:   base,
		Keys: base.Output[:1],
		Agg:  agg,
		On:   base.Output[1],
		As:   "agg",
	}
	if agg == query.AggCount || agg == query.AggSum {
		groupMag := d.typicalGroupSize(base)
		switch agg {
		case query.AggCount:
			g.DistScale = groupMag
		case query.AggSum:
			g.DistScale = groupMag * d.attrScale(base, base.Output[1])
		}
	}
	return g, nil
}

// typicalGroupSize estimates rows-per-group for the aggregate: the largest
// atom's cardinality divided by the key attribute's distinct count.
func (d *Dataset) typicalGroupSize(base *query.SPC) float64 {
	body := 1
	for _, a := range base.Atoms {
		if r, ok := d.DB.Relation(a.Rel); ok && r.Len() > body {
			body = r.Len()
		}
	}
	key := base.Output[0]
	groups := 1
	for _, a := range base.Atoms {
		if a.Name() != key.Rel {
			continue
		}
		r := d.DB.MustRelation(a.Rel)
		if i, ok := r.Schema.Index(key.Attr); ok {
			seen := map[string]bool{}
			for _, t := range r.Tuples {
				seen[t[i].Key()] = true
			}
			if len(seen) > groups {
				groups = len(seen)
			}
		}
	}
	mag := float64(body) / float64(groups)
	if mag < 1 {
		mag = 1
	}
	return mag
}

// attrScale returns the numeric distance scale of a column (1 if not
// numeric).
func (d *Dataset) attrScale(base *query.SPC, col query.Col) float64 {
	for _, a := range base.Atoms {
		if a.Name() != col.Rel {
			continue
		}
		r := d.DB.MustRelation(a.Rel)
		if i, ok := r.Schema.Index(col.Attr); ok {
			dist := r.Schema.Attrs[i].Dist
			if dist.Kind == relation.DistNumeric && dist.Scale > 0 {
				return dist.Scale
			}
		}
	}
	return 1
}
