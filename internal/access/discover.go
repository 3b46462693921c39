package access

import (
	"context"
	"runtime"
	"sort"

	"repro/internal/relation"
)

// This file implements the access-schema discovery the paper sketches in
// §4.1: "algorithms for discovering functional dependencies can be extended
// to mine access constraints. This method can be extended to discover
// access templates, with aggregates to compute cardinality bounds and
// sampling to pick representative tuples."
//
// Discovery scans each relation for candidate X → Y groupings (X of size
// ≤ MaxX) and keeps those that make useful ladders: either constraint-like
// (every X-group is small, so the exact fetch is cheap — like
// friend(pid → fid, 5000)) or template-like (few groups, each carrying a
// K-D ladder over the value attributes — like poi({type, city} → ...)).

// DiscoverOptions tunes the mining pass. The zero value is usable.
type DiscoverOptions struct {
	// MaxX bounds the size of candidate X sets (default 2).
	MaxX int
	// MaxFanout: a candidate is constraint-like when every group has at
	// most this many distinct Y-tuples (default 256).
	MaxFanout int
	// MaxGroups: a candidate is template-like when it has at most this
	// many groups (default 64) — each group carries its own index, so
	// low-cardinality X sets are the useful ones.
	MaxGroups int
	// MaxPerRelation caps how many ladders are kept per relation, best
	// candidates first (default 4).
	MaxPerRelation int
}

func (o DiscoverOptions) withDefaults() DiscoverOptions {
	if o.MaxX <= 0 {
		o.MaxX = 2
	}
	if o.MaxFanout <= 0 {
		o.MaxFanout = 256
	}
	if o.MaxGroups <= 0 {
		o.MaxGroups = 64
	}
	if o.MaxPerRelation <= 0 {
		o.MaxPerRelation = 4
	}
	return o
}

// Candidate is one mined ladder specification with its statistics.
type Candidate struct {
	Rel       string
	X, Y      []string
	Groups    int
	MaxFanout int
	// ConstraintLike reports that every group is small (cheap exact
	// fetches); otherwise the candidate qualified as template-like.
	ConstraintLike bool
}

// Discover mines candidate ladders from the data. Results are ordered per
// relation from most to least selective (smallest max fanout first for
// constraint-like, fewest groups first for template-like). Relations are
// mined concurrently — each is independent and mining is deterministic, so
// the output matches a sequential pass exactly (db.Names order).
func Discover(db *relation.Database, opts DiscoverOptions) []Candidate {
	opts = opts.withDefaults()
	names := db.Names()
	perRel := make([][]Candidate, len(names))
	parallelFor(len(names), runtime.GOMAXPROCS(0), func(_, i int) {
		perRel[i] = discoverRelation(db.MustRelation(names[i]), opts)
	})

	var out []Candidate
	for _, cands := range perRel {
		out = append(out, cands...)
	}
	return out
}

func discoverRelation(r *relation.Relation, opts DiscoverOptions) []Candidate {
	if r.Len() == 0 {
		return nil
	}
	attrs := r.Schema.AttrNames()
	var xSets [][]string
	for i, a := range attrs {
		xSets = append(xSets, []string{a})
		if opts.MaxX >= 2 {
			for _, b := range attrs[i+1:] {
				xSets = append(xSets, []string{a, b})
			}
		}
	}

	d := r.Distinct()
	var cands []Candidate
	for _, x := range xSets {
		xIdx, err := r.Schema.Indices(x)
		if err != nil {
			continue
		}
		y := complement(attrs, x)
		if len(y) == 0 {
			continue
		}
		groups, maxFanout := groupStats(d, xIdx)
		c := Candidate{Rel: r.Schema.Name, X: x, Y: y, Groups: groups, MaxFanout: maxFanout}
		switch {
		case groups == 1:
			// X is constant (or empty-equivalent): At already covers it.
			continue
		case maxFanout <= opts.MaxFanout:
			c.ConstraintLike = true
			cands = append(cands, c)
		case groups <= opts.MaxGroups:
			cands = append(cands, c)
		}
	}

	// Prefer constraint-like candidates with small fanout, then
	// template-like with few groups; drop X-supersets of kept X-sets
	// (the subset ladder already serves those fetches).
	sort.Slice(cands, func(i, j int) bool {
		a, b := cands[i], cands[j]
		if a.ConstraintLike != b.ConstraintLike {
			return a.ConstraintLike
		}
		if a.ConstraintLike {
			if a.MaxFanout != b.MaxFanout {
				return a.MaxFanout < b.MaxFanout
			}
			return len(a.X) < len(b.X)
		}
		if a.Groups != b.Groups {
			return a.Groups < b.Groups
		}
		return len(a.X) < len(b.X)
	})
	var kept []Candidate
	for _, c := range cands {
		if len(kept) >= opts.MaxPerRelation {
			break
		}
		redundant := false
		for _, k := range kept {
			// Keep at most one of any subset/superset pair of X sets
			// (the better-ranked one, which arrived first).
			if subset(k.X, c.X) || subset(c.X, k.X) {
				redundant = true
				break
			}
		}
		if !redundant {
			kept = append(kept, c)
		}
	}
	return kept
}

// groupStats returns the number of distinct X-values among the tuples of
// d at xIdx, and the largest number of d's tuples that share one. With d
// distinct and Y the complement of X, the tuples of an X group differ in
// their Y-values, so that count is the group's number of distinct Y-values.
func groupStats(d *relation.Relation, xIdx []int) (groups, maxFanout int) {
	xs := relation.MakeKeyIndex(len(xIdx))
	var counts []int
	xv := make(relation.Tuple, len(xIdx))
	for _, t := range d.Tuples {
		for i, j := range xIdx {
			xv[i] = t[j]
		}
		p, added := xs.Add(xv)
		if added {
			counts = append(counts, 0)
		}
		counts[p]++
		maxFanout = max(maxFanout, counts[p])
	}
	return xs.Len(), maxFanout
}

// DiscoverSchema builds At plus ladders for all mined candidates: a fully
// automatic instantiation of the paper's offline component C1.
func DiscoverSchema(db *relation.Database, opts DiscoverOptions) (*Schema, error) {
	return DiscoverSchemaContext(context.Background(), db, opts)
}

// DiscoverSchemaContext is DiscoverSchema with cooperative cancellation:
// ctx is checked before the At construction, after the mining pass and
// between ladder extensions (each extension builds a full index, the unit
// of work worth abandoning early).
func DiscoverSchemaContext(ctx context.Context, db *relation.Database, opts DiscoverOptions) (*Schema, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	s, err := BuildAt(db)
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	for _, c := range Discover(db, opts) {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if _, err := s.Extend(db, c.Rel, c.X, c.Y); err != nil {
			return nil, err
		}
	}
	return s, nil
}

func complement(all, minus []string) []string {
	drop := map[string]bool{}
	for _, m := range minus {
		drop[m] = true
	}
	var out []string
	for _, a := range all {
		if !drop[a] {
			out = append(out, a)
		}
	}
	return out
}

func subset(sub, super []string) bool {
	in := map[string]bool{}
	for _, s := range super {
		in[s] = true
	}
	for _, s := range sub {
		if !in[s] {
			return false
		}
	}
	return true
}
