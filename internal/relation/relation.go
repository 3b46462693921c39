package relation

import "fmt"

// Relation is an in-memory relation instance: a schema plus a bag of tuples.
// BEAS itself works under set semantics for RA and bag semantics for
// aggregates; Relation stores a bag and provides Distinct for the former.
type Relation struct {
	Schema *Schema
	Tuples []Tuple
}

// NewRelation returns an empty relation over the schema.
func NewRelation(s *Schema) *Relation {
	return &Relation{Schema: s}
}

// Len returns the number of tuples (bag cardinality).
func (r *Relation) Len() int { return len(r.Tuples) }

// Append adds tuples after validating their arity against the schema.
func (r *Relation) Append(ts ...Tuple) error {
	for _, t := range ts {
		if len(t) != r.Schema.Arity() {
			return fmt.Errorf("relation: %s expects arity %d, got %d", r.Schema.Name, r.Schema.Arity(), len(t))
		}
	}
	r.Tuples = append(r.Tuples, ts...)
	return nil
}

// MustAppend is Append that panics on arity errors; for generators and tests.
func (r *Relation) MustAppend(ts ...Tuple) {
	if err := r.Append(ts...); err != nil {
		panic(err)
	}
}

// Distinct returns a new relation with duplicate tuples removed, preserving
// first-occurrence order.
func (r *Relation) Distinct() *Relation { return distinct(r.Schema, r.Tuples, nil) }

// UnionDistinct returns a new relation over r's schema holding the distinct
// tuples of r followed by those of o, in first-occurrence order: the
// Distinct of their concatenation, without building it.
func (r *Relation) UnionDistinct(o *Relation) *Relation {
	return distinct(r.Schema, r.Tuples, o.Tuples)
}

// distinct dedups a then b into one relation. Its tuples and its table of
// seen tuples are sized up front for all of them, so a call allocates the
// same few times whatever the input's length; the table is pointer-free,
// so the collector does not scan it.
func distinct(s *Schema, a, b []Tuple) *Relation {
	out := NewRelation(s)
	if len(a)+len(b) == 0 {
		return out
	}
	out.Tuples = make([]Tuple, 0, len(a)+len(b))
	var seen ProbeTable
	seen.Grow(len(a) + len(b))
	for _, part := range [2][]Tuple{a, b} {
		for _, t := range part {
			if _, added := seen.Insert(t.Hash(), func(p int) bool { return out.Tuples[p].KeyEqual(t) }); added {
				out.Tuples = append(out.Tuples, t)
			}
		}
	}
	return out
}

// Project returns a new relation containing the named attributes only
// (bag semantics: duplicates are kept).
func (r *Relation) Project(attrs []string) (*Relation, error) {
	idx, err := r.Schema.Indices(attrs)
	if err != nil {
		return nil, err
	}
	sch, err := r.Schema.Project(r.Schema.Name, attrs)
	if err != nil {
		return nil, err
	}
	out := NewRelation(sch)
	out.Tuples = make([]Tuple, 0, len(r.Tuples))
	for _, t := range r.Tuples {
		out.Tuples = append(out.Tuples, t.Project(idx))
	}
	return out, nil
}

// GroupBy partitions tuples by the key attributes and returns the groups in
// first-occurrence order of their keys.
func (r *Relation) GroupBy(attrs []string) ([]Group, error) {
	idx, err := r.Schema.Indices(attrs)
	if err != nil {
		return nil, err
	}
	var byKey ProbeTable
	var groups []Group
	for _, t := range r.Tuples {
		key := t.Project(idx)
		gi, added := byKey.Insert(key.Hash(), func(p int) bool { return groups[p].Key.KeyEqual(key) })
		if added {
			groups = append(groups, Group{Key: key})
		}
		groups[gi].Tuples = append(groups[gi].Tuples, t)
	}
	return groups, nil
}

// Group is one group-by partition: the grouping key and the member tuples.
type Group struct {
	Key    Tuple
	Tuples []Tuple
}
