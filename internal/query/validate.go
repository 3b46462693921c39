package query

import (
	"fmt"

	"repro/internal/relation"
)

// SchemaSource resolves base relation names to schemas; *relation.Database
// satisfies it.
type SchemaSource interface {
	Relation(name string) (*relation.Relation, bool)
}

// Validate checks the expression against the database schema — atoms
// resolve, aliases are unique per SPC leaf, columns exist, set operations
// are compatible, and group-by appears only at the root — and returns its
// output schema (OutputSchema).
func Validate(e Expr, src SchemaSource) (*relation.Schema, error) {
	in := e
	if g, ok := e.(*GroupBy); ok {
		in = g.In
	}
	if err := validateNoAgg(in); err != nil {
		return nil, err
	}
	return OutputSchema(e, src)
}

func validateNoAgg(e Expr) error {
	switch q := e.(type) {
	case *SPC:
		return nil
	case *Union:
		if err := validateNoAgg(q.L); err != nil {
			return err
		}
		return validateNoAgg(q.R)
	case *Diff:
		if err := validateNoAgg(q.L); err != nil {
			return err
		}
		return validateNoAgg(q.R)
	case *GroupBy:
		return fmt.Errorf("query: group-by is only supported at the query root")
	default:
		return fmt.Errorf("query: unknown expression %T", e)
	}
}

// OutputSchema computes the output relation schema RQ of the expression.
// Attribute names are qualified column names ("alias.attr"); for group-by,
// the aggregate column is named by GroupBy.As (default "agg").
func OutputSchema(e Expr, src SchemaSource) (*relation.Schema, error) {
	switch q := e.(type) {
	case *SPC:
		r, err := Resolve(q, src)
		if err != nil {
			return nil, err
		}
		return r.Schema, nil
	case *Union:
		l, err := OutputSchema(q.L, src)
		if err != nil {
			return nil, err
		}
		r, err := OutputSchema(q.R, src)
		if err != nil {
			return nil, err
		}
		if err := compatible(l, r); err != nil {
			return nil, fmt.Errorf("query: union: %w", err)
		}
		return l, nil
	case *Diff:
		l, err := OutputSchema(q.L, src)
		if err != nil {
			return nil, err
		}
		r, err := OutputSchema(q.R, src)
		if err != nil {
			return nil, err
		}
		if err := compatible(l, r); err != nil {
			return nil, fmt.Errorf("query: difference: %w", err)
		}
		return l, nil
	case *GroupBy:
		return groupByOutputSchema(q, src)
	default:
		return nil, fmt.Errorf("query: unknown expression %T", e)
	}
}

// Binding is one column of an SPC leaf bound to the atom that carries it.
type Binding struct {
	// Col is the column as the query names it.
	Col Col
	// Atom indexes SPC.Atoms; Index is the attribute's position in that
	// atom's base schema.
	Atom, Index int
	// Attr is the base attribute: its name, type and distance.
	Attr relation.Attribute
}

// PredBinding binds the operands of one predicate: Left always, Right
// for joins only.
type PredBinding struct {
	Left, Right Binding
}

// Resolved is an SPC leaf with every column bound to (atom, attribute):
// the one name resolution of a leaf, which the chase, the accuracy bound,
// the execution layout and combine read instead of looking names up again.
type Resolved struct {
	Q *SPC
	// Bases[i] is the base schema of Q.Atoms[i].
	Bases []*relation.Schema
	// Preds[i] binds Q.Preds[i].
	Preds []PredBinding
	// Output binds the effective projection list (OutputCols, in order).
	Output []Binding
	// Schema is the leaf's output schema (OutputSchema).
	Schema *relation.Schema
}

// Resolve validates an SPC leaf against the database schema and binds
// every predicate operand and output column: atoms resolve, aliases are
// unique, columns exist, joins compare with = or <= and no predicate
// compares against NULL.
func Resolve(q *SPC, src SchemaSource) (*Resolved, error) {
	if len(q.Atoms) == 0 {
		return nil, fmt.Errorf("query: SPC needs at least one atom")
	}
	r := &Resolved{Q: q, Bases: make([]*relation.Schema, len(q.Atoms))}
	atomOf := make(map[string]int, len(q.Atoms))
	for i, a := range q.Atoms {
		rel, ok := src.Relation(a.Rel)
		if !ok {
			return nil, fmt.Errorf("query: unknown relation %q", a.Rel)
		}
		name := a.Name()
		if _, dup := atomOf[name]; dup {
			return nil, fmt.Errorf("query: duplicate alias %q", name)
		}
		atomOf[name] = i
		r.Bases[i] = rel.Schema
	}
	bind := func(c Col) (Binding, error) {
		ai, ok := atomOf[c.Rel]
		if !ok {
			return Binding{}, fmt.Errorf("query: column %s: unknown alias %q", c, c.Rel)
		}
		s := r.Bases[ai]
		i, ok := s.Index(c.Attr)
		if !ok {
			return Binding{}, fmt.Errorf("query: column %s: relation %s has no attribute %q", c, s.Name, c.Attr)
		}
		return Binding{Col: c, Atom: ai, Index: i, Attr: s.Attrs[i]}, nil
	}
	var err error
	r.Preds = make([]PredBinding, len(q.Preds))
	for pi, p := range q.Preds {
		if r.Preds[pi].Left, err = bind(p.Left); err != nil {
			return nil, err
		}
		if p.Join {
			if r.Preds[pi].Right, err = bind(p.Right); err != nil {
				return nil, err
			}
			if p.Op != OpEq && p.Op != OpLe {
				return nil, fmt.Errorf("query: join predicate %s: only = and <= are supported between columns", p)
			}
		} else if p.Const.IsNull() {
			return nil, fmt.Errorf("query: predicate %s compares against NULL", p)
		}
	}
	out, err := OutputCols(q, src)
	if err != nil {
		return nil, err
	}
	r.Output = make([]Binding, len(out))
	attrs := make([]relation.Attribute, len(out))
	for i, c := range out {
		if r.Output[i], err = bind(c); err != nil {
			return nil, err
		}
		attrs[i] = relation.Attr(c.Name(), r.Output[i].Attr.Type, r.Output[i].Attr.Dist)
	}
	if r.Schema, err = relation.NewSchema("q", attrs...); err != nil {
		return nil, err
	}
	return r, nil
}

// OutputCols returns the effective projection list of an SPC leaf (its
// Output, or all columns of all atoms when Output is empty).
func OutputCols(q *SPC, src SchemaSource) ([]Col, error) {
	if len(q.Output) > 0 {
		return q.Output, nil
	}
	var out []Col
	for _, a := range q.Atoms {
		r, ok := src.Relation(a.Rel)
		if !ok {
			return nil, fmt.Errorf("query: unknown relation %q", a.Rel)
		}
		for _, attr := range r.Schema.Attrs {
			out = append(out, C(a.Name(), attr.Name))
		}
	}
	return out, nil
}

func groupByOutputSchema(q *GroupBy, src SchemaSource) (*relation.Schema, error) {
	in, err := OutputSchema(q.In, src)
	if err != nil {
		return nil, err
	}
	attrs := make([]relation.Attribute, 0, len(q.Keys)+1)
	for _, k := range q.Keys {
		i, ok := in.Index(k.Name())
		if !ok {
			return nil, fmt.Errorf("query: group-by key %s is not an output column", k)
		}
		attrs = append(attrs, in.Attrs[i])
	}
	i, ok := in.Index(q.On.Name())
	if !ok {
		return nil, fmt.Errorf("query: aggregate column %s is not an output column", q.On)
	}
	onAttr := in.Attrs[i]
	name := q.As
	if name == "" {
		name = "agg"
	}
	scale := q.DistScale
	if scale <= 0 {
		if q.Agg == AggCount {
			scale = 1
		} else if onAttr.Dist.Kind == relation.DistNumeric && onAttr.Dist.Scale > 0 {
			scale = onAttr.Dist.Scale
		} else {
			scale = 1
		}
	}
	var typ relation.Kind
	switch q.Agg {
	case AggCount:
		typ = relation.KindInt
	case AggSum, AggAvg:
		typ = relation.KindFloat
	default:
		typ = onAttr.Type
	}
	attrs = append(attrs, relation.Attr(name, typ, relation.Numeric(scale)))
	return relation.NewSchema("q", attrs...)
}

func compatible(l, r *relation.Schema) error {
	if l.Arity() != r.Arity() {
		return fmt.Errorf("operands have arity %d and %d", l.Arity(), r.Arity())
	}
	return nil
}
