// Package query defines the query classes of the paper — SPC (selection,
// projection, Cartesian product), RA (adding union, set difference,
// renaming) and RAaggr (adding a group-by construct with min, max, sum,
// count, avg) — together with validation, the maximal induced query of §6,
// relaxation semantics of §3, and a reference evaluator used for exact
// answers and baselines.
//
// Queries are kept in a normal form: SPC leaves are flattened conjunctive
// queries (a list of aliased relation atoms, a conjunction of predicates and
// a projection list), and RA/RAaggr structure is a tree of Union, Diff and
// GroupBy combinators over those leaves. Renaming is subsumed by atom
// aliases. This mirrors the tableau representation the chase works on (§5).
package query

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"repro/internal/relation"
)

// Col references an attribute of an aliased relation occurrence, e.g.
// h.price. For combinator outputs it references a column of the child's
// output schema by its qualified name.
type Col struct {
	Rel  string // alias of the atom (or of the child output column)
	Attr string
}

// String renders the column as "alias.attr".
func (c Col) String() string { return c.Rel + "." + c.Attr }

// Name returns the qualified attribute name used in output schemas.
func (c Col) Name() string { return c.Rel + "." + c.Attr }

// C is shorthand for Col{rel, attr}.
func C(rel, attr string) Col { return Col{Rel: rel, Attr: attr} }

// Atom is one relation occurrence in an SPC body: relation name plus alias
// (renaming ρ). An empty alias defaults to the relation name.
type Atom struct {
	Rel   string
	Alias string
}

// Name returns the effective alias.
func (a Atom) Name() string {
	if a.Alias != "" {
		return a.Alias
	}
	return a.Rel
}

// CmpOp is a comparison operator in a selection predicate.
type CmpOp uint8

// Comparison operators. Col-col predicates support OpEq and OpLe (the
// paper's σA=B and σA<=B); constant predicates support all five.
const (
	OpEq CmpOp = iota
	OpLe
	OpGe
	OpLt
	OpGt
)

// String renders the operator.
func (op CmpOp) String() string {
	switch op {
	case OpEq:
		return "="
	case OpLe:
		return "<="
	case OpGe:
		return ">="
	case OpLt:
		return "<"
	case OpGt:
		return ">"
	default:
		return "?"
	}
}

// Pred is one conjunct of a selection condition: either column-constant
// (Join == false) or column-column (Join == true).
type Pred struct {
	Op    CmpOp
	Left  Col
	Join  bool
	Right Col            // valid when Join
	Const relation.Value // valid when !Join
}

// EqC builds the predicate col = const.
func EqC(c Col, v relation.Value) Pred { return Pred{Op: OpEq, Left: c, Const: v} }

// LeC builds col <= const.
func LeC(c Col, v relation.Value) Pred { return Pred{Op: OpLe, Left: c, Const: v} }

// GeC builds col >= const.
func GeC(c Col, v relation.Value) Pred { return Pred{Op: OpGe, Left: c, Const: v} }

// EqJ builds the join predicate l = r.
func EqJ(l, r Col) Pred { return Pred{Op: OpEq, Left: l, Join: true, Right: r} }

// LeJ builds the join predicate l <= r.
func LeJ(l, r Col) Pred { return Pred{Op: OpLe, Left: l, Join: true, Right: r} }

// String renders the predicate in re-parseable form: string constants are
// quoted and float constants keep a digits-and-dot spelling, so that
// Render's output feeds back through the SQL parser (Parse ∘ Render is the
// identity on parsed queries, which the sqlparser fuzz target checks).
func (p Pred) String() string {
	if p.Join {
		return fmt.Sprintf("%s %s %s", p.Left, p.Op, p.Right)
	}
	return fmt.Sprintf("%s %s %s", p.Left, p.Op, renderConst(p.Const))
}

// renderConst spells a constant the SQL lexer can read back.
func renderConst(v relation.Value) string {
	switch v.Kind() {
	case relation.KindString:
		// Double embedded quotes (SQL escaping): keeps Render injective —
		// it doubles as the plan-cache key — and re-parseable.
		s, _ := v.AsString()
		return "'" + strings.ReplaceAll(s, "'", "''") + "'"
	case relation.KindFloat:
		f, _ := v.AsFloat()
		s := strconv.FormatFloat(f, 'f', -1, 64)
		if !strings.ContainsRune(s, '.') {
			s += ".0" // keep the float kind through a re-parse
		}
		return s
	default:
		return v.String()
	}
}

// Holds evaluates the predicate on concrete values (left, and right for join
// predicates).
func (p Pred) Holds(left, right relation.Value) bool {
	cmp := left.Compare(rightOperand(p, right))
	switch p.Op {
	case OpEq:
		return cmp == 0
	case OpLe:
		return cmp <= 0
	case OpGe:
		return cmp >= 0
	case OpLt:
		return cmp < 0
	default:
		return cmp > 0
	}
}

// Violation returns the minimal relaxation range r that admits the given
// values under the paper's relaxed query semantics (§3.1): σA=c becomes
// σ dis(A,c) <= r and σA=B becomes σ dis(A,B) <= 2r; inequality predicates
// relax on the violating side only. dist is the distance function of the
// left attribute. A return of 0 means the predicate already holds.
func (p Pred) Violation(dist relation.Distance, left, right relation.Value) float64 {
	rv := rightOperand(p, right)
	holds := p.Holds(left, right)
	if holds {
		return 0
	}
	d := dist.Between(left, rv)
	if p.Join {
		// Both sides may move by r, so distance 2r is admissible.
		return d / 2
	}
	return d
}

func rightOperand(p Pred, right relation.Value) relation.Value {
	if p.Join {
		return right
	}
	return p.Const
}

// RelaxedHolds evaluates the predicate under relaxation range r.
func (p Pred) RelaxedHolds(dist relation.Distance, left, right relation.Value, r float64) bool {
	return p.Violation(dist, left, right) <= r
}

// ConstKernel is a constant predicate compiled with its column's distance
// and a tolerance: Select keeps exactly the rows at which RelaxedHolds(dist,
// row, Null, tol) holds, read straight from the column's typed payload. A
// row the predicate holds at is kept iff 0 <= tol; any other row iff its
// distance to the constant is within tol — |a−c|/scale for numeric
// operands under a numeric distance, computed as Distance.Between does, and
// otherwise 0 for an equal row and 1 or +Inf for an unequal one. Columns with nulls or
// mixed kinds, and constants that are not ints, floats or strings, take the
// RelaxedHolds row loop. The kernel is a value and allocates nothing.
type ConstKernel struct {
	pred Pred
	dist relation.Distance
	tol  float64
	// kind is the constant's kind, KindNull when only the row loop applies;
	// cf is a numeric constant as a float, ci an int constant exactly.
	kind relation.Kind
	ci   int64
	cf   float64
	cs   string
	// holds has bit cmp+1 set when the predicate holds at Compare result cmp.
	holds uint8
	// numeric: numeric operands are at distance |a−c|/scale.
	numeric bool
	scale   float64
	zeroOK  bool // a distance of 0 is within tol
	neqOK   bool // the distance of unequal values (1 or +Inf) is within tol
}

// CompileConst compiles the constant predicate p (p.Join false) of a
// column with distance dist under tolerance tol.
func CompileConst(p Pred, dist relation.Distance, tol float64) ConstKernel {
	k := ConstKernel{pred: p, dist: dist, tol: tol, numeric: dist.Kind == relation.DistNumeric}
	if !p.Join {
		switch k.kind = p.Const.Kind(); k.kind {
		case relation.KindInt:
			k.ci, _ = p.Const.AsInt()
			k.cf = float64(k.ci)
		case relation.KindFloat:
			k.cf, _ = p.Const.AsFloat()
		case relation.KindString:
			k.cs, _ = p.Const.AsString()
		}
	}
	switch p.Op {
	case OpEq:
		k.holds = 0b010
	case OpLe:
		k.holds = 0b011
	case OpGe:
		k.holds = 0b110
	case OpLt:
		k.holds = 0b001
	default:
		k.holds = 0b100
	}
	k.scale = dist.Scale
	if k.scale <= 0 {
		k.scale = 1
	}
	neq := math.Inf(1)
	if dist.Kind == relation.DistDiscrete {
		neq = 1
	}
	k.zeroOK, k.neqOK = 0 <= tol, neq <= tol
	return k
}

// Select returns the rows of c that pass the kernel, in row order. With all
// set it selects from every row of c, reusing sel's storage; otherwise it
// narrows the row list sel in place.
func (k *ConstKernel) Select(c *relation.Column, sel []int32, all bool) []int32 {
	switch k.kind {
	case relation.KindInt, relation.KindFloat:
		if xs, ok := c.Ints(); ok {
			return k.selectInts(xs, sel, all)
		}
		if xs, ok := c.Floats(); ok {
			return k.selectFloats(xs, sel, all)
		}
	case relation.KindString:
		if xs, ok := c.Strings(); ok {
			return k.selectStrings(xs, sel, all)
		}
	}
	n := len(sel)
	if all {
		n = c.Len()
	}
	out := sel[:0]
	for j := 0; j < n; j++ {
		i := int32(j)
		if !all {
			i = sel[j]
		}
		if k.pred.RelaxedHolds(k.dist, c.Value(int(i)), relation.Null(), k.tol) {
			out = append(out, i)
		}
	}
	return out
}

func (k *ConstKernel) selectInts(xs []int64, sel []int32, all bool) []int32 {
	n := len(sel)
	if all {
		n = len(xs)
	}
	out := sel[:0]
	for j := 0; j < n; j++ {
		i := int32(j)
		if !all {
			i = sel[j]
		}
		x := xs[i]
		var cmp int
		if k.kind == relation.KindInt {
			cmp = compareNum(x, k.ci) // two ints compare exactly
		} else {
			cmp = compareNum(float64(x), k.cf)
		}
		if k.admitNum(cmp, float64(x)) {
			out = append(out, i)
		}
	}
	return out
}

func (k *ConstKernel) selectFloats(xs []float64, sel []int32, all bool) []int32 {
	n := len(sel)
	if all {
		n = len(xs)
	}
	out := sel[:0]
	for j := 0; j < n; j++ {
		i := int32(j)
		if !all {
			i = sel[j]
		}
		if x := xs[i]; k.admitNum(compareNum(x, k.cf), x) {
			out = append(out, i)
		}
	}
	return out
}

func (k *ConstKernel) selectStrings(xs []string, sel []int32, all bool) []int32 {
	n := len(sel)
	if all {
		n = len(xs)
	}
	out := sel[:0]
	for j := 0; j < n; j++ {
		i := int32(j)
		if !all {
			i = sel[j]
		}
		// Strings are not numeric: every distance compares them by equality.
		if k.admitCmp(strings.Compare(xs[i], k.cs)) {
			out = append(out, i)
		}
	}
	return out
}

// compareNum is Value.Compare of two numerics: it compares two ints
// exactly and anything else as floats, where a NaN equals every number.
func compareNum[T int64 | float64](a, b T) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}

// admitNum decides a numeric row a whose Compare result against the
// constant is cmp.
func (k *ConstKernel) admitNum(cmp int, a float64) bool {
	if k.numeric && k.holds>>uint(cmp+1)&1 == 0 {
		return math.Abs(a-k.cf)/k.scale <= k.tol
	}
	return k.admitCmp(cmp)
}

// admitCmp decides a row whose distance to the constant follows from its
// Compare result cmp alone: 0 when the predicate holds or the row equals
// the constant, the unequal distance otherwise.
func (k *ConstKernel) admitCmp(cmp int) bool {
	if k.holds>>uint(cmp+1)&1 != 0 || cmp == 0 {
		return k.zeroOK
	}
	return k.neqOK
}

// Expr is a query expression: *SPC, *Union, *Diff or *GroupBy.
type Expr interface {
	isExpr()
}

// SPC is a flattened conjunctive query with selection predicates and a
// projection list. An empty Output projects every column of every atom.
type SPC struct {
	Atoms  []Atom
	Preds  []Pred
	Output []Col
}

// Union is set union Q1 ∪ Q2 (outputs must be union-compatible).
type Union struct {
	L, R Expr
}

// Diff is set difference Q1 − Q2.
type Diff struct {
	L, R Expr
}

// AggKind selects an aggregate function.
type AggKind uint8

// Aggregate functions of RAaggr (§3.2, §7).
const (
	AggMin AggKind = iota
	AggMax
	AggSum
	AggCount
	AggAvg
)

// String renders the aggregate name.
func (a AggKind) String() string {
	switch a {
	case AggMin:
		return "min"
	case AggMax:
		return "max"
	case AggSum:
		return "sum"
	case AggCount:
		return "count"
	case AggAvg:
		return "avg"
	default:
		return "agg?"
	}
}

// GroupBy is gpBy(Q', X, agg(V)): group the output of In on Keys and
// aggregate column On. The aggregate output column is named As (default
// "agg"). DistScale optionally overrides the distance normalisation of the
// aggregate output attribute (0 means: inherit On's scale for min/max/
// sum/avg, and 1 for count).
type GroupBy struct {
	In        Expr
	Keys      []Col
	Agg       AggKind
	On        Col
	As        string
	DistScale float64
}

func (*SPC) isExpr()     {}
func (*Union) isExpr()   {}
func (*Diff) isExpr()    {}
func (*GroupBy) isExpr() {}

// Class is the syntactic class of a query.
type Class uint8

// Query classes, in increasing generality.
const (
	ClassSPC Class = iota
	ClassRA
	ClassAggr
)

// String names the class like the paper does.
func (c Class) String() string {
	switch c {
	case ClassSPC:
		return "SPC"
	case ClassRA:
		return "RA"
	default:
		return "RAaggr"
	}
}

// Classify reports the smallest class containing the expression.
func Classify(e Expr) Class {
	switch q := e.(type) {
	case *SPC:
		return ClassSPC
	case *Union, *Diff:
		c := ClassRA
		var l, r Expr
		if u, ok := q.(*Union); ok {
			l, r = u.L, u.R
		} else {
			d := q.(*Diff)
			l, r = d.L, d.R
		}
		if Classify(l) == ClassAggr || Classify(r) == ClassAggr {
			c = ClassAggr
		}
		return c
	case *GroupBy:
		return ClassAggr
	default:
		return ClassAggr
	}
}

// SPCLeaves returns the SPC leaves of the expression in left-to-right order.
// These are exactly the "max SPC sub-queries" BEAS_RA fetches data for (§6).
func SPCLeaves(e Expr) []*SPC {
	switch q := e.(type) {
	case *SPC:
		return []*SPC{q}
	case *Union:
		return append(SPCLeaves(q.L), SPCLeaves(q.R)...)
	case *Diff:
		return append(SPCLeaves(q.L), SPCLeaves(q.R)...)
	case *GroupBy:
		return SPCLeaves(q.In)
	default:
		return nil
	}
}

// MaxInduced returns the maximal induced query Q̂ of Q (§6): Q with the
// negated part of every set difference dropped, so Q̂(D) ⊇ Q(D) on every D.
// The result shares SPC leaves with the input (it is read-only downstream).
func MaxInduced(e Expr) Expr {
	switch q := e.(type) {
	case *SPC:
		return q
	case *Union:
		return &Union{L: MaxInduced(q.L), R: MaxInduced(q.R)}
	case *Diff:
		return MaxInduced(q.L)
	case *GroupBy:
		return &GroupBy{In: MaxInduced(q.In), Keys: q.Keys, Agg: q.Agg, On: q.On, As: q.As, DistScale: q.DistScale}
	default:
		return e
	}
}

// HasDiff reports whether the expression contains a set difference.
func HasDiff(e Expr) bool {
	switch q := e.(type) {
	case *SPC:
		return false
	case *Union:
		return HasDiff(q.L) || HasDiff(q.R)
	case *Diff:
		return true
	case *GroupBy:
		return HasDiff(q.In)
	default:
		return false
	}
}

// NumProducts returns the paper's #-prod metric: Cartesian products (atom
// count minus one) summed over SPC leaves.
func NumProducts(e Expr) int {
	n := 0
	for _, s := range SPCLeaves(e) {
		if len(s.Atoms) > 1 {
			n += len(s.Atoms) - 1
		}
	}
	return n
}

// NumSelections returns the paper's #-sel metric: selection predicates
// summed over SPC leaves.
func NumSelections(e Expr) int {
	n := 0
	for _, s := range SPCLeaves(e) {
		n += len(s.Preds)
	}
	return n
}

// NumRelations returns ||Q||: relation occurrences summed over SPC leaves
// (used in the accuracy lower bound of Theorem 5).
func NumRelations(e Expr) int {
	n := 0
	for _, s := range SPCLeaves(e) {
		n += len(s.Atoms)
	}
	return n
}
